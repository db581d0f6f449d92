"""Rod-coupled joint tests: analytic distribution, trials, simulation."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from esphere import (
    BLOCK_TRIALS,
    Direction,
    JointTestSpec,
    MeasurementOrder,
    ValidationError,
    check_compatibility,
    classify,
    experiment_triple,
    joint_distribution_analytic,
    simulate,
)
from esphere import singlet
from esphere.singlet import _simulate_block, joint_law

from conftest import TIE_RULE_EDGES, directions, epsilons, opposite, positive_epsilons, random_direction

X_AXIS = Direction(1.0, 0.0, 0.0)
Z_AXIS = Direction(0.0, 0.0, 1.0)
# tilted axes whose dot products with Z_AXIS are exact binary fractions
TILTED_HALF = Direction(math.sqrt(3.0) / 2.0, 0.0, 0.5)
TILTED_MINUS_HALF = Direction(math.sqrt(3.0) / 2.0, 0.0, -0.5)
# (u1 angles, u2 angles, epsilon) inside the band where a joint law built as
# p_same = anti / 2, p_diff = 1/2 - p_same summed to 1 - 2^-53 left to right
UNNORMALISED_JOINT_POINTS = [
    ((0.5, 0.0), (0.75, 0.890625), 0.90625),
    ((2.0, 2.0), (2.0, 2.47660979993376), 0.94921875),
    ((1.78125, 0.75), (1.5184998180150715, 5.7963801708917035), 0.34375),
]


def at_unnormalised_joint_points(test):
    """Replay UNNORMALISED_JOINT_POINTS as (u1, u2, eps) examples on every run."""
    for angles1, angles2, eps in UNNORMALISED_JOINT_POINTS:
        test = example(Direction.from_angles(*angles1), Direction.from_angles(*angles2), eps)(test)
    return test


class TestJointTestSpec:
    def test_rejects_bad_epsilon(self) -> None:
        with pytest.raises(ValidationError):
            JointTestSpec(u1=Z_AXIS, u2=X_AXIS, epsilon=1.5)

    def test_rejects_bad_order(self) -> None:
        with pytest.raises(ValidationError):
            JointTestSpec(u1=Z_AXIS, u2=X_AXIS, epsilon=0.5, order="left-first")

    @pytest.mark.parametrize("axes", [(None, X_AXIS), (Z_AXIS, None), (None, None), (Z_AXIS, (1.0, 0.0, 0.0))])
    def test_rejects_non_directions(self, axes: tuple) -> None:
        with pytest.raises(ValidationError):
            JointTestSpec(u1=axes[0], u2=axes[1], epsilon=0.5)


class TestAnalyticDistribution:
    @given(st.floats(min_value=0.0, max_value=math.pi))
    def test_quantum_limit_table(self, theta: float) -> None:
        j = joint_distribution_analytic(Z_AXIS, Direction.from_angles(theta), 1.0)
        same = 0.5 * math.sin(theta / 2.0) ** 2
        diff = 0.5 * math.cos(theta / 2.0) ** 2
        assert j.p1 == pytest.approx(same, abs=1e-12)
        assert j.p4 == pytest.approx(same, abs=1e-12)
        assert j.p2 == pytest.approx(diff, abs=1e-12)
        assert j.p3 == pytest.approx(diff, abs=1e-12)

    def test_aligned_directions_anticorrelate_perfectly(self) -> None:
        for eps in (0.25, 0.5, 1.0):
            assert joint_distribution_analytic(Z_AXIS, Z_AXIS, eps).as_tuple() == (0.0, 0.5, 0.5, 0.0)

    def test_opposite_directions_correlate_perfectly(self) -> None:
        for eps in (0.25, 0.5, 1.0):
            j = joint_distribution_analytic(Z_AXIS, opposite(Z_AXIS), eps)
            assert j.as_tuple() == (0.5, 0.0, 0.0, 0.5)

    def test_band_boundary_uses_certainty_branch(self) -> None:
        assert joint_distribution_analytic(Z_AXIS, TILTED_HALF, 0.5).as_tuple() == (0.0, 0.5, 0.5, 0.0)
        assert joint_distribution_analytic(Z_AXIS, TILTED_MINUS_HALF, 0.5).as_tuple() == (0.5, 0.0, 0.0, 0.5)

    def test_deterministic_limit_cases(self) -> None:
        # positive overlap: the dragged particle ends against its axis
        assert joint_distribution_analytic(Z_AXIS, TILTED_HALF, 0.0).as_tuple() == (0.0, 1.0, 0.0, 0.0)
        # zero and negative overlap share the yes-leaning tie rule
        assert joint_distribution_analytic(Z_AXIS, X_AXIS, 0.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)
        assert joint_distribution_analytic(Z_AXIS, TILTED_MINUS_HALF, 0.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_interpolating_branch_values(self) -> None:
        j = joint_distribution_analytic(Z_AXIS, TILTED_HALF, 0.8)
        assert j.p1 == pytest.approx((0.8 - 0.5) / 3.2, abs=1e-15)
        assert j.p2 == pytest.approx((0.8 + 0.5) / 3.2, abs=1e-15)

    @given(directions(), directions(), positive_epsilons())
    @at_unnormalised_joint_points
    def test_marginal_sums_are_exactly_half(self, u1: Direction, u2: Direction, eps: float) -> None:
        j = joint_distribution_analytic(u1, u2, eps)
        assert j.p1 + j.p2 == 0.5
        assert j.p3 + j.p4 == 0.5
        assert j.p1 + j.p3 == 0.5
        assert j.p2 + j.p4 == 0.5
        assert j.p1 + j.p2 + j.p3 + j.p4 == 1.0

    @given(directions(), directions(), positive_epsilons())
    def test_diagonal_symmetry(self, u1: Direction, u2: Direction, eps: float) -> None:
        j = joint_distribution_analytic(u1, u2, eps)
        assert j.p1 == j.p4
        assert j.p2 == j.p3

    @given(directions(), directions(), positive_epsilons())
    def test_symmetric_under_direction_swap(self, u1: Direction, u2: Direction, eps: float) -> None:
        assert joint_distribution_analytic(u1, u2, eps) == joint_distribution_analytic(u2, u1, eps)


# the 101 x 1001 landscape grid of ``esphere scan``
GRID_EPSILONS = [round(i * 0.01, 2) for i in range(101)]
GRID_COSINES = [Z_AXIS.dot(Direction.from_angles(t)) for t in np.linspace(0.0, math.pi, 1001).tolist()]
EDGE_EPSILONS = [0.0, 5e-324, 1e-300, 0.5, 1.0]


def axis_at(c: float) -> Direction:
    """A direction whose dot product with Z_AXIS is exactly c, sign of zero included."""
    u = Direction(-math.sqrt(1.0 - c * c), -0.0, c)
    assert Z_AXIS.dot(u).hex() == c.hex()
    return u


def edge_cosines(eps: float) -> list[float]:
    """c = +-eps, the doubles on either side of both, signed zeros and the poles."""
    cs = [-1.0, -0.0, 0.0, 1.0]
    for edge in (eps, -eps):
        cs += [edge, math.nextafter(edge, -2.0), math.nextafter(edge, 2.0)]
    return [c for c in cs if -1.0 <= c <= 1.0]


class TestJointLaw:
    @staticmethod
    def assert_matches_scalar_law(cs: list[float], eps: float) -> None:
        got = joint_law(np.array(cs), eps)
        want = np.array([joint_distribution_analytic(Z_AXIS, axis_at(c), eps).as_tuple() for c in cs])
        assert got.shape == (len(cs), 4)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bitwise_equal_to_scalar_law_on_the_scan_grid(self) -> None:
        for eps in GRID_EPSILONS:
            self.assert_matches_scalar_law(GRID_COSINES, eps)

    @pytest.mark.parametrize("eps", EDGE_EPSILONS + [0.25, 1e-7])
    def test_bitwise_equal_to_scalar_law_at_edge_points(self, eps: float) -> None:
        cs = edge_cosines(eps) + GRID_COSINES[::50]
        self.assert_matches_scalar_law(cs, eps)

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=20), positive_epsilons(0.0))
    @example([-5e-324, 0.0, 5e-324, 1e-300], 5e-324)
    def test_bitwise_equal_to_scalar_law_anywhere(self, cs: list[float], eps: float) -> None:
        self.assert_matches_scalar_law(cs, eps)

    def test_keeps_the_shape_of_c(self) -> None:
        assert joint_law(np.zeros((2, 3)), 0.5).shape == (2, 3, 4)
        assert joint_law(np.zeros((2, 3)), 0.0).shape == (2, 3, 4)

    def test_rejects_bad_epsilon(self) -> None:
        with pytest.raises(ValidationError):
            joint_law(np.zeros(3), 1.5)


def assert_exact_sums(cells: list[float]) -> None:
    """Every cell is a multiple of 2^-53, and every left-to-right sum of the four is exact and totals 1."""
    exact = [Fraction(p) for p in cells]
    assert all((q * 2**53).denominator == 1 for q in exact), cells
    for order in itertools.permutations(range(4)):
        total, exact_total = 0.0, Fraction(0)
        for i in order:
            total += cells[i]
            exact_total += exact[i]
            assert Fraction(total) == exact_total, (cells, order)
        assert total == 1.0


def at_exact_sum_edges(test):
    """Replay c = +-eps and its neighbours at eps in {0, 5e-324, 1}, plus identical and opposite axes."""
    tilted = Direction.from_angles(1.0, 2.0)
    pairs = [(Z_AXIS, axis_at(c), eps) for eps in (0.0, 5e-324, 1.0) for c in edge_cosines(eps)]
    pairs += [(u1, u2, eps) for u1, u2 in ((tilted, tilted), (tilted, opposite(tilted))) for eps in (0.0, 0.5)]
    for u1, u2, eps in pairs:
        test = example(u1, u2, eps)(test)
    return test


class TestExactSums:
    """The analytic law's cells sit on the 2^-53 grid, so every summation order is exact."""

    @given(directions(), directions(), epsilons())
    @at_exact_sum_edges
    @at_unnormalised_joint_points
    def test_scalar_and_array_law(self, u1: Direction, u2: Direction, eps: float) -> None:
        assert_exact_sums(list(joint_distribution_analytic(u1, u2, eps).as_tuple()))
        assert_exact_sums(joint_law(np.array([u1.dot(u2)]), eps)[0].tolist())


def reference_side(a: float, eps: float, rng) -> bool:
    """One side's answer at projection a: yes when the break point lies at or below a.

    Where |a| >= eps the answer is certain and nothing is drawn; at eps = 0
    that is the tie rule, a >= 0 answers yes. Otherwise the break point is
    drawn uniformly from [-eps, eps].
    """
    if abs(a) >= eps:
        return a >= eps
    return rng.uniform(-eps, eps) <= a


def reference_trial(spec: JointTestSpec, rng) -> int:
    """One joint trial from two single-side trials: the index 0-3 of its (left, right) cell.

    The first side measured answers from its center; the rod drags the
    partner opposite the endpoint it landed on, where the second side is measured.
    """
    right_first = spec.order is MeasurementOrder.RIGHT_FIRST
    first_dir, second_dir = (spec.u2, spec.u1) if right_first else (spec.u1, spec.u2)
    first = reference_side(0.0, spec.epsilon, rng)
    # the partner sits at -first_dir after yes and at +first_dir after no
    a = first_dir.dot(second_dir)
    second = reference_side(-a if first else a, spec.epsilon, rng)
    left, right = (second, first) if right_first else (first, second)
    return 2 * (not left) + (not right)


class FixedBreak:
    """Stand-in random stream whose uniform draw is a constant."""

    def __init__(self, value: float) -> None:
        self.value = value

    def uniform(self, low: float, high: float) -> float:
        assert low <= self.value <= high
        return self.value


class Exploding:
    """Stand-in random stream that fails any draw."""

    def uniform(self, low: float, high: float) -> float:
        raise AssertionError("no draw expected when the outcome is certain")


class TestReferenceSide:
    def test_certain_regions_skip_the_draw(self) -> None:
        assert reference_side(1.0, 0.5, Exploding())
        assert reference_side(0.0, 0.0, Exploding())

    @pytest.mark.parametrize("eps,a,answer", TIE_RULE_EDGES)
    def test_tie_rule_edges_skip_the_draw(self, eps: float, a: float, answer: str) -> None:
        assert reference_side(a, eps, Exploding()) is (answer == "yes")

    def test_break_at_projection_point_answers_yes(self) -> None:
        assert reference_side(0.25, 0.5, FixedBreak(0.25))

    def test_break_above_projection_point_answers_no(self) -> None:
        assert not reference_side(0.25, 0.5, FixedBreak(0.2500001))


class TestRunJointTrial:
    def test_aligned_quantum_trials_never_agree(self) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=Z_AXIS, epsilon=1.0)
        rng = np.random.default_rng(5)
        outcomes = {reference_trial(spec, rng) for _ in range(500)}
        assert outcomes == {1, 2}

    def test_deterministic_limit_tracks_the_order(self) -> None:
        rng = np.random.default_rng(0)
        left_first = JointTestSpec(u1=Z_AXIS, u2=TILTED_HALF, epsilon=0.0)
        assert reference_trial(left_first, rng) == 1
        right_first = JointTestSpec(
            u1=Z_AXIS, u2=TILTED_HALF, epsilon=0.0, order=MeasurementOrder.RIGHT_FIRST
        )
        assert reference_trial(right_first, rng) == 2
        agreeing = JointTestSpec(u1=Z_AXIS, u2=TILTED_MINUS_HALF, epsilon=0.0)
        assert reference_trial(agreeing, rng) == 0

    def test_second_test_frequency_conditioned_on_first_yes(self) -> None:
        # dragged opposite the first eigenstate, the second projection is
        # -c, so yes arrives with probability (eps - c) / (2 eps)
        eps, c = 0.8, 0.5
        spec = JointTestSpec(u1=Z_AXIS, u2=TILTED_HALF, epsilon=eps)
        rng = np.random.default_rng(77)
        first_yes = 0
        both_yes = 0
        for _ in range(20_000):
            cell = reference_trial(spec, rng)
            # cells 0 and 1 answer yes on the left, cell 0 on both sides
            if cell < 2:
                first_yes += 1
                both_yes += cell == 0
        expected = (eps - c) / (2.0 * eps)
        bound = 4.0 * math.sqrt(expected * (1.0 - expected) / first_yes)
        assert abs(both_yes / first_yes - expected) <= bound


class TestSimulate:
    def test_rejects_bad_trial_counts_and_seeds(self) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=X_AXIS, epsilon=0.5)
        with pytest.raises(ValidationError):
            simulate(spec, 0, 1)
        with pytest.raises(ValidationError):
            simulate(spec, -5, 1)
        with pytest.raises(ValidationError):
            simulate(spec, 10, -1)

    def test_bitwise_reproducible(self) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=Direction.from_angles(1.2), epsilon=0.7)
        first = simulate(spec, 30_000, 99)
        second = simulate(spec, 30_000, 99)
        assert first == second

    def test_counts_follow_the_block_partition(self) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=Direction.from_angles(0.9), epsilon=0.6)
        trials = BLOCK_TRIALS + 1000
        _, counts = simulate(spec, trials, 31)
        c = Z_AXIS.dot(spec.u2)
        expected = _simulate_block(c, 0.6, BLOCK_TRIALS, 0, 31) + _simulate_block(c, 0.6, 1000, 1, 31)
        assert counts == tuple(int(v) for v in expected)

    def test_frequencies_sum_to_one_and_counts_to_trials(self) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=Direction.from_angles(2.0), epsilon=0.4)
        freqs, counts = simulate(spec, 12_345, 8)
        assert sum(counts) == 12_345
        assert sum(freqs.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_limit_concentrates_all_trials(self) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=TILTED_HALF, epsilon=0.0)
        freqs, counts = simulate(spec, 1000, 3)
        assert counts == (0, 1000, 0, 0)
        assert freqs.p2 == 1.0
        swapped = JointTestSpec(
            u1=Z_AXIS, u2=TILTED_HALF, epsilon=0.0, order=MeasurementOrder.RIGHT_FIRST
        )
        _, counts = simulate(swapped, 1000, 3)
        assert counts == (0, 0, 1000, 0)

    def test_quantum_aligned_never_counts_agreements(self) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=Z_AXIS, epsilon=1.0)
        _, counts = simulate(spec, 100_000, 17)
        assert counts[0] == 0
        assert counts[3] == 0

    def test_matches_analytic_distribution(self) -> None:
        u2 = Direction.from_angles(1.0)
        spec = JointTestSpec(u1=Z_AXIS, u2=u2, epsilon=0.6)
        trials = 200_000
        freqs, _ = simulate(spec, trials, 424242)
        analytic = joint_distribution_analytic(Z_AXIS, u2, 0.6)
        for observed, expected in zip(freqs.as_tuple(), analytic.as_tuple()):
            bound = 4.0 * math.sqrt(expected * (1.0 - expected) / trials)
            assert abs(observed - expected) <= bound

    def test_matches_single_trial_sampler(self) -> None:
        u2 = Direction.from_angles(2.2)
        spec = JointTestSpec(u1=Z_AXIS, u2=u2, epsilon=0.85)
        rng = np.random.default_rng(1234)
        trials = 20_000
        counts = [0, 0, 0, 0]
        for _ in range(trials):
            counts[reference_trial(spec, rng)] += 1
        analytic = joint_distribution_analytic(Z_AXIS, u2, 0.85)
        for observed, expected in zip(counts, analytic.as_tuple()):
            bound = 4.0 * math.sqrt(expected * (1.0 - expected) / trials)
            assert abs(observed / trials - expected) <= bound

    def test_order_swap_relabels_the_disagreement_cells(self) -> None:
        # same seed, swapped order: identical break points, so the x1/x4
        # counts coincide and x2/x3 trade places
        rng = np.random.default_rng(9)
        for _ in range(5):
            u1, u2 = random_direction(rng), random_direction(rng)
            eps = float(rng.uniform(0.05, 1.0))
            seed = int(rng.integers(0, 2**32))
            left = JointTestSpec(u1=u1, u2=u2, epsilon=eps, order=MeasurementOrder.LEFT_FIRST)
            right = JointTestSpec(u1=u1, u2=u2, epsilon=eps, order=MeasurementOrder.RIGHT_FIRST)
            _, counts_left = simulate(left, 30_000, seed)
            _, counts_right = simulate(right, 30_000, seed)
            assert counts_right == (counts_left[0], counts_left[2], counts_left[1], counts_left[3])

    @pytest.mark.xfail(
        strict=True,
        reason="at subnormal epsilon the uniform draw lands on exactly 0 with large mass and the tie answers yes",
    )
    def test_subnormal_epsilon_matches_analytic_distribution(self) -> None:
        u2 = Direction.from_angles(1.0)
        spec = JointTestSpec(u1=Z_AXIS, u2=u2, epsilon=5e-324)
        trials = 1000
        freqs, _ = simulate(spec, trials, 1)
        analytic = joint_distribution_analytic(Z_AXIS, u2, 5e-324)
        for observed, expected in zip(freqs.as_tuple(), analytic.as_tuple()):
            bound = 4.0 * math.sqrt(expected * (1.0 - expected) / trials)
            assert abs(observed - expected) <= bound


class InjectedDraws:
    """A random stream that hands out the given break points in order.

    Answers ``uniform(-eps, eps)`` with a scalar, as ``reference_trial``
    asks, and ``uniform(-eps, eps, n)`` with an array of n copies,
    as the block kernel asks.
    """

    def __init__(self, eps: float, draws: list[float]) -> None:
        self.eps = eps
        self.draws = list(draws)

    def uniform(self, low: float, high: float, size: int | None = None):
        assert (low, high) == (-self.eps, self.eps)
        draw = self.draws.pop(0)
        return draw if size is None else np.full(size, draw)


def edge_draws(eps: float) -> list[float]:
    """Break points -eps, 0 and +eps and the doubles on either side of each."""
    points = {math.nextafter(x, toward) for x in (-eps, 0.0, eps) for toward in (-2.0, 2.0)}
    return sorted(points | {-eps, 0.0, eps})


class TestKernelAgainstSingleTrialSampler:
    """simulate and reference_trial give the same outcome for the same break points."""

    @pytest.mark.parametrize("eps", [0.0, 5e-324, 0.25, 0.5, 1.0])
    def test_same_outcome_trial_by_trial(self, eps: float, monkeypatch: pytest.MonkeyPatch) -> None:
        kernel_stream: list[InjectedDraws] = []
        monkeypatch.setattr(singlet.np.random, "default_rng", lambda seed: kernel_stream[-1])
        draws = edge_draws(eps)
        for c in edge_cosines(eps):
            for order in MeasurementOrder:
                spec = JointTestSpec(u1=Z_AXIS, u2=axis_at(c), epsilon=eps, order=order)
                for first in draws:
                    for second in draws:
                        kernel_stream.append(InjectedDraws(eps, [first, second]))
                        _, counts = simulate(spec, 1, 0)
                        cell = reference_trial(spec, InjectedDraws(eps, [first, second]))
                        assert list(counts) == [int(i == cell) for i in range(4)], (
                            c, order, first, second
                        )


def serial_counts(spec: JointTestSpec, trials: int, seed: int) -> tuple[int, ...]:
    """Counts of simulate rebuilt one block at a time, summed in block order, relabelled by order."""
    c = spec.u1.dot(spec.u2)
    total = np.zeros(4, dtype=np.int64)
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        total += _simulate_block(c, spec.epsilon, min(BLOCK_TRIALS, trials - start), block, seed)
    x1, x2, x3, x4 = (int(v) for v in total)
    return (x1, x3, x2, x4) if spec.order is MeasurementOrder.RIGHT_FIRST else (x1, x2, x3, x4)


class TestWorkerCount:
    """Counts depend on (spec, trials, seed) alone, however many threads run the blocks."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("trials", [1000, 2 * BLOCK_TRIALS, 3 * BLOCK_TRIALS + 1234])
    @pytest.mark.parametrize("order", list(MeasurementOrder))
    @pytest.mark.parametrize(
        ("c", "eps"), [(0.3, 0.6), (0.8, 0.6), (-0.6, 0.6), (0.0, 5e-324), (-0.5, 5e-324)]
    )
    def test_counts_equal_the_serial_block_sum(
        self, c: float, eps: float, order: MeasurementOrder, trials: int, workers: int,
        monkeypatch: pytest.MonkeyPatch,
    ) -> None:
        monkeypatch.setattr(singlet, "_available_cpus", lambda: workers)
        spec = JointTestSpec(u1=Z_AXIS, u2=axis_at(c), epsilon=eps, order=order)
        freqs, counts = simulate(spec, trials, 77)
        assert counts == serial_counts(spec, trials, 77)
        assert freqs.as_tuple() == tuple(k / trials for k in counts)


    def test_more_threads_than_cores_with_a_short_switch_interval(self, monkeypatch: pytest.MonkeyPatch) -> None:
        # a block lost or run twice between threads would change the counts
        monkeypatch.setattr(singlet, "_available_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for c, seed in ((0.8, 3), (-0.8, 4), (0.3, 5)):
                spec = JointTestSpec(u1=Z_AXIS, u2=axis_at(c), epsilon=0.6)
                _, counts = simulate(spec, 20 * BLOCK_TRIALS + 5, seed)
                assert counts == serial_counts(spec, 20 * BLOCK_TRIALS + 5, seed)
        finally:
            sys.setswitchinterval(interval)


class BlockFailed(Exception):
    pass


SIMULATE_IN_CLI = (
    "import esphere.cli as cli; "
    "cli.main(['simulate', '--epsilon', '0.6', '--theta', '1.0', '--trials', '{trials}', '--seed', '1'])"
)


class TestThreadHygiene:
    def test_one_block_starts_no_thread(self, monkeypatch: pytest.MonkeyPatch) -> None:
        def refuse(*args, **kwargs):
            raise AssertionError("a one-block simulation started a thread")

        monkeypatch.setattr(singlet, "_available_cpus", lambda: 3)
        monkeypatch.setattr(threading, "Thread", refuse)
        spec = JointTestSpec(u1=Z_AXIS, u2=axis_at(0.3), epsilon=0.6)
        _, counts = simulate(spec, BLOCK_TRIALS, 5)
        assert sum(counts) == BLOCK_TRIALS

    def test_no_thread_outlives_a_multi_block_call(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setattr(singlet, "_available_cpus", lambda: 3)
        spec = JointTestSpec(u1=Z_AXIS, u2=axis_at(0.3), epsilon=0.6)
        before = threading.active_count()
        simulate(spec, 5 * BLOCK_TRIALS + 1, 5)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [{1}, {1, 2}])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_block_error_reaches_the_caller(
        self, workers: int, failing: set[int], monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # with several failing blocks, the lowest one's error is the one raised
        def fail_on_blocks(c, epsilon, n, block, seed):
            if block in failing:
                raise BlockFailed(f"block {block}")
            return _simulate_block(c, epsilon, n, block, seed)

        monkeypatch.setattr(singlet, "_available_cpus", lambda: workers)
        monkeypatch.setattr(singlet, "_simulate_block", fail_on_blocks)
        spec = JointTestSpec(u1=Z_AXIS, u2=axis_at(0.3), epsilon=0.6)
        before = threading.active_count()
        with pytest.raises(BlockFailed, match="block 1"):
            simulate(spec, 4 * BLOCK_TRIALS, 5)
        assert threading.active_count() == before

    def test_cli_import_leaves_out_concurrent_futures(self) -> None:
        src = str(Path(singlet.__file__).resolve().parents[1])
        code = "import sys, esphere.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize(
        ("code", "loaded"),
        [
            ("import esphere", False),
            (SIMULATE_IN_CLI.format(trials=10_000), False),
            # the probe itself sees the module once a run has two blocks
            (SIMULATE_IN_CLI.format(trials=BLOCK_TRIALS + 1), True),
        ],
        ids=["import-esphere", "one-block-simulate", "two-block-simulate"],
    )
    def test_package_import_and_one_block_run_leave_out_concurrent_futures(self, code: str, loaded: bool) -> None:
        src = str(Path(singlet.__file__).resolve().parents[1])
        probe = f"{code}\nimport sys; print('concurrent.futures' in sys.modules, file=sys.stderr)"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stderr.strip() == str(loaded)


# The numpy release the pinned counts below were drawn with. NEP 19 lets the
# Generator stream change between numpy versions, so elsewhere they skip.
PINNED_NUMPY = "2.4.6"


class TestSimulateGolden:
    """Counts of simulate at epsilon > 0, pinned so the stream is consumed as it always was."""

    @pytest.mark.skipif(
        np.__version__ != PINNED_NUMPY,
        reason=f"counts pinned under numpy {PINNED_NUMPY}; NEP 19 does not promise the same stream across versions",
    )
    @pytest.mark.parametrize(
        ("u2", "eps", "order", "trials", "seed", "counts"),
        [
            # interior c, one full block plus a remainder, both orders
            (Direction.from_angles(1.0), 0.6, MeasurementOrder.LEFT_FIRST, BLOCK_TRIALS + 1000, 31,
             (1657, 31483, 31692, 1704)),
            (Direction.from_angles(1.0), 0.6, MeasurementOrder.RIGHT_FIRST, BLOCK_TRIALS + 1000, 31,
             (1657, 31692, 31483, 1704)),
            # band-clamped c on either side
            (Direction.from_angles(0.5), 0.3, MeasurementOrder.LEFT_FIRST, 5000, 7, (0, 2464, 2536, 0)),
            (Direction.from_angles(2.8), 0.3, MeasurementOrder.RIGHT_FIRST, 5000, 7, (2464, 0, 0, 2536)),
            # the quantum limit, inside the band and at its edge
            (Direction.from_angles(2.0), 1.0, MeasurementOrder.RIGHT_FIRST, 10_000, 2024,
             (3554, 1455, 1486, 3505)),
            (Z_AXIS, 1.0, MeasurementOrder.LEFT_FIRST, 10_000, 2024, (0, 5040, 4960, 0)),
            # the smallest epsilon, inside the band (c = 0) and clamped
            (X_AXIS, 5e-324, MeasurementOrder.LEFT_FIRST, 1000, 1, (591, 162, 190, 57)),
            (Direction.from_angles(1.0), 5e-324, MeasurementOrder.RIGHT_FIRST, 1000, 1, (0, 247, 753, 0)),
        ],
    )
    def test_counts(
        self, u2: Direction, eps: float, order: MeasurementOrder, trials: int, seed: int, counts: tuple
    ) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=u2, epsilon=eps, order=order)
        freqs, got = simulate(spec, trials, seed)
        assert got == counts
        assert freqs.as_tuple() == tuple(k / trials for k in counts)

    @pytest.mark.parametrize("eps", [5e-324, 1e-321, 2.2e-308, 0.3, 1.0])
    def test_uniform_is_the_raw_bit_formula(self, eps: float) -> None:
        # The pinned counts rest on Generator.uniform being this formula over
        # PCG64's raw 64-bit words; NEP 19 lets numpy change it, and then this
        # test fails and names the cause.
        seq = np.random.SeedSequence(entropy=31, spawn_key=(0,))
        got = np.random.Generator(np.random.PCG64(seq)).uniform(-eps, eps, 10**5)
        raw = np.random.PCG64(seq).random_raw(10**5)
        want = -eps + (2.0 * eps) * ((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# Upper quantiles of the chi-square law at a false-alarm rate of 1e-6, by
# degrees of freedom: a correct sampler exceeds them once in a million runs.
CHI2_CRITICAL = {1: 23.928, 2: 27.631, 3: 30.665}


def pearson_chi2(counts: tuple[int, ...], probs: tuple[float, ...]) -> tuple[float, int]:
    """Pearson statistic and its degrees of freedom over the cells of nonzero probability."""
    n = sum(counts)
    assert all(k == 0 for k, p in zip(counts, probs) if p == 0.0)
    expected = [(k, n * p) for k, p in zip(counts, probs) if p > 0.0]
    return (sum((k - m) ** 2 / m for k, m in expected), len(expected) - 1)


class TestGoodnessOfFit:
    """simulate against the analytic law, one Pearson chi-square per fixed seed."""

    @pytest.mark.parametrize("order", list(MeasurementOrder))
    @pytest.mark.parametrize("eps", [0.3, 0.7, 1.0])
    # c = 0.17 lies inside every band; c = -0.80 is clamped below 1; c = +-1 always clamps
    @pytest.mark.parametrize("theta", [1.4, 2.5, 0.0, math.pi])
    def test_counts_fit_the_law(self, theta: float, eps: float, order: MeasurementOrder) -> None:
        u2 = Direction.from_angles(theta)
        spec = JointTestSpec(u1=Z_AXIS, u2=u2, epsilon=eps, order=order)
        probs = joint_distribution_analytic(Z_AXIS, u2, eps).as_tuple()
        for seed in (11, 12, 13):
            _, counts = simulate(spec, 20_000, seed)
            stat, dof = pearson_chi2(counts, probs)
            assert stat < CHI2_CRITICAL[dof], (seed, counts, probs)


class TestExperimentTriple:
    @given(directions(), directions(), positive_epsilons())
    @at_unnormalised_joint_points
    def test_marginals_are_unbiased_for_positive_epsilon(
        self, u1: Direction, u2: Direction, eps: float
    ) -> None:
        t = experiment_triple(u1, u2, eps)
        assert t.left.p_yes == 0.5
        assert t.right.p_yes == 0.5
        compatible, residuals = check_compatibility(t)
        assert compatible
        assert max(residuals) == 0.0

    def test_quantum_orthogonal_point_is_separated(self) -> None:
        t = experiment_triple(X_AXIS, Z_AXIS, 1.0)
        report = classify(t)
        assert report.compatible
        assert report.separated

    @pytest.mark.parametrize("eps", [0.25, 0.7, 1.0])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_oblique_points_are_compatible_but_not_separated(self, eps: float, theta: float) -> None:
        report = classify(experiment_triple(Z_AXIS, Direction.from_angles(theta), eps))
        assert report.compatible
        assert not report.separated

    def test_deterministic_limit_marginals_are_certain(self) -> None:
        t = experiment_triple(Z_AXIS, TILTED_HALF, 0.0)
        assert t.left.p_yes == 1.0
        assert t.right.p_yes == 1.0

    def test_deterministic_limit_positive_overlap_is_incompatible(self) -> None:
        report = classify(experiment_triple(Z_AXIS, TILTED_HALF, 0.0))
        assert not report.compatible
        assert not report.separated

    def test_deterministic_limit_nonpositive_overlap_is_separated(self) -> None:
        for u2 in (X_AXIS, TILTED_MINUS_HALF, opposite(Z_AXIS)):
            report = classify(experiment_triple(Z_AXIS, u2, 0.0))
            assert report.compatible
            assert report.separated
            assert report.classical_joint

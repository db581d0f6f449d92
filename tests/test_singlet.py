"""Rod-coupled joint tests: analytic distribution, trials, simulation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from esphere import (
    BLOCK_TRIALS,
    BlochState,
    Direction,
    JointOutcome,
    JointTestSpec,
    MeasurementOrder,
    ValidationError,
    check_compatibility,
    classify,
    experiment_triple,
    joint_distribution_analytic,
    run_joint_trial,
    simulate,
)
from esphere.singlet import _simulate_block, joint_law

from conftest import directions, positive_epsilons, random_direction

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


class TestJointOutcome:
    def test_answer_pairs(self) -> None:
        assert JointOutcome.X1.left_yes and JointOutcome.X1.right_yes
        assert JointOutcome.X2.left_yes and not JointOutcome.X2.right_yes
        assert not JointOutcome.X3.left_yes and JointOutcome.X3.right_yes
        assert not JointOutcome.X4.left_yes and not JointOutcome.X4.right_yes

    def test_round_trip_with_indices(self) -> None:
        for i, outcome in enumerate((JointOutcome.X1, JointOutcome.X2, JointOutcome.X3, JointOutcome.X4)):
            assert outcome.index == i
            assert JointOutcome.from_answers(outcome.left_yes, outcome.right_yes) is outcome


class TestJointTestSpec:
    def test_rejects_bad_epsilon(self) -> None:
        with pytest.raises(ValidationError):
            JointTestSpec(u1=Z_AXIS, u2=X_AXIS, epsilon=1.5)

    def test_rejects_bad_order(self) -> None:
        with pytest.raises(ValidationError):
            JointTestSpec(u1=Z_AXIS, u2=X_AXIS, epsilon=0.5, order="left-first")


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
            j = joint_distribution_analytic(Z_AXIS, Z_AXIS.opposite(), eps)
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


class TestRunJointTrial:
    def test_aligned_quantum_trials_never_agree(self) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=Z_AXIS, epsilon=1.0)
        rng = np.random.default_rng(5)
        outcomes = {run_joint_trial(spec, rng).outcome for _ in range(500)}
        assert outcomes <= {JointOutcome.X2, JointOutcome.X3}
        assert len(outcomes) == 2

    def test_collapsed_states_sit_on_the_test_axes(self) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=TILTED_HALF, epsilon=0.9)
        rng = np.random.default_rng(6)
        for _ in range(200):
            record = run_joint_trial(spec, rng)
            expected_left = Z_AXIS if record.outcome.left_yes else Z_AXIS.opposite()
            expected_right = TILTED_HALF if record.outcome.right_yes else TILTED_HALF.opposite()
            assert record.post_left == BlochState.from_direction(expected_left)
            assert record.post_right == BlochState.from_direction(expected_right)

    def test_deterministic_limit_tracks_the_order(self) -> None:
        rng = np.random.default_rng(0)
        left_first = JointTestSpec(u1=Z_AXIS, u2=TILTED_HALF, epsilon=0.0)
        assert run_joint_trial(left_first, rng).outcome is JointOutcome.X2
        right_first = JointTestSpec(
            u1=Z_AXIS, u2=TILTED_HALF, epsilon=0.0, order=MeasurementOrder.RIGHT_FIRST
        )
        assert run_joint_trial(right_first, rng).outcome is JointOutcome.X3
        agreeing = JointTestSpec(u1=Z_AXIS, u2=TILTED_MINUS_HALF, epsilon=0.0)
        assert run_joint_trial(agreeing, rng).outcome is JointOutcome.X1

    def test_second_test_frequency_conditioned_on_first_yes(self) -> None:
        # dragged opposite the first eigenstate, the second projection is
        # -c, so yes arrives with probability (eps - c) / (2 eps)
        eps, c = 0.8, 0.5
        spec = JointTestSpec(u1=Z_AXIS, u2=TILTED_HALF, epsilon=eps)
        rng = np.random.default_rng(77)
        first_yes = 0
        both_yes = 0
        for _ in range(20_000):
            record = run_joint_trial(spec, rng)
            if record.outcome.left_yes:
                first_yes += 1
                both_yes += record.outcome.right_yes
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
        expected = _simulate_block(spec, BLOCK_TRIALS, 0, 31) + _simulate_block(spec, 1000, 1, 31)
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
            counts[run_joint_trial(spec, rng).outcome.index] += 1
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
        for u2 in (X_AXIS, TILTED_MINUS_HALF, Z_AXIS.opposite()):
            report = classify(experiment_triple(Z_AXIS, u2, 0.0))
            assert report.compatible
            assert report.separated
            assert report.classical_joint

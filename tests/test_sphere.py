"""Single-sphere states, the elastic measurement law, and density matrices."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from esphere import (
    BlochState,
    DensityMatrix,
    Direction,
    MeasurementOutcome,
    Spinor,
    ValidationError,
    from_density_matrix,
    is_classical_test,
    outcome_probability,
    projection,
    sample_measurement,
    to_density_matrix,
)

from conftest import directions, epsilons, positive_epsilons

X_AXIS = Direction(1.0, 0.0, 0.0)
Z_AXIS = Direction(0.0, 0.0, 1.0)


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


# (epsilon, projection a, answer) where the answer is certain: the sign of a
# at epsilon = +-0 with ties going to yes, and a subnormal band's two edges.
TIE_RULE_EDGES = [
    (0.0, -1.0, "no"),
    (0.0, -5e-324, "no"),
    (0.0, -0.0, "yes"),
    (0.0, 0.0, "yes"),
    (0.0, 5e-324, "yes"),
    (0.0, 1.0, "yes"),
    (-0.0, -1.0, "no"),
    (-0.0, -5e-324, "no"),
    (-0.0, -0.0, "yes"),
    (-0.0, 0.0, "yes"),
    (-0.0, 5e-324, "yes"),
    (-0.0, 1.0, "yes"),
    (5e-324, -5e-324, "no"),
    (5e-324, 5e-324, "yes"),
]


def projecting_to(a: float) -> BlochState:
    """A state whose projection on X_AXIS is exactly a, sign of zero included."""
    s = BlochState(a, -0.0, -0.0)
    landed = projection(s, X_AXIS)
    assert landed == a and math.copysign(1.0, landed) == math.copysign(1.0, a)
    return s


def ball_states() -> st.SearchStrategy[BlochState]:
    return st.builds(
        BlochState.from_angles,
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    )


class TestDirection:
    def test_poles_and_equator(self) -> None:
        north = Direction.from_angles(0.0)
        assert (north.x, north.y, north.z) == (0.0, 0.0, 1.0)
        equator = Direction.from_angles(math.pi / 2.0, 0.0)
        assert equator.x == pytest.approx(1.0, abs=1e-15)
        assert equator.z == pytest.approx(0.0, abs=1e-15)

    @given(directions())
    def test_from_angles_is_unit(self, u: Direction) -> None:
        assert math.sqrt(u.x**2 + u.y**2 + u.z**2) == pytest.approx(1.0, abs=1e-12)

    @given(directions())
    def test_self_dot_clips_to_one(self, u: Direction) -> None:
        assert u.dot(u) <= 1.0
        assert u.dot(u) == pytest.approx(1.0, abs=1e-12)
        assert u.dot(u.opposite()) == pytest.approx(-1.0, abs=1e-12)

    def test_normalized_rescales(self) -> None:
        u = Direction.normalized(3.0, 0.0, 4.0)
        assert (u.x, u.z) == (0.6, 0.8)

    def test_rejects_non_unit(self) -> None:
        with pytest.raises(ValidationError):
            Direction(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("xyz", [("0", "0", "1"), (False, False, True), (0, 0, 1)])
    def test_stores_float_fields(self, xyz: tuple) -> None:
        u = Direction(*xyz)
        assert [type(v) for v in (u.x, u.y, u.z)] == [float] * 3
        assert (u.x, u.y, u.z) == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", ["abc", None])
    def test_rejects_non_numbers(self, bad) -> None:
        with pytest.raises(ValidationError):
            Direction(0.0, 0.0, bad)

    def test_rejects_zero_normalization(self) -> None:
        with pytest.raises(ValidationError):
            Direction.normalized(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (math.pi + 0.1, 0.0), (0.0, -0.1), (0.0, 2.0 * math.pi)])
    def test_rejects_out_of_range_angles(self, theta: float, phi: float) -> None:
        with pytest.raises(ValidationError):
            Direction.from_angles(theta, phi)


class TestBlochState:
    def test_center_has_zero_norm(self) -> None:
        assert BlochState.center().norm() == 0.0
        assert not BlochState.center().is_pure

    @given(ball_states())
    def test_from_angles_stays_in_ball(self, s: BlochState) -> None:
        assert s.norm() <= 1.0 + 1e-12

    def test_surface_point_is_pure(self) -> None:
        assert BlochState.from_direction(Z_AXIS).is_pure

    @pytest.mark.parametrize("xyz", [("0", "0", "0.5"), (False, False, True), (0, 0, 1)])
    def test_stores_float_fields(self, xyz: tuple) -> None:
        s = BlochState(*xyz)
        assert [type(v) for v in (s.x, s.y, s.z)] == [float] * 3
        assert (s.x, s.y, s.z) == tuple(float(v) for v in xyz)

    @pytest.mark.parametrize("bad", ["abc", None])
    def test_rejects_non_numbers(self, bad) -> None:
        with pytest.raises(ValidationError):
            BlochState(0.0, bad, 0.0)

    def test_rejects_outside_ball(self) -> None:
        with pytest.raises(ValidationError):
            BlochState(1.1, 0.0, 0.0)
        with pytest.raises(ValidationError):
            BlochState.from_angles(1.5, 0.0, 0.0)


class TestSpinor:
    def test_rejects_unnormalized(self) -> None:
        with pytest.raises(ValidationError):
            Spinor(1.0 + 0.0j, 1.0 + 0.0j)

    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    )
    def test_maps_to_surface_point(self, theta: float, phi: float) -> None:
        psi = Spinor.from_angles(theta, phi)
        point = psi.to_bloch()
        reference = BlochState.from_angles(1.0, theta, phi)
        assert point.x == pytest.approx(reference.x, abs=1e-12)
        assert point.y == pytest.approx(reference.y, abs=1e-12)
        assert point.z == pytest.approx(reference.z, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    )
    def test_outer_product_matches_surface_density_matrix(self, theta: float, phi: float) -> None:
        psi = Spinor.from_angles(theta, phi)
        via_state = to_density_matrix(BlochState.from_angles(1.0, theta, phi)).as_array()
        via_outer = psi.density_matrix().as_array()
        assert np.allclose(via_state, via_outer, atol=1e-12)


class TestProjection:
    def test_center_projects_to_zero(self) -> None:
        assert projection(BlochState.center(), Z_AXIS) == 0.0

    def test_aligned_pure_state_projects_to_one(self) -> None:
        assert projection(BlochState.from_direction(Z_AXIS), Z_AXIS) == 1.0

    @given(st.floats(min_value=0.0, max_value=math.pi))
    def test_surface_point_projects_to_cosine(self, theta_up: float) -> None:
        s = BlochState.from_angles(1.0, theta_up, 0.0)
        assert projection(s, Z_AXIS) == pytest.approx(math.cos(theta_up), abs=1e-12)

    @given(ball_states(), directions())
    def test_always_within_unit_interval(self, s: BlochState, u: Direction) -> None:
        assert -1.0 <= projection(s, u) <= 1.0


class TestOutcomeProbability:
    def test_quantum_limit_on_surface(self) -> None:
        for theta_up in np.linspace(0.0, math.pi, 19):
            s = BlochState.from_angles(1.0, float(theta_up), 0.0)
            probs = outcome_probability(s, Z_AXIS, 1.0)
            assert probs.p_yes == pytest.approx(math.cos(theta_up / 2.0) ** 2, abs=1e-12)
            assert probs.p_no == pytest.approx(math.sin(theta_up / 2.0) ** 2, abs=1e-12)

    @given(positive_epsilons())
    def test_center_is_unbiased_for_every_positive_epsilon(self, eps: float) -> None:
        probs = outcome_probability(BlochState.center(), Z_AXIS, eps)
        assert probs.p_yes == 0.5
        assert probs.p_no == 0.5

    def test_interpolating_branch_value(self) -> None:
        # projection 0.25 against a half-length 0.5 elastic: the break
        # point must land in [-0.5, 0.25], three quarters of the band
        s = BlochState(0.25, 0.0, 0.0)
        probs = outcome_probability(s, X_AXIS, 0.5)
        assert probs.p_yes == pytest.approx(0.75, abs=1e-12)

    def test_certainty_outside_the_band(self) -> None:
        up = BlochState.from_direction(Z_AXIS)
        assert outcome_probability(up, Z_AXIS, 0.3).p_yes == 1.0
        down = BlochState.from_direction(Z_AXIS.opposite())
        assert outcome_probability(down, Z_AXIS, 0.3).p_yes == 0.0

    def test_band_edges_are_certain(self) -> None:
        at_edge = BlochState(0.5, 0.0, 0.0)
        assert outcome_probability(at_edge, X_AXIS, 0.5).p_yes == 1.0
        at_other_edge = BlochState(-0.5, 0.0, 0.0)
        assert outcome_probability(at_other_edge, X_AXIS, 0.5).p_yes == 0.0

    def test_deterministic_limit_follows_sign_with_yes_ties(self) -> None:
        assert outcome_probability(BlochState(0.2, 0.0, 0.0), X_AXIS, 0.0).p_yes == 1.0
        assert outcome_probability(BlochState(-0.2, 0.0, 0.0), X_AXIS, 0.0).p_yes == 0.0
        assert outcome_probability(BlochState.center(), X_AXIS, 0.0).p_yes == 1.0

    @pytest.mark.parametrize("eps,a,answer", TIE_RULE_EDGES)
    def test_tie_rule_at_its_edges(self, eps: float, a: float, answer: str) -> None:
        probs = outcome_probability(projecting_to(a), X_AXIS, eps)
        expected = (1.0, 0.0) if answer == "yes" else (0.0, 1.0)
        assert (probs.p_yes, probs.p_no) == expected

    @given(ball_states(), directions())
    def test_deterministic_limit_is_always_classical(self, s: BlochState, u: Direction) -> None:
        assert is_classical_test(outcome_probability(s, u, 0.0))

    @given(ball_states(), directions(), epsilons())
    def test_yes_and_no_sum_to_one_exactly(self, s: BlochState, u: Direction, eps: float) -> None:
        probs = outcome_probability(s, u, eps)
        assert probs.p_yes + probs.p_no == 1.0

    def test_monotone_in_projection(self) -> None:
        values = [
            outcome_probability(BlochState(a, 0.0, 0.0), X_AXIS, 0.8).p_yes
            for a in np.linspace(-0.79, 0.79, 41)
        ]
        assert all(earlier < later for earlier, later in zip(values, values[1:]))

    def test_monotone_in_epsilon_for_positive_projection(self) -> None:
        s = BlochState(0.3, 0.0, 0.0)
        values = [outcome_probability(s, X_AXIS, eps).p_yes for eps in (0.4, 0.6, 0.8, 1.0)]
        assert all(earlier > later for earlier, later in zip(values, values[1:]))

    def test_rejects_out_of_range_epsilon(self) -> None:
        with pytest.raises(ValidationError):
            outcome_probability(BlochState.center(), Z_AXIS, 1.5)


class TestSampleMeasurement:
    def test_certain_regions_skip_the_draw(self) -> None:
        up = BlochState.from_direction(Z_AXIS)
        outcome, post = sample_measurement(up, Z_AXIS, 0.5, Exploding())
        assert outcome is MeasurementOutcome.YES
        assert post == up
        outcome, post = sample_measurement(BlochState.center(), Z_AXIS, 0.0, Exploding())
        assert outcome is MeasurementOutcome.YES

    @pytest.mark.parametrize("eps,a,answer", TIE_RULE_EDGES)
    def test_tie_rule_edges_skip_the_draw(self, eps: float, a: float, answer: str) -> None:
        outcome, post = sample_measurement(projecting_to(a), X_AXIS, eps, Exploding())
        assert outcome is MeasurementOutcome(answer)
        axis = X_AXIS if answer == "yes" else X_AXIS.opposite()
        assert post == BlochState.from_direction(axis)

    def test_break_at_projection_point_answers_yes(self) -> None:
        s = BlochState(0.25, 0.0, 0.0)
        outcome, post = sample_measurement(s, X_AXIS, 0.5, FixedBreak(0.25))
        assert outcome is MeasurementOutcome.YES
        assert post == BlochState.from_direction(X_AXIS)

    def test_break_above_projection_point_answers_no(self) -> None:
        s = BlochState(0.25, 0.0, 0.0)
        outcome, post = sample_measurement(s, X_AXIS, 0.5, FixedBreak(0.2500001))
        assert outcome is MeasurementOutcome.NO
        assert post == BlochState.from_direction(X_AXIS.opposite())

    def test_collapse_targets_are_the_axis_endpoints(self) -> None:
        rng = np.random.default_rng(11)
        for _ in range(50):
            outcome, post = sample_measurement(BlochState.center(), Z_AXIS, 0.7, rng)
            if outcome is MeasurementOutcome.YES:
                assert (post.x, post.y, post.z) == (0.0, 0.0, 1.0)
            else:
                assert (post.x, post.y, post.z) == (0.0, 0.0, -1.0)

    @pytest.mark.parametrize(
        "state,eps",
        [
            (BlochState.center(), 0.7),
            (BlochState(0.25, 0.0, 0.0), 0.5),
            (BlochState.from_angles(1.0, 2.0, 1.0), 1.0),
        ],
    )
    def test_empirical_frequency_matches_analytic_law(self, state: BlochState, eps: float) -> None:
        trials = 100_000
        rng = np.random.default_rng(2024)
        yes = sum(
            sample_measurement(state, X_AXIS, eps, rng)[0] is MeasurementOutcome.YES
            for _ in range(trials)
        )
        p = outcome_probability(state, X_AXIS, eps).p_yes
        bound = 4.0 * math.sqrt(p * (1.0 - p) / trials)
        assert abs(yes / trials - p) <= bound


class TestDensityMatrix:
    def test_center_maps_to_half_identity(self) -> None:
        d = to_density_matrix(BlochState.center())
        assert np.allclose(d.as_array(), 0.5 * np.eye(2), atol=0.0)

    def test_north_pole_maps_to_projector(self) -> None:
        d = to_density_matrix(BlochState.from_angles(1.0, 0.0, 0.0))
        assert np.allclose(d.as_array(), np.diag([1.0, 0.0]), atol=1e-15)

    @given(ball_states())
    def test_structure_and_spectrum(self, s: BlochState) -> None:
        d = to_density_matrix(s)
        matrix = d.as_array()
        assert np.allclose(matrix, matrix.conj().T, atol=1e-12)
        assert abs(np.trace(matrix).real - 1.0) <= 1e-12
        r = s.norm()
        low, high = sorted(np.linalg.eigvalsh(matrix))
        assert abs(low - (1.0 - r) / 2.0) <= 1e-10
        assert abs(high - (1.0 + r) / 2.0) <= 1e-10
        own_high, own_low = d.eigenvalues()
        assert abs(own_low - low) <= 1e-10
        assert abs(own_high - high) <= 1e-10

    def test_idempotent_exactly_for_pure_states(self) -> None:
        pure = to_density_matrix(BlochState.from_angles(1.0, 1.1, 2.2)).as_array()
        assert np.max(np.abs(pure @ pure - pure)) <= 1e-10
        mixed = to_density_matrix(BlochState.from_angles(0.5, 1.1, 2.2)).as_array()
        assert np.max(np.abs(mixed @ mixed - mixed)) > 1e-3

    @given(ball_states())
    def test_round_trip(self, s: BlochState) -> None:
        back = from_density_matrix(to_density_matrix(s))
        assert abs(back.x - s.x) <= 1e-10
        assert abs(back.y - s.y) <= 1e-10
        assert abs(back.z - s.z) <= 1e-10

    def test_half_identity_round_trips_to_center(self) -> None:
        d = DensityMatrix.from_array(0.5 * np.eye(2))
        assert from_density_matrix(d) == BlochState.center()

    def test_diag_projector_round_trips_to_north_pole(self) -> None:
        d = DensityMatrix.from_array(np.diag([1.0, 0.0]))
        back = from_density_matrix(d)
        assert (back.x, back.y, back.z) == (0.0, 0.0, 1.0)

    def test_rejects_non_hermitian(self) -> None:
        with pytest.raises(ValidationError):
            DensityMatrix.from_array(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_rejects_wrong_trace(self) -> None:
        with pytest.raises(ValidationError):
            DensityMatrix.from_array(np.array([[0.7, 0.0], [0.0, 0.5]]))

    def test_rejects_indefinite_matrix(self) -> None:
        with pytest.raises(ValidationError):
            DensityMatrix.from_array(np.diag([1.5, -0.5]))

    def test_rejects_wrong_shape(self) -> None:
        with pytest.raises(ValidationError):
            DensityMatrix.from_array(np.eye(3))

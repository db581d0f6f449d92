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
    ValidationError,
    from_density_matrix,
    is_classical_test,
    outcome_probability,
    projection,
    to_density_matrix,
)

from conftest import TIE_RULE_EDGES, directions, epsilons, opposite, positive_epsilons

X_AXIS = Direction(1.0, 0.0, 0.0)
Z_AXIS = Direction(0.0, 0.0, 1.0)


def projecting_to(a: float) -> BlochState:
    """A state whose projection on X_AXIS is exactly a, sign of zero included."""
    s = BlochState(a, -0.0, -0.0)
    landed = projection(s, X_AXIS)
    assert landed == a and math.copysign(1.0, landed) == math.copysign(1.0, a)
    return s


def as_array(d: DensityMatrix) -> np.ndarray:
    return np.array([[d.d00, d.d01], [d.d10, d.d11]])


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
        assert u.dot(opposite(u)) == pytest.approx(-1.0, abs=1e-12)

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

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (math.pi + 0.1, 0.0), (0.0, -0.1), (0.0, 2.0 * math.pi)])
    def test_rejects_out_of_range_angles(self, theta: float, phi: float) -> None:
        with pytest.raises(ValidationError):
            Direction.from_angles(theta, phi)


class TestBlochState:
    def test_center_has_zero_norm(self) -> None:
        assert BlochState.center().norm() == 0.0

    @given(ball_states())
    def test_from_angles_stays_in_ball(self, s: BlochState) -> None:
        assert s.norm() <= 1.0 + 1e-12

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


class TestProjection:
    def test_center_projects_to_zero(self) -> None:
        assert projection(BlochState.center(), Z_AXIS) == 0.0

    def test_aligned_pure_state_projects_to_one(self) -> None:
        assert projection(BlochState(0.0, 0.0, 1.0), Z_AXIS) == 1.0

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
        up = BlochState(0.0, 0.0, 1.0)
        assert outcome_probability(up, Z_AXIS, 0.3).p_yes == 1.0
        down = BlochState(0.0, 0.0, -1.0)
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


class TestDensityMatrix:
    def test_center_maps_to_half_identity(self) -> None:
        d = to_density_matrix(BlochState.center())
        assert np.allclose(as_array(d), 0.5 * np.eye(2), atol=0.0)

    def test_north_pole_maps_to_projector(self) -> None:
        d = to_density_matrix(BlochState.from_angles(1.0, 0.0, 0.0))
        assert np.allclose(as_array(d), np.diag([1.0, 0.0]), atol=1e-15)

    @given(ball_states())
    def test_structure_and_spectrum(self, s: BlochState) -> None:
        d = to_density_matrix(s)
        matrix = as_array(d)
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
        pure = as_array(to_density_matrix(BlochState.from_angles(1.0, 1.1, 2.2)))
        assert np.max(np.abs(pure @ pure - pure)) <= 1e-10
        mixed = as_array(to_density_matrix(BlochState.from_angles(0.5, 1.1, 2.2)))
        assert np.max(np.abs(mixed @ mixed - mixed)) > 1e-3

    @given(ball_states())
    def test_round_trip(self, s: BlochState) -> None:
        back = from_density_matrix(to_density_matrix(s))
        assert abs(back.x - s.x) <= 1e-10
        assert abs(back.y - s.y) <= 1e-10
        assert abs(back.z - s.z) <= 1e-10

    def test_half_identity_round_trips_to_center(self) -> None:
        d = DensityMatrix(0.5, 0.0, 0.0, 0.5)
        assert from_density_matrix(d) == BlochState.center()

    def test_diag_projector_round_trips_to_north_pole(self) -> None:
        d = DensityMatrix(1.0, 0.0, 0.0, 0.0)
        back = from_density_matrix(d)
        assert (back.x, back.y, back.z) == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("entries", [(1, 0, 0, 0), ("1", "0", "0", "0"), (True, False, False, False)])
    def test_stores_complex_entries(self, entries: tuple) -> None:
        d = DensityMatrix(*entries)
        assert [type(v) for v in (d.d00, d.d01, d.d10, d.d11)] == [complex] * 4
        assert (d.d00, d.d01, d.d10, d.d11) == (1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("entries", [("a", 0, 0, 0), (None, 0, 0, 1), (0.5, 0, [], 0.5)])
    def test_rejects_non_numbers(self, entries: tuple) -> None:
        with pytest.raises(ValidationError):
            DensityMatrix(*entries)

    def test_rejects_non_hermitian(self) -> None:
        with pytest.raises(ValidationError):
            DensityMatrix(0.5, 0.3, 0.1, 0.5)

    def test_rejects_wrong_trace(self) -> None:
        with pytest.raises(ValidationError):
            DensityMatrix(0.7, 0.0, 0.0, 0.5)

    def test_rejects_indefinite_matrix(self) -> None:
        with pytest.raises(ValidationError):
            DensityMatrix(1.5, 0.0, 0.0, -0.5)

"""Tests for correlations, CHSH values, and the classification scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esphere import (
    CANONICAL_CHSH_ANGLES,
    ChshSetup,
    Direction,
    Tolerance,
    ValidationError,
    chsh,
    classify,
    correlation,
    experiment_triple,
    scan,
)

from conftest import directions, epsilons

X_AXIS = Direction(1.0, 0.0, 0.0)
Z_AXIS = Direction(0.0, 0.0, 1.0)

SQRT2 = math.sqrt(2.0)


def correlation_closed_form(u1: Direction, u2: Direction, epsilon: float) -> float:
    """Oracle: the singlet correlation law written without the four-outcome detour.

    Independent of :func:`correlation`, which goes through the joint
    distribution; the two routes are checked against each other below.
    """
    c = u1.dot(u2)
    if epsilon == 0.0:
        return 1.0 if c <= 0.0 else -1.0
    return max(-1.0, min(1.0, -c / epsilon))


class TestCorrelation:
    @given(u1=directions(), u2=directions(), epsilon=epsilons())
    def test_two_routes_agree(self, u1, u2, epsilon):
        a = correlation(u1, u2, epsilon)
        b = correlation_closed_form(u1, u2, epsilon)
        assert a == pytest.approx(b, abs=1e-12)

    @given(u1=directions(), u2=directions())
    def test_zero_epsilon_routes_agree_exactly(self, u1, u2):
        assert correlation(u1, u2, 0.0) == correlation_closed_form(u1, u2, 0.0)

    def test_quantum_limit_is_minus_cosine(self):
        pole = Direction.from_angles(0.0)
        for theta in np.linspace(0.0, math.pi, 19):
            u2 = Direction.from_angles(float(theta))
            expected = -pole.dot(u2)
            assert correlation(pole, u2, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_axes_give_exact_zero(self):
        # X.Z is 0.0 in floating point, so E must be the exact 0.0 too.
        assert correlation(X_AXIS, Z_AXIS, 1.0) == 0.0
        assert correlation(X_AXIS, Z_AXIS, 0.25) == 0.0

    def test_saturates_outside_the_band(self):
        u2 = Direction.from_angles(math.pi / 3.0)  # c = 0.5
        pole = Direction.from_angles(0.0)
        assert correlation(pole, u2, 0.5) == -1.0
        assert correlation(pole, u2.opposite(), 0.5) == 1.0

    def test_zero_epsilon_signs(self):
        for route in (correlation, correlation_closed_form):
            assert route(Z_AXIS, Z_AXIS, 0.0) == -1.0
            assert route(Z_AXIS, Z_AXIS.opposite(), 0.0) == 1.0
            # c = 0 counts as c <= 0: the dragged projection ties at zero and
            # the tie resolves to yes, concentrating the joint on x1.
            assert route(X_AXIS, Z_AXIS, 0.0) == 1.0

    @given(u1=directions(), u2=directions(), epsilon=epsilons())
    def test_bounded_by_one(self, u1, u2, epsilon):
        assert -1.0 <= correlation(u1, u2, epsilon) <= 1.0

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            correlation(X_AXIS, Z_AXIS, 1.5)
        with pytest.raises(ValidationError):
            correlation(X_AXIS, Z_AXIS, -0.1)


class TestChsh:
    def test_canonical_angles_constant(self):
        assert CANONICAL_CHSH_ANGLES == (
            0.0,
            0.5 * math.pi,
            0.25 * math.pi,
            0.75 * math.pi,
        )

    def test_quantum_value_at_unit_epsilon(self):
        result = chsh(ChshSetup.coplanar(1.0))
        assert result.s == pytest.approx(2.0 * SQRT2, abs=1e-9)

    def test_algebraic_maximum_at_zero_epsilon(self):
        result = chsh(ChshSetup.coplanar(0.0))
        assert result.s == 4.0

    def test_component_correlations_at_unit_epsilon(self):
        result = chsh(ChshSetup.coplanar(1.0))
        inv_sqrt2 = 1.0 / SQRT2
        assert result.e_ab == pytest.approx(-inv_sqrt2, abs=1e-12)
        assert result.e_ab_prime == pytest.approx(inv_sqrt2, abs=1e-12)
        assert result.e_a_prime_b == pytest.approx(-inv_sqrt2, abs=1e-12)
        assert result.e_a_prime_b_prime == pytest.approx(-inv_sqrt2, abs=1e-12)

    def test_identical_settings_give_two(self):
        setup = ChshSetup.coplanar(1.0, a=0.0, a_prime=0.0, b=0.0, b_prime=0.0)
        # E(a,b) = -1 for aligned settings, so S = |-1 + 1 - 1 - 1| = 2.
        assert chsh(setup).s == 2.0

    def test_law_on_epsilon_grid(self):
        for eps in np.linspace(0.1, 1.0, 10):
            eps = float(eps)
            expected = min(4.0, 2.0 * SQRT2 / eps)
            assert chsh(ChshSetup.coplanar(eps)).s == pytest.approx(
                expected, abs=1e-9
            ), eps

    def test_saturation_threshold(self):
        # 2*sqrt(2)/epsilon crosses 4 at epsilon = sqrt(2)/2.
        assert chsh(ChshSetup.coplanar(SQRT2 / 2.0)).s == pytest.approx(4.0, abs=1e-9)
        assert chsh(ChshSetup.coplanar(0.5)).s == 4.0

    def test_never_exceeds_algebraic_bound(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            a, ap, b, bp = rng.uniform(0.0, math.pi, size=4)
            eps = float(rng.uniform(0.0, 1.0))
            setup = ChshSetup.coplanar(eps, a=a, a_prime=ap, b=b, b_prime=bp)
            assert chsh(setup).s <= 4.0 + 1e-12

    def test_unit_epsilon_never_exceeds_quantum_bound(self):
        rng = np.random.default_rng(20240818)
        for _ in range(200):
            a, ap, b, bp = rng.uniform(0.0, math.pi, size=4)
            setup = ChshSetup.coplanar(1.0, a=a, a_prime=ap, b=b, b_prime=bp)
            assert chsh(setup).s <= 2.0 * SQRT2 + 1e-9

    def test_setup_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            ChshSetup.coplanar(1.2)


class TestScan:
    def test_grid_shape_and_order(self):
        eps_grid = [0.5, 1.0]
        theta_grid = [0.0, math.pi / 2.0, math.pi]
        rows = scan(eps_grid, theta_grid)
        assert len(rows) == 6
        assert [r["epsilon"] for r in rows] == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
        assert [r["theta"] for r in rows] == theta_grid * 2

    def test_rows_match_direct_classification(self):
        pole = Direction.from_angles(0.0)
        for row in scan([0.25, 1.0], list(np.linspace(0.0, math.pi, 13))):
            u2 = Direction.from_angles(row["theta"])
            triple = experiment_triple(pole, u2, row["epsilon"])
            report = classify(triple)
            j = triple.joint
            assert (row["p1"], row["p2"], row["p3"], row["p4"]) == j.as_tuple()
            assert row["E"] == (j.p1 + j.p4) - (j.p2 + j.p3)
            assert row["compatible"] == report.compatible
            assert row["separated"] == report.separated
            assert row["classical_joint"] == report.classical_joint

    def test_positive_epsilon_landscape(self):
        thetas = list(np.linspace(0.0, math.pi, 181))
        rows = scan([0.25, 0.5, 0.75, 1.0], thetas)
        for i, row in enumerate(rows):
            assert row["compatible"]
            assert not row["classical_joint"]
            # The separability residual is |c| / 4: far above tolerance
            # everywhere except the orthogonal midpoint, where the
            # floating-point cosine is ~1e-17.
            at_midpoint = i % len(thetas) == 90
            assert row["separated"] == at_midpoint, (row["epsilon"], row["theta"])

    def test_orthogonal_column_is_separated(self):
        rows = scan([0.25, 0.5, 0.75, 1.0], [0.0, math.pi / 2.0, math.pi])
        for r in rows:
            assert r["compatible"]
            assert r["separated"] == (r["theta"] == math.pi / 2.0), (r["epsilon"], r["theta"])

    def test_zero_epsilon_landscape(self):
        thetas = list(np.linspace(0.0, math.pi, 181))
        rows = scan([0.0], thetas)
        pole = Direction.from_angles(0.0)
        for row in rows:
            c = pole.dot(Direction.from_angles(row["theta"]))
            expected = c <= 0.0
            assert row["compatible"] == expected
            assert row["separated"] == expected
            assert row["classical_joint"]  # point mass either way

    def test_band_boundary_row(self):
        rows = scan([0.5], [math.pi / 3.0])
        (row,) = rows
        assert (row["p1"], row["p2"], row["p3"], row["p4"]) == (0.0, 0.5, 0.5, 0.0)
        assert row["compatible"]
        assert not row["separated"]
        assert row["E"] == -1.0

    def test_tolerance_is_configurable(self):
        # Residual |c| / 4 ~ 0.0025 here: above the default tolerance,
        # below a loose one.
        theta = math.pi / 2.0 + 0.01
        assert not scan([1.0], [theta])[0]["separated"]
        assert scan([1.0], [theta], tol=Tolerance(eps_prob=1e-2))[0]["separated"]

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValidationError):
            scan([1.5], [0.0])
        with pytest.raises(ValidationError):
            scan([1.0], [-0.1])
        with pytest.raises(ValidationError):
            scan([1.0], [math.pi + 0.1])
        with pytest.raises(ValidationError):
            scan([1.0], [math.nan])


class TestScanRowCorrelationIdentity:
    @given(
        epsilon=epsilons(),
        theta=st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_correlation_equals_outcome_combination(self, epsilon, theta):
        (row,) = scan([epsilon], [theta])
        assert row["E"] == (row["p1"] + row["p4"]) - (row["p2"] + row["p3"])

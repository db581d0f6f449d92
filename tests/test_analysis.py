"""Tests for correlations, CHSH values, and the classification scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esphere import (
    CANONICAL_CHSH_ANGLES,
    DEFAULT_TOLERANCE,
    ChshSetup,
    Direction,
    Tolerance,
    ValidationError,
    chsh,
    classification_row,
    classify,
    correlation,
    experiment_triple,
    scan,
)
from esphere import validation

from conftest import directions, epsilons, opposite, random_direction

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
        assert correlation(pole, opposite(u2), 0.5) == 1.0

    def test_zero_epsilon_signs(self):
        for route in (correlation, correlation_closed_form):
            assert route(Z_AXIS, Z_AXIS, 0.0) == -1.0
            assert route(Z_AXIS, opposite(Z_AXIS), 0.0) == 1.0
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

    @pytest.mark.parametrize("field", ["a", "a_prime", "b", "b_prime"])
    def test_setup_rejects_non_directions(self, field):
        settings = dict(a=Z_AXIS, a_prime=X_AXIS, b=Z_AXIS, b_prime=X_AXIS, epsilon=0.5)
        with pytest.raises(ValidationError):
            ChshSetup(**{**settings, field: None})


class TestScan:
    def test_grid_shape_and_order(self):
        eps_grid = [0.5, 1.0]
        theta_grid = [0.0, math.pi / 2.0, math.pi]
        cols = scan(eps_grid, theta_grid)
        assert len(cols["epsilon"]) == 6
        assert cols["epsilon"].tolist() == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
        assert cols["theta"].tolist() == theta_grid * 2

    def test_rows_match_direct_classification(self):
        pole = Direction.from_angles(0.0)
        cols = scan([0.25, 1.0], list(np.linspace(0.0, math.pi, 13)))
        for k in range(len(cols["epsilon"])):
            u2 = Direction.from_angles(cols["theta"][k])
            triple = experiment_triple(pole, u2, cols["epsilon"][k])
            report = classify(triple)
            j = triple.joint
            assert (cols["p1"][k], cols["p2"][k], cols["p3"][k], cols["p4"][k]) == j.as_tuple()
            assert cols["E"][k] == (j.p1 + j.p4) - (j.p2 + j.p3)
            assert cols["compatible"][k] == report.compatible
            assert cols["separated"][k] == report.separated
            assert cols["classical_joint"][k] == report.classical_joint

    def test_positive_epsilon_landscape(self):
        thetas = list(np.linspace(0.0, math.pi, 181))
        cols = scan([0.25, 0.5, 0.75, 1.0], thetas)
        for i in range(len(cols["epsilon"])):
            assert cols["compatible"][i]
            assert not cols["classical_joint"][i]
            # The separability residual is |c| / 4: far above tolerance
            # everywhere except the orthogonal midpoint, where the
            # floating-point cosine is ~1e-17.
            at_midpoint = i % len(thetas) == 90
            assert cols["separated"][i] == at_midpoint, (cols["epsilon"][i], cols["theta"][i])

    def test_orthogonal_column_is_separated(self):
        cols = scan([0.25, 0.5, 0.75, 1.0], [0.0, math.pi / 2.0, math.pi])
        for k in range(len(cols["epsilon"])):
            assert cols["compatible"][k]
            assert cols["separated"][k] == (cols["theta"][k] == math.pi / 2.0), (cols["epsilon"][k], cols["theta"][k])

    def test_orthogonal_column_is_not_separated_below_c_over_4_tol(self):
        # cos(fl(pi/2)) is not 0, and the separability residual is
        # |c| / (4 epsilon), so theta = fl(pi/2) is separated only while
        # epsilon >= c / (4 tol), about 1.53e-8 at the default tolerance.
        theta = math.pi / 2.0
        c = Direction.from_angles(0.0).dot(Direction.from_angles(theta))
        assert c == 6.123233995736766e-17
        threshold = c / (4.0 * DEFAULT_TOLERANCE.eps_prob)
        assert 1.5e-8 < threshold < 1.6e-8
        epsilons = [1.6e-8, threshold * 1.001, threshold * 0.999, 1.5e-8, 1e-9]
        cols = scan(epsilons, [theta])
        rows = [classification_row(e, theta, Direction.from_angles(0.0), Direction.from_angles(theta)) for e in epsilons]
        assert cols["compatible"].tolist() == [row["compatible"] for row in rows] == [True] * 5
        assert cols["separated"].tolist() == [row["separated"] for row in rows] == [True, True, False, False, False]

    def test_zero_epsilon_landscape(self):
        thetas = list(np.linspace(0.0, math.pi, 181))
        cols = scan([0.0], thetas)
        pole = Direction.from_angles(0.0)
        for k in range(len(cols["epsilon"])):
            c = pole.dot(Direction.from_angles(cols["theta"][k]))
            expected = c <= 0.0
            assert cols["compatible"][k] == expected
            assert cols["separated"][k] == expected
            assert cols["classical_joint"][k]  # point mass either way

    def test_band_boundary_row(self):
        cols = scan([0.5], [math.pi / 3.0])
        assert len(cols["epsilon"]) == 1
        assert (cols["p1"][0], cols["p2"][0], cols["p3"][0], cols["p4"][0]) == (0.0, 0.5, 0.5, 0.0)
        assert cols["compatible"][0]
        assert not cols["separated"][0]
        assert cols["E"][0] == -1.0

    def test_tolerance_is_configurable(self):
        # Residual |c| / 4 ~ 0.0025 here: above the default tolerance,
        # below a loose one.
        theta = math.pi / 2.0 + 0.01
        assert not scan([1.0], [theta])["separated"][0]
        assert scan([1.0], [theta], tol=Tolerance(eps_prob=1e-2))["separated"][0]

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValidationError):
            scan([1.5], [0.0])
        with pytest.raises(ValidationError):
            scan([1.0], [-0.1])
        with pytest.raises(ValidationError):
            scan([1.0], [math.pi + 0.1])
        with pytest.raises(ValidationError):
            scan([1.0], [math.nan])

    def test_refuses_a_grid_above_the_cap(self):
        with pytest.raises(ValidationError, match="scan grid of 1001000 points exceeds the limit of 1000000"):
            scan([0.5] * 1001, [0.0] * 1000)

    def test_accepts_a_grid_at_the_cap_and_refuses_one_above(self, monkeypatch):
        monkeypatch.setattr(validation, "MAX_GRID_POINTS", 6)
        assert len(scan([0.5, 1.0], [0.0, 1.0, 2.0])["epsilon"]) == 6
        with pytest.raises(ValidationError, match="exceeds the limit of 6"):
            scan([0.5, 1.0], [0.0, 1.0, 2.0, 3.0])


SCHEMA = ["epsilon", "theta", "p1", "p2", "p3", "p4", "E", "compatible", "separated", "classical_joint"]


def reference_row(epsilon, theta, u1, u2, tol):
    """One landscape row from the scalar public path: experiment_triple, classify and E."""
    triple = experiment_triple(u1, u2, epsilon)
    report = classify(triple, tol)
    p1, p2, p3, p4 = triple.joint.as_tuple()
    return {
        "epsilon": epsilon,
        "theta": theta,
        "p1": p1,
        "p2": p2,
        "p3": p3,
        "p4": p4,
        "E": (p1 + p4) - (p2 + p3),
        "compatible": report.compatible,
        "separated": report.separated,
        "classical_joint": report.classical_joint,
    }


def assert_same_row(got, want):
    """Same keys in the same order, same types, and floats equal bit for bit (repr tells -0.0 from 0.0)."""
    assert list(got) == list(want) == SCHEMA
    for key in SCHEMA:
        assert type(got[key]) is type(want[key]), key
        assert repr(got[key]) == repr(want[key]), key


def assert_columns_match_rows(epsilons, thetas, tol):
    """scan's columns equal the scalar path's rows at every grid point, bit for bit."""
    cols = scan(epsilons, thetas, tol)
    pole = Direction.from_angles(0.0)
    axes = [Direction.from_angles(t) for t in thetas]
    rows = [reference_row(e, t, pole, u2, tol) for e in epsilons for t, u2 in zip(thetas, axes)]
    assert list(cols) == SCHEMA
    for key, column in cols.items():
        want = np.array([row[key] for row in rows])
        assert column.dtype == want.dtype, key
        if column.dtype.kind == "f":
            column, want = column.view(np.uint64), want.view(np.uint64)
        np.testing.assert_array_equal(column, want, err_msg=key)


def exact_theta(c: float) -> float:
    """acos(c), or a theta within 4 ulps of it whose coplanar dot product is exactly c."""
    pole = Direction.from_angles(0.0)
    theta = math.acos(c)
    candidates = [theta]
    for toward in (0.0, math.pi):
        t = theta
        for _ in range(4):
            t = math.nextafter(t, toward)
            candidates.append(t)
    hits = [t for t in candidates if pole.dot(Direction.from_angles(t)) == c]
    return hits[0] if hits else theta


class TestScanColumns:
    @pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-2])
    def test_full_grid_matches_classification_row(self, tol):
        epsilons = [round(i * 0.01, 2) for i in range(101)]
        assert_columns_match_rows(epsilons, np.linspace(0.0, math.pi, 1001).tolist(), Tolerance(tol))

    # at 0.25, 0.5 and 1 some residuals, or 1 - max(p), equal the tolerance exactly
    @pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-2, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("eps", [0.0, 5e-324, 1e-300, 0.25, 0.3, 0.5, 1.0])
    def test_edge_points_match_classification_row(self, eps, tol):
        thetas = [-0.0, 0.0, math.pi / 2.0, math.pi]
        for c in (eps, -eps):
            t = exact_theta(c)
            thetas += [t, math.nextafter(t, 0.0), math.nextafter(t, math.pi)]
        assert_columns_match_rows([eps], thetas, tol)
        pole = Direction.from_angles(0.0)
        for t in thetas:
            u2 = Direction.from_angles(t)
            assert_same_row(classification_row(eps, t, pole, u2, tol), reference_row(eps, t, pole, u2, tol))

    @pytest.mark.parametrize("tol", [1e-9, 0.25])
    @pytest.mark.parametrize("eps", [-0.0, 0.0, 5e-324, 0.25, 0.7, 1.0])
    def test_classification_row_off_the_plane(self, eps, tol):
        rng = np.random.default_rng(20240819)
        pairs = [(random_direction(rng), random_direction(rng)) for _ in range(20)]
        pairs += [(X_AXIS, Z_AXIS), (Z_AXIS, opposite(Z_AXIS)), (Direction.from_angles(0.3, 1.0), Direction.from_angles(2.0, 4.0))]
        for u1, u2 in pairs:
            theta = math.acos(u1.dot(u2))
            assert_same_row(classification_row(eps, theta, u1, u2, tol), reference_row(eps, theta, u1, u2, tol))

    @pytest.mark.parametrize("theta", [math.nan, "x", -0.1, math.pi + 0.1])
    def test_classification_row_rejects_bad_theta(self, theta):
        with pytest.raises(ValidationError):
            classification_row(0.5, theta, Z_AXIS, X_AXIS)

    @pytest.mark.parametrize("epsilon", [math.nan, "x", -0.1, 1.5])
    def test_classification_row_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValidationError):
            classification_row(epsilon, 0.5, Z_AXIS, X_AXIS)

    def test_edge_thetas_reach_c_equal_to_plus_and_minus_epsilon(self):
        pole = Direction.from_angles(0.0)
        for c in (0.25, -0.3, 1.0, -1.0):
            assert pole.dot(Direction.from_angles(exact_theta(c))) == c

    def test_empty_grid_gives_empty_columns(self):
        cols = scan([], [0.0])
        assert list(cols) == SCHEMA
        assert all(len(column) == 0 for column in cols.values())


class TestScanRowCorrelationIdentity:
    @given(
        epsilon=epsilons(),
        theta=st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_correlation_equals_outcome_combination(self, epsilon, theta):
        cols = scan([epsilon], [theta])
        assert len(cols["epsilon"]) == 1
        assert cols["E"][0] == (cols["p1"][0] + cols["p4"][0]) - (cols["p2"][0] + cols["p3"][0])

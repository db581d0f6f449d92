"""Correlations, CHSH values, and classification scans over the model grid.

The correlation of a joint test is E = p1 + p4 - p2 - p3. For the singlet
preparation it collapses to a one-parameter law: with c = u1 . u2,

    E = clamp(-c / epsilon, -1, +1)      for epsilon > 0
    E = +1 if c <= 0 else -1             for epsilon = 0

so epsilon = 1 gives the quantum singlet correlation -c and smaller
epsilon steepens the curve until it saturates. Plugging the law into the
CHSH combination at the canonical coplanar angles gives

    S(epsilon) = min(4, 2 * sqrt(2) / epsilon)

interpolating from the quantum value 2*sqrt(2) at epsilon = 1 up to the
algebraic maximum 4 reached for every epsilon <= sqrt(2)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operational import DEFAULT_TOLERANCE, Tolerance, _eps, _verdicts
from .singlet import joint_distribution_analytic, joint_law
from .sphere import Direction, _p_yes
from .validation import ValidationError, check_epsilon, check_grid_size, check_polar_angle

# Coplanar polar angles (left pair, right pair) realizing both extremes of
# the CHSH law: 2*sqrt(2) at epsilon = 1 and 4 at epsilon = 0.
CANONICAL_CHSH_ANGLES = (0.0, 0.5 * math.pi, 0.25 * math.pi, 0.75 * math.pi)


def _expectation(p1, p2, p3, p4):
    """E of a joint distribution, on floats or numpy columns; this summation order fixes the printed bits."""
    return (p1 + p4) - (p2 + p3)


def correlation(u1: Direction, u2: Direction, epsilon: float) -> float:
    """E = p1 + p4 - p2 - p3 of the analytic singlet joint distribution."""
    j = joint_distribution_analytic(u1, u2, epsilon)
    return _expectation(j.p1, j.p2, j.p3, j.p4)


@dataclass(frozen=True, slots=True)
class ChshSetup:
    """Two measurement settings per side and one elastic length."""

    a: Direction
    a_prime: Direction
    b: Direction
    b_prime: Direction
    epsilon: float

    def __post_init__(self) -> None:
        for name in ("a", "a_prime", "b", "b_prime"):
            value = getattr(self, name)
            if not isinstance(value, Direction):
                raise ValidationError(f"{name} must be a Direction, got {value!r}")
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))

    @classmethod
    def coplanar(
        cls,
        epsilon: float,
        a: float = CANONICAL_CHSH_ANGLES[0],
        a_prime: float = CANONICAL_CHSH_ANGLES[1],
        b: float = CANONICAL_CHSH_ANGLES[2],
        b_prime: float = CANONICAL_CHSH_ANGLES[3],
    ) -> "ChshSetup":
        """Settings in the phi = 0 plane, given by polar angles in radians.

        The defaults are the canonical angles (0, pi/2, pi/4, 3*pi/4).
        """
        return cls(
            a=Direction.from_angles(a),
            a_prime=Direction.from_angles(a_prime),
            b=Direction.from_angles(b),
            b_prime=Direction.from_angles(b_prime),
            epsilon=epsilon,
        )


@dataclass(frozen=True, slots=True)
class ChshResult:
    """The four correlations and the CHSH value they combine into."""

    e_ab: float
    e_ab_prime: float
    e_a_prime_b: float
    e_a_prime_b_prime: float
    s: float


def chsh(setup: ChshSetup) -> ChshResult:
    """S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')|."""
    e_ab = correlation(setup.a, setup.b, setup.epsilon)
    e_ab_prime = correlation(setup.a, setup.b_prime, setup.epsilon)
    e_a_prime_b = correlation(setup.a_prime, setup.b, setup.epsilon)
    e_a_prime_b_prime = correlation(setup.a_prime, setup.b_prime, setup.epsilon)
    s = abs(e_ab - e_ab_prime + e_a_prime_b + e_a_prime_b_prime)
    return ChshResult(
        e_ab=e_ab,
        e_ab_prime=e_ab_prime,
        e_a_prime_b=e_a_prime_b,
        e_a_prime_b_prime=e_a_prime_b_prime,
        s=s,
    )


def _landscape(
    epsilons: list[float], thetas: list[float], c: list[float], tol: Tolerance | float
) -> dict[str, np.ndarray]:
    """The columns :func:`scan` returns, for directions with u1 . u2 = ``c[k]`` at relative angle ``thetas[k]``."""
    # The center state projects to 0 on every axis, so each side measured
    # alone has the same law for every direction.
    yes = np.array([_p_yes(0.0, e) for e in epsilons], dtype=np.float64)[:, None]
    no = 1.0 - yes
    c = np.array(c, dtype=np.float64)
    joint = np.empty((len(epsilons), len(c), 4))
    for i, eps in enumerate(epsilons):
        joint[i] = joint_law(c, eps)
    p1, p2, p3, p4 = np.moveaxis(joint, -1, 0)
    report, _ = _verdicts(yes, no, yes, no, p1, p2, p3, p4, _eps(tol))
    return {
        "epsilon": np.repeat(np.array(epsilons, dtype=np.float64), len(thetas)),
        "theta": np.tile(np.array(thetas, dtype=np.float64), len(epsilons)),
        "p1": p1.ravel(),
        "p2": p2.ravel(),
        "p3": p3.ravel(),
        "p4": p4.ravel(),
        "E": _expectation(p1, p2, p3, p4).ravel(),
        "compatible": report.compatible.ravel(),
        "separated": report.separated.ravel(),
        "classical_joint": report.classical_joint.ravel(),
    }


def classification_row(
    epsilon: float, theta: float, u1: Direction, u2: Direction, tol: Tolerance | float = DEFAULT_TOLERANCE
) -> dict[str, object]:
    """One landscape point, keyed in the published ``scan``/``classify`` column order.

    The one-point case of :func:`scan`, for any pair of directions:
    ``theta`` is the relative angle of u1 and u2, recorded as given, and
    the values are plain Python floats and bools.
    """
    theta = check_polar_angle(theta)
    cols = _landscape([check_epsilon(epsilon)], [theta], [u1.dot(u2)], tol)
    return {key: column.item() for key, column in cols.items()}


def scan(
    epsilons: list[float],
    thetas: list[float],
    tol: Tolerance | float = DEFAULT_TOLERANCE,
) -> dict[str, np.ndarray]:
    """Classify the singlet joint test over an (epsilon, theta) grid.

    Directions are placed in a common plane, separated by the relative
    angle theta; only that angle matters for the singlet statistics. The
    result is columnar: one array per :func:`classification_row` key, in
    that order, with one entry per grid point, epsilon outermost. Every
    entry equals, bit for bit, what :func:`~esphere.singlet.experiment_triple`
    and :func:`~esphere.operational.classify` give for that point.
    """
    check_grid_size(len(epsilons), len(thetas))
    epsilons = [check_epsilon(e) for e in epsilons]
    thetas = [check_polar_angle(t) for t in thetas]
    pole = Direction.from_angles(0.0)
    return _landscape(epsilons, thetas, [pole.dot(Direction.from_angles(t)) for t in thetas], tol)

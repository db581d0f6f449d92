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

from .operational import (
    DEFAULT_TOLERANCE,
    JointOutcomeProb,
    Tolerance,
    _eps,
    classify,
)
from .singlet import experiment_triple, joint_distribution_analytic, joint_law
from .sphere import BlochState, Direction, outcome_probability
from .validation import check_epsilon, check_polar_angle

# Coplanar polar angles (left pair, right pair) realizing both extremes of
# the CHSH law: 2*sqrt(2) at epsilon = 1 and 4 at epsilon = 0.
CANONICAL_CHSH_ANGLES = (0.0, 0.5 * math.pi, 0.25 * math.pi, 0.75 * math.pi)


def _expectation(j: JointOutcomeProb) -> float:
    """E of a joint distribution; this summation order fixes the printed bits."""
    return (j.p1 + j.p4) - (j.p2 + j.p3)


def correlation(u1: Direction, u2: Direction, epsilon: float) -> float:
    """E = p1 + p4 - p2 - p3 of the analytic singlet joint distribution."""
    return _expectation(joint_distribution_analytic(u1, u2, epsilon))


@dataclass(frozen=True, slots=True)
class ChshSetup:
    """Two measurement settings per side and one elastic length."""

    a: Direction
    a_prime: Direction
    b: Direction
    b_prime: Direction
    epsilon: float

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)

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


def classification_row(
    epsilon: float, theta: float, u1: Direction, u2: Direction, tol: Tolerance | float = DEFAULT_TOLERANCE
) -> dict[str, object]:
    """One landscape point, keyed in the published ``scan``/``classify`` column order.

    ``theta`` is the relative angle of u1 and u2, recorded as given.
    """
    triple = experiment_triple(u1, u2, epsilon)
    report = classify(triple, tol)
    j = triple.joint
    return {
        "epsilon": epsilon,
        "theta": theta,
        "p1": j.p1,
        "p2": j.p2,
        "p3": j.p3,
        "p4": j.p4,
        "E": _expectation(j),
        "compatible": report.compatible,
        "separated": report.separated,
        "classical_joint": report.classical_joint,
    }


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
    entry equals the one :func:`classification_row` gives for that point,
    bit for bit.
    """
    epsilons = [check_epsilon(e) for e in epsilons]
    thetas = [check_polar_angle(t) for t in thetas]
    eps_prob = _eps(tol)
    pole = Direction.from_angles(0.0)
    c = np.array([pole.dot(Direction.from_angles(t)) for t in thetas], dtype=np.float64)
    # The center state projects to 0 on every axis, so each side measured
    # alone has the same law at every theta.
    center = BlochState.center()
    alone = [outcome_probability(center, pole, e) for e in epsilons]
    yes = np.array([m.p_yes for m in alone], dtype=np.float64)[:, None]
    no = np.array([m.p_no for m in alone], dtype=np.float64)[:, None]
    joint = np.empty((len(epsilons), len(thetas), 4))
    for i, eps in enumerate(epsilons):
        joint[i] = joint_law(c, eps)
    p1, p2, p3, p4 = np.moveaxis(joint, -1, 0)
    # operational.classify with left = right = (yes, no), term by term
    compatible = (
        (np.abs(yes - (p1 + p2)) <= eps_prob)
        & (np.abs(no - (p3 + p4)) <= eps_prob)
        & (np.abs(yes - (p1 + p3)) <= eps_prob)
        & (np.abs(no - (p2 + p4)) <= eps_prob)
    )
    product = (
        (np.abs(p1 - yes * yes) <= eps_prob)
        & (np.abs(p2 - yes * no) <= eps_prob)
        & (np.abs(p3 - no * yes) <= eps_prob)
        & (np.abs(p4 - no * no) <= eps_prob)
    )
    classical_joint = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)) >= 1.0 - eps_prob
    return {
        "epsilon": np.repeat(np.array(epsilons, dtype=np.float64), len(thetas)),
        "theta": np.tile(np.array(thetas, dtype=np.float64), len(epsilons)),
        "p1": p1.ravel(),
        "p2": p2.ravel(),
        "p3": p3.ravel(),
        "p4": p4.ravel(),
        "E": ((p1 + p4) - (p2 + p3)).ravel(),  # the order of _expectation
        "compatible": compatible.ravel(),
        "separated": (product & compatible).ravel(),
        "classical_joint": classical_joint.ravel(),
    }

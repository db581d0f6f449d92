"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from esphere import Direction, ExperimentTriple, JointOutcomeProb, OutcomeProb


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


def random_direction(rng: np.random.Generator) -> Direction:
    """Uniform direction on the sphere from a seeded generator."""
    while True:
        x, y, z = (float(t) for t in rng.normal(size=3))
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-6:
            return Direction(x / norm, y / norm, z / norm)


def opposite(u: Direction) -> Direction:
    return Direction(-u.x, -u.y, -u.z)


def directions() -> st.SearchStrategy[Direction]:
    return st.builds(
        Direction.from_angles,
        st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
        st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True, allow_nan=False),
    )


def epsilons() -> st.SearchStrategy[float]:
    return st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def positive_epsilons(min_value: float = 1e-9) -> st.SearchStrategy[float]:
    return st.floats(min_value=min_value, max_value=1.0, allow_nan=False)


def probabilities() -> st.SearchStrategy[float]:
    return st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def eighth_grid_joints(draw: st.DrawFn) -> JointOutcomeProb:
    """Joint distributions on the k/8 grid; all arithmetic on them is exact."""
    k1 = draw(st.integers(min_value=0, max_value=8))
    k2 = draw(st.integers(min_value=0, max_value=8 - k1))
    k3 = draw(st.integers(min_value=0, max_value=8 - k1 - k2))
    k4 = 8 - k1 - k2 - k3
    return JointOutcomeProb(k1 / 8.0, k2 / 8.0, k3 / 8.0, k4 / 8.0)


def product_triple(p_left: float, p_right: float) -> ExperimentTriple:
    """Triple whose joint is exactly the product of its marginals."""
    left = OutcomeProb(p_left, 1.0 - p_left)
    right = OutcomeProb(p_right, 1.0 - p_right)
    return ExperimentTriple(
        left=left,
        right=right,
        joint=JointOutcomeProb(
            left.p_yes * right.p_yes,
            left.p_yes * right.p_no,
            left.p_no * right.p_yes,
            left.p_no * right.p_no,
        ),
    )

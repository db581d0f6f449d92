"""Two rod-coupled spheres prepared in the singlet state.

The singlet preparation places both point particles at the centers of their
spheres, connected by a rigid rod. A joint test measures one side first
with the elastic mechanism of :mod:`esphere.sphere`; the rod drags the
other particle to the surface point diametrically opposite the realized
eigenstate and then disengages; the second side is measured as an ordinary
single sphere. Outcomes are recorded in (left, right) order regardless of
which side went first.

The joint distribution is therefore read from the single-sphere law
p_yes(a, epsilon) of :mod:`esphere.sphere` and depends only on
c = u1 . u2 and epsilon. The first side, at the center, answers yes with
probability 1/2 for epsilon > 0; the dragged side then sits at projection
-c relative to its axis on the yes branch (and +c on the no branch), so

    p1 = p4 = 1/2 p_yes(-c, epsilon)
    p2 = p3 = 1/2 - p1

with p1 rounded onto the 2^-53 grid so every partial sum is exact. For
|c| < epsilon this is p1 = (epsilon - c) / (4 epsilon); it clamps to
(0, 1/2, 1/2, 0) for c >= epsilon and (1/2, 0, 0, 1/2) for
c <= -epsilon. At epsilon = 1 this is the quantum singlet table
(sin^2, cos^2 of the half-angle); at epsilon = 0 nothing is random and a
single outcome is certain. The joint distribution does not depend on the
measurement order for epsilon > 0; in the deterministic limit the tie rule
makes the first-measured side answer yes, so only the labeling of the
certain outcome follows the order (the analytic table uses left-first).
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

import numpy as np

from .operational import ExperimentTriple, JointOutcomeProb, OutcomeProb
from .sphere import Direction, _p_yes
from .validation import ValidationError, check_epsilon, check_seed, check_trials

# Trials per deterministic simulation block: blocks own independent random
# streams derived from (seed, block index), so aggregate counts never depend
# on scheduling or worker count.
BLOCK_TRIALS = 65536


class MeasurementOrder(enum.Enum):
    """Which side of the coupled pair is measured first."""

    LEFT_FIRST = "left-first"
    RIGHT_FIRST = "right-first"


@dataclass(frozen=True, slots=True)
class JointTestSpec:
    """A joint test: one direction per side, one elastic length, an order."""

    u1: Direction
    u2: Direction
    epsilon: float
    order: MeasurementOrder = MeasurementOrder.LEFT_FIRST

    def __post_init__(self) -> None:
        for name in ("u1", "u2"):
            value = getattr(self, name)
            if not isinstance(value, Direction):
                raise ValidationError(f"{name} must be a Direction, got {value!r}")
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))
        if not isinstance(self.order, MeasurementOrder):
            raise ValidationError(f"order must be a MeasurementOrder, got {self.order!r}")


def joint_distribution_analytic(u1: Direction, u2: Direction, epsilon: float) -> JointOutcomeProb:
    """Closed-form joint outcome distribution of the singlet preparation.

    Built so the left and right marginal sums are exactly one half for
    every epsilon > 0, and the total p1 + p2 + p3 + p4 is exactly 1 in
    every summation order; compatibility of the analytic triple then holds
    with zero residual. Inside the band, p_same is held to a multiple of
    2^-53, which moves it by at most 2^-54 from the closed form; every
    probability is then such a multiple, so every partial sum is exact.
    At epsilon = 0 the certain outcome is labeled by the left-first order
    convention.
    """
    epsilon = check_epsilon(epsilon)
    return JointOutcomeProb(*_cells(_p_yes(-u1.dot(u2), epsilon), epsilon))


def _cells(y, epsilon: float):
    """(p1, p2, p3, p4) from y = p_yes(-c, epsilon), on floats or numpy arrays alike."""
    if epsilon == 0.0:
        # the first side answers yes on the tie; y says whether the second does too
        return (y, 1.0 - y, 0.0 * y, 0.0 * y)
    # Round onto the 2^-53 grid (the ulp of [0.5, 1)) so every sum is exact.
    p_same = (0.5 + 0.5 * y) - 0.5
    p_diff = 0.5 - p_same
    return (p_same, p_diff, p_diff, p_same)


def joint_law(c: np.ndarray, epsilon: float) -> np.ndarray:
    """:func:`joint_distribution_analytic` for one epsilon over an array of c = u1 . u2.

    Returns an array of shape ``c.shape + (4,)`` holding (p1, p2, p3, p4).
    Each cell is computed with the same IEEE operations, in the same order,
    as the scalar law, so it equals the scalar law bit for bit. Serves
    batches; a single point is cheaper through the scalar law.
    """
    epsilon = check_epsilon(epsilon)
    a = -np.asarray(c, dtype=np.float64)
    # The band formula is evaluated everywhere; where it divides by zero
    # (epsilon = 0) or overflows (subnormal epsilon), the clamps discard it.
    with np.errstate(all="ignore"):
        y = np.where(a >= epsilon, 1.0, np.where(a <= -epsilon, 0.0, (epsilon + a) / (2.0 * epsilon)))
    return np.stack(_cells(y, epsilon), axis=-1)


def _simulate_block(c: float, epsilon: float, n: int, block: int, seed: int) -> np.ndarray:
    """Counts of one block in measurement order (first, second), from its own stream."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    # the first particle sits at the center: projection 0, break always drawn
    first_no = rng.uniform(-epsilon, epsilon, n) > 0.0
    no1 = int(np.count_nonzero(first_no))
    # dragged opposite the first eigenstate: projection is +c after no, -c after yes,
    # so outside the band the first answer decides the second
    if c >= epsilon:
        return np.array((0, n - no1, no1, 0))
    if c <= -epsilon:
        return np.array((n - no1, 0, 0, no1))
    lam2 = rng.uniform(-epsilon, epsilon, n)
    second_no = np.where(first_no, lam2 > c, lam2 > -c)
    no2 = int(np.count_nonzero(second_no))
    both = int(np.count_nonzero(first_no & second_no))
    return np.array((n - no1 - no2 + both, no2 - both, no1 - both, both))


def _available_cpus() -> int:
    """CPUs this process may run on, which bounds the threads of one simulation."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(c: float, epsilon: float, trials: int, seed: int) -> list[int]:
    """Counts summed in block order over every block of a simulation.

    Blocks run on a ThreadPoolExecutor with at most one thread per
    available CPU, all joined before this returns. The error of the lowest
    failing block is raised, and blocks not yet started are cancelled.
    """
    # imported here so that importing the package and one-block runs skip its cost
    from concurrent.futures import ThreadPoolExecutor

    sizes = [min(BLOCK_TRIALS, trials - start) for start in range(0, trials, BLOCK_TRIALS)]
    n = len(sizes)
    with ThreadPoolExecutor(min(n, _available_cpus())) as pool:
        counts = sum(pool.map(_simulate_block, [c] * n, [epsilon] * n, sizes, range(n), [seed] * n))
    return counts.tolist()


def _relabel(cells: tuple | list, order: MeasurementOrder) -> tuple:
    """(x1, x2, x3, x4) of cells in measurement order: right-first swaps x2 and x3."""
    if order is MeasurementOrder.RIGHT_FIRST:
        return (cells[0], cells[2], cells[1], cells[3])
    return tuple(cells)


def simulate(
    spec: JointTestSpec, trials: int, seed: int
) -> tuple[JointOutcomeProb, tuple[int, int, int, int]]:
    """Monte Carlo joint-test statistics, reproducible bit for bit.

    Trials are partitioned into fixed-size blocks; block b draws from a
    stream derived from (seed, b) alone, and counts are summed in block
    order. Two or more blocks run on a ThreadPoolExecutor with at most
    one thread per CPU available to the process; no thread outlives the
    call, and a single block starts none. The result therefore depends
    only on (spec, trials, seed), never on scheduling or thread count.
    Returns the empirical distribution and the raw outcome counts
    (x1, x2, x3, x4).

    Trials are tallied in measurement order (first, second); right-first
    only swaps x2 and x3. Nothing is drawn at epsilon = 0, and no second
    break point where the second answer is certain (|c| >= epsilon).

    Subnormal epsilon biases the counts: a break point drawn uniformly from
    [-epsilon, epsilon] is exactly 0 with probability about 2.5e-324 /
    epsilon, and the tie answers yes. The first side measured then answers
    yes in about 3/4 of the trials at epsilon = 5e-324, where the law says
    1/2; the excess is under 0.002 from epsilon = 1e-321 on.
    """
    trials = check_trials(trials)
    seed = check_seed(seed)
    eps = spec.epsilon
    c = spec.u1.dot(spec.u2)
    if eps == 0.0:
        # the tie rule answers yes on the first side; the dragged side,
        # at projection -c, answers no exactly when c > 0
        counts = [0, 0, 0, 0]
        counts[int(c > 0.0)] = trials
    elif trials <= BLOCK_TRIALS:
        counts = _simulate_block(c, eps, trials, 0, seed).tolist()
    else:
        counts = _run_blocks(c, eps, trials, seed)
    x1, x2, x3, x4 = _relabel(counts, spec.order)
    return (JointOutcomeProb(x1 / trials, x2 / trials, x3 / trials, x4 / trials), (x1, x2, x3, x4))


def experiment_triple(u1: Direction, u2: Direction, epsilon: float) -> ExperimentTriple:
    """Stand-alone marginals plus analytic joint for the singlet preparation.

    Each test measured alone acts on a centered particle, so its
    distribution is (1/2, 1/2) for every epsilon > 0. In the deterministic
    limit the tie rule answers yes with certainty on the center state, so
    the stand-alone distributions become (1, 0); that is what makes the
    joint experiment incompatible with them whenever c > 0.
    """
    epsilon = check_epsilon(epsilon)
    # the center projects to 0 on every axis
    p_yes = _p_yes(0.0, epsilon)
    alone = OutcomeProb(p_yes, 1.0 - p_yes)
    return ExperimentTriple(left=alone, right=alone, joint=joint_distribution_analytic(u1, u2, epsilon))

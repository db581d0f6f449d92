"""Two rod-coupled spheres prepared in the singlet state.

The singlet preparation places both point particles at the centers of their
spheres, connected by a rigid rod. A joint test measures one side first
with the elastic mechanism of :mod:`esphere.sphere`; the rod drags the
other particle to the surface point diametrically opposite the realized
eigenstate and then disengages; the second side is measured as an ordinary
single sphere. Outcomes are recorded in (left, right) order regardless of
which side went first.

Averaging the elastic breaks gives a closed-form joint distribution that
depends only on c = u1 . u2 and epsilon. For epsilon > 0 and |c| < epsilon:

    p1 = p4 = (epsilon - c) / (4 epsilon)
    p2 = p3 = (epsilon + c) / (4 epsilon)

clamping to (0, 1/2, 1/2, 0) for c >= epsilon and (1/2, 0, 0, 1/2) for
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
import threading
from dataclasses import dataclass

import numpy as np

from .operational import ExperimentTriple, JointOutcomeProb
from .sphere import BlochState, Direction, outcome_probability
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
    c = u1.dot(u2)
    if epsilon == 0.0:
        if c > 0.0:
            return JointOutcomeProb(0.0, 1.0, 0.0, 0.0)
        return JointOutcomeProb(1.0, 0.0, 0.0, 0.0)
    if c >= epsilon:
        return JointOutcomeProb(0.0, 0.5, 0.5, 0.0)
    if c <= -epsilon:
        return JointOutcomeProb(0.5, 0.0, 0.0, 0.5)
    anti = (epsilon - c) / (2.0 * epsilon)
    # Round onto the 2^-53 grid (the ulp of [0.5, 1)) so every sum is exact.
    p_same = (0.5 + 0.5 * anti) - 0.5
    p_diff = 0.5 - p_same
    return JointOutcomeProb(p_same, p_diff, p_diff, p_same)


def joint_law(c: np.ndarray, epsilon: float) -> np.ndarray:
    """:func:`joint_distribution_analytic` for one epsilon over an array of c = u1 . u2.

    Returns an array of shape ``c.shape + (4,)`` holding (p1, p2, p3, p4).
    Each cell is computed with the same IEEE operations, in the same order,
    as the scalar law, so it equals the scalar law bit for bit. Serves
    batches; a single point is cheaper through the scalar law.
    """
    epsilon = check_epsilon(epsilon)
    c = np.asarray(c, dtype=np.float64)
    if epsilon == 0.0:
        p1 = np.where(c > 0.0, 0.0, 1.0)
        zero = np.zeros_like(p1)
        return np.stack([p1, 1.0 - p1, zero, zero], axis=-1)
    # At subnormal epsilon the division overflows where |c| >= epsilon; the clamps discard those cells.
    with np.errstate(over="ignore"):
        anti = (epsilon - c) / (2.0 * epsilon)
        p_same = (0.5 + 0.5 * anti) - 0.5
        p_diff = 0.5 - p_same
    above, below = c >= epsilon, c <= -epsilon
    p_same = np.where(above, 0.0, np.where(below, 0.5, p_same))
    p_diff = np.where(above, 0.5, np.where(below, 0.0, p_diff))
    return np.stack([p_same, p_diff, p_diff, p_same], axis=-1)


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
    """Counts summed over every block of a simulation, one thread per available CPU at most.

    The calling thread is one of the workers. Each takes the lowest block no
    one has claimed until none is left; every helper is started and joined
    here. Once a block raises, no new block starts, and the error of the
    lowest failing block is raised after all threads are joined.
    """
    sizes = [min(BLOCK_TRIALS, trials - start) for start in range(0, trials, BLOCK_TRIALS)]
    workers = min(len(sizes), _available_cpus())
    results: list = [None] * len(sizes)
    errors: dict[int, BaseException] = {}
    pending = list(range(len(sizes)))[::-1]

    def work() -> None:
        while True:
            try:
                block = pending.pop()
            except IndexError:
                return
            try:
                results[block] = _simulate_block(c, epsilon, sizes[block], block, seed)
            except BaseException as exc:
                errors[block] = exc
                pending.clear()

    helpers = []
    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        pending.clear()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return sum(results).tolist()


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
    order. Two or more blocks run on up to one thread per CPU available
    to the process, the calling thread included; no thread outlives the
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
    center = BlochState.center()
    return ExperimentTriple(
        left=outcome_probability(center, u1, epsilon),
        right=outcome_probability(center, u2, epsilon),
        joint=joint_distribution_analytic(u1, u2, epsilon),
    )

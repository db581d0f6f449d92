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
from dataclasses import dataclass

import numpy as np

from .operational import ExperimentTriple, JointOutcomeProb
from .sphere import BlochState, Direction, outcome_probability, sample_measurement
from .validation import ValidationError, check_epsilon, check_seed, check_trials

# Trials per deterministic simulation block: blocks own independent random
# streams derived from (seed, block index), so aggregate counts never depend
# on scheduling or worker count.
BLOCK_TRIALS = 65536


class MeasurementOrder(enum.Enum):
    """Which side of the coupled pair is measured first."""

    LEFT_FIRST = "left-first"
    RIGHT_FIRST = "right-first"


class JointOutcome(enum.Enum):
    """The four outcomes of a joint test, in (left, right) order."""

    X1 = (True, True)
    X2 = (True, False)
    X3 = (False, True)
    X4 = (False, False)

    @property
    def left_yes(self) -> bool:
        return self.value[0]

    @property
    def right_yes(self) -> bool:
        return self.value[1]

    @classmethod
    def from_answers(cls, left_yes: bool, right_yes: bool) -> "JointOutcome":
        return cls((left_yes, right_yes))

    @property
    def index(self) -> int:
        """Position in (p1, p2, p3, p4), zero-based."""
        return 2 * (not self.left_yes) + (not self.right_yes)


@dataclass(frozen=True, slots=True)
class JointTestSpec:
    """A joint test: one direction per side, one elastic length, an order."""

    u1: Direction
    u2: Direction
    epsilon: float
    order: MeasurementOrder = MeasurementOrder.LEFT_FIRST

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        if not isinstance(self.order, MeasurementOrder):
            raise ValidationError(f"order must be a MeasurementOrder, got {self.order!r}")


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One sampled joint trial: outcome and both collapsed surface states."""

    outcome: JointOutcome
    post_left: BlochState
    post_right: BlochState


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


def run_joint_trial(spec: JointTestSpec, rng: np.random.Generator) -> TrialRecord:
    """Sample one sequential joint test on the singlet preparation.

    Both particles start at their sphere centers, joined by the rod. The
    first side collapses under its elastic measurement; the rod drags the
    other particle to the diametrically opposite surface point and
    disengages; the second side is then an ordinary single-sphere trial.
    """
    if spec.order is MeasurementOrder.LEFT_FIRST:
        first_dir, second_dir = spec.u1, spec.u2
    else:
        first_dir, second_dir = spec.u2, spec.u1

    first_outcome, first_post = sample_measurement(
        BlochState.center(), first_dir, spec.epsilon, rng
    )
    dragged = BlochState(-first_post.x, -first_post.y, -first_post.z)
    second_outcome, second_post = sample_measurement(dragged, second_dir, spec.epsilon, rng)

    if spec.order is MeasurementOrder.LEFT_FIRST:
        left_yes, right_yes = first_outcome.is_yes, second_outcome.is_yes
        post_left, post_right = first_post, second_post
    else:
        left_yes, right_yes = second_outcome.is_yes, first_outcome.is_yes
        post_left, post_right = second_post, first_post
    return TrialRecord(
        outcome=JointOutcome.from_answers(left_yes, right_yes),
        post_left=post_left,
        post_right=post_right,
    )


def _simulate_block(spec: JointTestSpec, n: int, block: int, seed: int) -> np.ndarray:
    """Outcome counts of one block, from its own deterministic stream."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    eps = spec.epsilon
    c = spec.u1.dot(spec.u2)
    # first particle sits at the center: projection 0, break always drawn
    lam1 = rng.uniform(-eps, eps, n)
    lam2 = rng.uniform(-eps, eps, n)
    first_yes = lam1 <= 0.0
    # dragged opposite the first eigenstate: projection is -c after yes, +c after no
    a2 = np.where(first_yes, -c, c)
    second_yes = np.where(np.abs(a2) >= eps, a2 >= eps, lam2 <= a2)
    if spec.order is MeasurementOrder.LEFT_FIRST:
        left_yes, right_yes = first_yes, second_yes
    else:
        left_yes, right_yes = second_yes, first_yes
    idx = np.where(left_yes, 0, 2) + np.where(right_yes, 0, 1)
    return np.bincount(idx, minlength=4)


def simulate(
    spec: JointTestSpec, trials: int, seed: int
) -> tuple[JointOutcomeProb, tuple[int, int, int, int]]:
    """Monte Carlo joint-test statistics, reproducible bit for bit.

    Trials are partitioned into fixed-size blocks; block b draws from a
    stream derived from (seed, b) alone, and counts are summed in block
    order. The result therefore depends only on (spec, trials, seed),
    never on scheduling or worker count. Returns the empirical
    distribution and the raw outcome counts (x1, x2, x3, x4).
    """
    trials = check_trials(trials)
    seed = check_seed(seed)
    eps = spec.epsilon
    if eps == 0.0:
        # nothing is random: the tie rule answers yes on the first side,
        # the dragged side answers by the sign of its projection
        c = spec.u1.dot(spec.u2)
        first_yes, second_yes = True, -c >= 0.0
        if spec.order is MeasurementOrder.LEFT_FIRST:
            outcome = JointOutcome.from_answers(first_yes, second_yes)
        else:
            outcome = JointOutcome.from_answers(second_yes, first_yes)
        counts = [0, 0, 0, 0]
        counts[outcome.index] = trials
    else:
        totals = np.zeros(4, dtype=np.int64)
        full_blocks, remainder = divmod(trials, BLOCK_TRIALS)
        for block in range(full_blocks):
            totals += _simulate_block(spec, BLOCK_TRIALS, block, seed)
        if remainder:
            totals += _simulate_block(spec, remainder, full_blocks, seed)
        counts = [int(v) for v in totals]
    freqs = JointOutcomeProb(
        counts[0] / trials, counts[1] / trials, counts[2] / trials, counts[3] / trials
    )
    return (freqs, (counts[0], counts[1], counts[2], counts[3]))


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

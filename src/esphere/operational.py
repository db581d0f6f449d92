"""Dichotomic tests, outcome statistics, and their operational classification.

A *test* is a yes/no experiment on a physical entity in a given state. Two
tests performed together form a joint experiment with four outcomes,

    x1 = (yes, yes), x2 = (yes, no), x3 = (no, yes), x4 = (no, no).

Given the stand-alone outcome distributions of the two tests and the joint
four-outcome distribution, this module decides three operational questions:

* **compatibility**: the stand-alone probabilities are recovered as marginals
  of the joint experiment,

      P(left, yes)  = p1 + p2        P(left, no)  = p3 + p4
      P(right, yes) = p1 + p3        P(right, no) = p2 + p4

* **separability**: the joint probabilities factor into products of the
  stand-alone ones, p1 = P(left, yes) * P(right, yes) and the three
  analogous equations. Separability implies compatibility; among compatible
  pairs it is equivalent to the product criterion p1*p4 == p2*p3.

* **classicality**: a test (or joint test) is classical in a state when a
  single outcome occurs with certainty.

All predicates compare residuals of the defining equations against an
absolute tolerance. The default suits analytic inputs; empirical
frequencies need a caller-supplied statistical tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .validation import (
    ValidationError,
    check_finite,
    check_probability,
    check_unit_interval_sum,
    store_checked,
)

Residuals = tuple[float, float, float, float]


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Absolute tolerance on probability residuals.

    ``eps_prob`` defaults to 1e-9, appropriate for analytically computed
    distributions. Classify Monte Carlo frequencies with a tolerance sized
    to the sampling error (a few standard errors); this module makes no
    assumption about sample sizes.
    """

    eps_prob: float = 1e-9

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_prob", check_finite(self.eps_prob, "eps_prob"))
        if self.eps_prob <= 0.0:
            raise ValidationError(f"eps_prob must be > 0, got {self.eps_prob}")


DEFAULT_TOLERANCE = Tolerance()


def _eps(tol: Tolerance | float) -> float:
    if isinstance(tol, Tolerance):
        return tol.eps_prob
    return Tolerance(float(tol)).eps_prob


@dataclass(frozen=True, slots=True)
class OutcomeProb:
    """Bernoulli distribution over {yes, no} for one test in one state."""

    p_yes: float
    p_no: float

    def __post_init__(self) -> None:
        store_checked(self, ("p_yes", "p_no"), check_probability)
        check_unit_interval_sum(self.p_yes + self.p_no, "p_yes + p_no")

    @classmethod
    def from_yes(cls, p_yes: float) -> "OutcomeProb":
        p_yes = check_probability(p_yes, "p_yes")
        return cls(p_yes, 1.0 - p_yes)


@dataclass(frozen=True, slots=True)
class JointOutcomeProb:
    """Distribution over the four outcomes of a joint test.

    The labeling is fixed: ``p1`` is (yes, yes), ``p2`` is (yes, no),
    ``p3`` is (no, yes), ``p4`` is (no, no), with yes/no of the left test
    first in each pair.
    """

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self) -> None:
        store_checked(self, ("p1", "p2", "p3", "p4"), check_probability)
        check_unit_interval_sum(self.p1 + self.p2 + self.p3 + self.p4, "p1 + p2 + p3 + p4")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


@dataclass(frozen=True, slots=True)
class ExperimentTriple:
    """The data the classification predicates consume.

    ``left`` and ``right`` are the stand-alone outcome distributions of each
    test measured alone; ``joint`` is the four-outcome distribution of the
    joint experiment. No cross-constraint is imposed here: whether the
    marginals of ``joint`` reproduce ``left`` and ``right`` is exactly the
    compatibility question, a property to test, not an invariant.
    """

    left: OutcomeProb
    right: OutcomeProb
    joint: JointOutcomeProb


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    """Aggregate answer of all predicates for one experiment triple.

    ``separated`` is reported true only when ``compatible`` also holds;
    separability implies compatibility, so a triple whose product equations
    hold but whose marginals do not match is reported as neither.
    """

    compatible: bool
    separated: bool
    classical_left: bool
    classical_right: bool
    classical_joint: bool
    compatibility_residuals: Residuals
    separability_residuals: Residuals


def _verdicts(left_yes, left_no, right_yes, right_no, p1, p2, p3, p4, eps) -> tuple[ClassificationReport, bool]:
    """The classification rule: the report on one triple, and whether its product equations hold.

    Plain operators only, so the same lines decide one triple of floats and,
    elementwise, a grid of numpy columns (every report field is then an
    array): ``max(r) <= eps`` is a chain of ``&``, ``max(p) >= 1 - eps`` of ``|``.
    """
    comp = (
        abs(left_yes - (p1 + p2)),
        abs(left_no - (p3 + p4)),
        abs(right_yes - (p1 + p3)),
        abs(right_no - (p2 + p4)),
    )
    sep = (
        abs(p1 - left_yes * right_yes),
        abs(p2 - left_yes * right_no),
        abs(p3 - left_no * right_yes),
        abs(p4 - left_no * right_no),
    )
    compatible = (comp[0] <= eps) & (comp[1] <= eps) & (comp[2] <= eps) & (comp[3] <= eps)
    product = (sep[0] <= eps) & (sep[1] <= eps) & (sep[2] <= eps) & (sep[3] <= eps)
    certain = 1.0 - eps
    report = ClassificationReport(
        compatible=compatible,
        separated=product & compatible,
        classical_left=(left_yes >= certain) | (left_no >= certain),
        classical_right=(right_yes >= certain) | (right_no >= certain),
        classical_joint=(p1 >= certain) | (p2 >= certain) | (p3 >= certain) | (p4 >= certain),
        compatibility_residuals=comp,
        separability_residuals=sep,
    )
    return (report, product)


def _triple_verdicts(t: ExperimentTriple, tol: Tolerance | float) -> tuple[ClassificationReport, bool]:
    j = t.joint
    return _verdicts(t.left.p_yes, t.left.p_no, t.right.p_yes, t.right.p_no, j.p1, j.p2, j.p3, j.p4, _eps(tol))


def check_compatibility(
    t: ExperimentTriple, tol: Tolerance | float = DEFAULT_TOLERANCE
) -> tuple[bool, Residuals]:
    """Decide whether the two tests are compatible in this state.

    Returns the verdict together with the four residuals, which are
    reported regardless of the verdict.
    """
    report = classify(t, tol)
    return (report.compatible, report.compatibility_residuals)


def check_separability(
    t: ExperimentTriple, tol: Tolerance | float = DEFAULT_TOLERANCE
) -> tuple[bool, Residuals]:
    """Decide whether the two tests are separated in this state.

    Unlike ``ClassificationReport.separated``, the verdict does not also require compatibility.
    """
    report, product = _triple_verdicts(t, tol)
    return (product, report.separability_residuals)


def check_product_criterion(
    j: JointOutcomeProb, tol: Tolerance | float = DEFAULT_TOLERANCE
) -> bool:
    """Test p1*p4 == p2*p3 within tolerance.

    For a joint distribution already known compatible with its marginals
    this is equivalent to separability; on its own it is only the
    necessary half.
    """
    return abs(j.p1 * j.p4 - j.p2 * j.p3) <= _eps(tol)


def is_classical_test(o: OutcomeProb, tol: Tolerance | float = DEFAULT_TOLERANCE) -> bool:
    """True when exactly one outcome is possible in this state."""
    # the verdict on one side reads neither the other side nor the joint
    return _verdicts(o.p_yes, o.p_no, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, _eps(tol))[0].classical_left


def is_classical_joint(j: JointOutcomeProb, tol: Tolerance | float = DEFAULT_TOLERANCE) -> bool:
    """True when a single outcome pair occurs with certainty."""
    # the verdict on the joint reads neither side
    return _verdicts(0.0, 0.0, 0.0, 0.0, j.p1, j.p2, j.p3, j.p4, _eps(tol))[0].classical_joint


def classify(
    t: ExperimentTriple, tol: Tolerance | float = DEFAULT_TOLERANCE
) -> ClassificationReport:
    """Run every predicate on one experiment triple."""
    return _triple_verdicts(t, tol)[0]


VESSEL_KINDS = ("alpha_alpha", "alpha_beta")


def vessels_scenario(kind: str) -> ExperimentTriple:
    """Connected-vessels-of-water scenarios with 20 liters split over two vessels.

    Each single test alone succeeds with certainty, yet the joint experiment
    couples them through the shared water:

    * ``alpha_alpha``: both sides try to draw more than 10 liters at once.
      The (yes, yes) outcome is impossible; by left/right symmetry of the
      split we put probability 1/2 on each of (yes, no) and (no, yes).
    * ``alpha_beta``: the right side instead grabs a random amount first and
      checks transparency, which always succeeds; the left side then gets
      more than 10 liters only half the time. Outcomes (yes, yes) and
      (no, yes) each carry probability 1/2.

    Both triples have deterministic (classical) marginals but fail
    compatibility: no single four-outcome experiment reproduces them.
    """
    if kind == "alpha_alpha":
        joint = JointOutcomeProb(0.0, 0.5, 0.5, 0.0)
    elif kind == "alpha_beta":
        joint = JointOutcomeProb(0.5, 0.0, 0.5, 0.0)
    else:
        raise ValidationError(f"unknown vessels scenario {kind!r}, expected one of {VESSEL_KINDS}")
    certain_yes = OutcomeProb(1.0, 0.0)
    return ExperimentTriple(left=certain_yes, right=certain_yes, joint=joint)

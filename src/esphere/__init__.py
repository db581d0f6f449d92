"""Elastic-sphere model of spin-1/2 measurements.

One tunable parameter, the elastic half-length ``epsilon``, carries the
model from fully deterministic (``epsilon = 0``) to fully quantum
(``epsilon = 1``) behavior. The package computes analytic outcome
statistics for a single sphere, analytic and simulated ones for two
rod-coupled spheres in the singlet preparation, and classifies pairs of
tests as compatible, separated, or classical from their joint statistics.

Layering: :mod:`esphere.operational` defines distributions and predicates,
:mod:`esphere.sphere` the single-sphere mechanics, :mod:`esphere.singlet`
the coupled pair, :mod:`esphere.analysis` correlations, CHSH values, and
grid scans, and :mod:`esphere.cli` the command-line front end.
"""

__version__ = "0.1.0"

from .operational import (
    DEFAULT_TOLERANCE,
    ClassificationReport,
    ExperimentTriple,
    JointOutcomeProb,
    OutcomeProb,
    Tolerance,
    check_compatibility,
    check_product_criterion,
    check_separability,
    classify,
    is_classical_joint,
    is_classical_test,
    vessels_scenario,
)
from .sphere import (
    BlochState,
    DensityMatrix,
    Direction,
    from_density_matrix,
    outcome_probability,
    projection,
    to_density_matrix,
)
from .singlet import (
    BLOCK_TRIALS,
    JointTestSpec,
    MeasurementOrder,
    experiment_triple,
    joint_distribution_analytic,
    simulate,
)
from .analysis import (
    CANONICAL_CHSH_ANGLES,
    ChshResult,
    ChshSetup,
    chsh,
    classification_row,
    correlation,
    scan,
)
from .validation import ValidationError

__all__ = [
    "__version__",
    "BLOCK_TRIALS",
    "CANONICAL_CHSH_ANGLES",
    "DEFAULT_TOLERANCE",
    "BlochState",
    "ChshResult",
    "ChshSetup",
    "ClassificationReport",
    "DensityMatrix",
    "Direction",
    "ExperimentTriple",
    "JointOutcomeProb",
    "JointTestSpec",
    "OutcomeProb",
    "MeasurementOrder",
    "Tolerance",
    "ValidationError",
    "check_compatibility",
    "check_product_criterion",
    "check_separability",
    "chsh",
    "classification_row",
    "classify",
    "correlation",
    "experiment_triple",
    "from_density_matrix",
    "is_classical_joint",
    "is_classical_test",
    "joint_distribution_analytic",
    "outcome_probability",
    "projection",
    "scan",
    "simulate",
    "to_density_matrix",
    "vessels_scenario",
]

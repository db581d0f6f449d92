"""Input validation shared by all model layers.

Every public constructor and operation in this package rejects malformed
input by raising :class:`ValidationError`. Numerical checks use absolute
tolerances; the defaults are meant for analytically computed inputs.
"""

from __future__ import annotations

import math
from collections.abc import Callable

# Construction-time tolerance for probability vectors built from analytic
# formulas or empirical frequencies (both land within a few ulp of exact).
PROB_ATOL = 1e-9

# Geometric tolerance for unit-norm checks on directions and pure states.
UNIT_ATOL = 1e-12

# Largest (epsilon, theta) grid a scan accepts: about ten times the
# 101 x 1001 landscape, whose JSON output is about 27 MB.
MAX_GRID_POINTS = 1_000_000

# Most Monte Carlo trials one simulation accepts: `esphere simulate` at the
# cap took about 11 s inside the band (|c| < epsilon) and 3.5 s where the
# band clamps, with its blocks on 2 cores (py3.11, numpy 2.4.6).
MAX_TRIALS = 10**9


class ValidationError(ValueError):
    """An input violates its documented contract."""


def store_checked(obj: object, names: tuple[str, ...], check: Callable[[object, str], float]) -> None:
    """Run ``check(value, name)`` on each named field of a frozen dataclass.

    A field that is not already a ``float`` is replaced by the checked
    float, so strings, ints and bools are stored as floats. A float field
    is left as it is, which keeps construction cheap on the common path.
    """
    for name in names:
        value = getattr(obj, name)
        checked = check(value, name)
        if type(value) is not float:
            object.__setattr__(obj, name, checked)


def check_finite(x: float, name: str) -> float:
    try:
        x = float(x)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {x!r}") from exc
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x!r}")
    return x


def check_probability(p: float, name: str) -> float:
    p = check_finite(p, name)
    if p < -PROB_ATOL or p > 1.0 + PROB_ATOL:
        raise ValidationError(f"{name} must lie in [0, 1], got {p}")
    return p


def check_epsilon(epsilon: float) -> float:
    eps = check_finite(epsilon, "epsilon")
    if eps < 0.0 or eps > 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {eps}")
    return eps


def check_unit_interval_sum(total: float, name: str) -> None:
    if abs(total - 1.0) > PROB_ATOL:
        raise ValidationError(f"{name} must sum to 1, got {total}")


def check_polar_angle(theta: float) -> float:
    theta = check_finite(theta, "theta")
    if theta < 0.0 or theta > math.pi:
        raise ValidationError(f"theta must lie in [0, pi] radians, got {theta}")
    return theta


def check_azimuthal_angle(phi: float) -> float:
    phi = check_finite(phi, "phi")
    if phi < 0.0 or phi >= 2.0 * math.pi:
        raise ValidationError(f"phi must lie in [0, 2*pi) radians, got {phi}")
    return phi


def check_trials(trials: int) -> int:
    if not isinstance(trials, int) or isinstance(trials, bool):
        raise ValidationError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials of {trials} exceeds the limit of {MAX_TRIALS}")
    return trials


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed


def check_grid_size(n_epsilons: int, n_thetas: int) -> None:
    """Refuse a scan grid above :data:`MAX_GRID_POINTS` before it is built."""
    points = n_epsilons * n_thetas
    if points > MAX_GRID_POINTS:
        raise ValidationError(f"scan grid of {points} points exceeds the limit of {MAX_GRID_POINTS}")

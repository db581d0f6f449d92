"""One spin-1/2 on the Bloch sphere with an elastic-band measurement.

A state is a point ``v`` in the closed unit ball: surface points are pure
states, interior points are density (mixed) states, and the center is the
maximally mixed state. A measurement along a unit axis ``u`` is modeled
mechanically: a breakable elastic of half-length ``epsilon`` is stretched
along ``u`` through the center, the particle falls orthogonally onto the
elastic at the projection point ``a = v . u``, the elastic snaps at a point
drawn uniformly from ``[-epsilon, epsilon]``, and the particle is pulled to
the surface endpoint on the side of the break. Landing at ``+u`` is the
*yes* outcome, ``-u`` is *no*.

The break-point average gives the analytic outcome law

    p_yes = 1                     if a >= epsilon
    p_yes = 0                     if a <= -epsilon
    p_yes = (epsilon + a) / (2 epsilon)   otherwise

At ``epsilon = 1`` this reproduces the quantum transition probabilities
cos^2(theta/2) on surface states; at ``epsilon = 0`` every outcome is
determined by the sign of the projection (yes on ties), so the model is
classical; intermediate values interpolate between the two regimes.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .operational import OutcomeProb
from .validation import (
    UNIT_ATOL,
    ValidationError,
    check_azimuthal_angle,
    check_epsilon,
    check_finite,
    check_polar_angle,
    store_checked,
)


class MeasurementOutcome(enum.Enum):
    """The two answers a dichotomic spin test can give."""

    YES = "yes"
    NO = "no"

    @property
    def is_yes(self) -> bool:
        return self is MeasurementOutcome.YES


@dataclass(frozen=True, slots=True)
class Direction:
    """Unit 3-vector: a measurement axis on the sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        store_checked(self, ("x", "y", "z"), check_finite)
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(norm - 1.0) > UNIT_ATOL:
            raise ValidationError(f"direction must have unit norm, got norm {norm}")

    @classmethod
    def from_angles(cls, theta: float, phi: float = 0.0) -> "Direction":
        """Axis at polar angle theta in [0, pi] and azimuth phi in [0, 2*pi).

        Angles are radians. Out-of-range values are rejected rather than
        wrapped, which catches accidental degree inputs early.
        """
        theta = check_polar_angle(theta)
        phi = check_azimuthal_angle(phi)
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        """Rescale an arbitrary nonzero vector onto the unit sphere."""
        for value, name in ((x, "x"), (y, "y"), (z, "z")):
            check_finite(value, name)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm < 1e-12:
            raise ValidationError("cannot normalize a (near-)zero vector to a direction")
        return cls(x / norm, y / norm, z / norm)

    def dot(self, other: "Direction") -> float:
        d = self.x * other.x + self.y * other.y + self.z * other.z
        # unit vectors: clip floating-point overshoot back into [-1, 1]
        return max(-1.0, min(1.0, d))

    def opposite(self) -> "Direction":
        return Direction(-self.x, -self.y, -self.z)


@dataclass(frozen=True, slots=True)
class BlochState:
    """Point in the closed unit ball; radius 1 means pure, 0 the center."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        store_checked(self, ("x", "y", "z"), check_finite)
        if self.norm() > 1.0 + UNIT_ATOL:
            raise ValidationError(f"state must lie in the unit ball, got norm {self.norm()}")

    @classmethod
    def center(cls) -> "BlochState":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_direction(cls, u: Direction) -> "BlochState":
        return cls(u.x, u.y, u.z)

    @classmethod
    def from_angles(cls, r: float, theta: float, phi: float = 0.0) -> "BlochState":
        """State at radius r in [0, 1] along the (theta, phi) axis."""
        r = check_finite(r, "r")
        if r < 0.0 or r > 1.0:
            raise ValidationError(f"r must lie in [0, 1], got {r}")
        theta = check_polar_angle(theta)
        phi = check_azimuthal_angle(phi)
        st = math.sin(theta)
        return cls(r * st * math.cos(phi), r * st * math.sin(phi), r * math.cos(theta))

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    @property
    def is_pure(self) -> bool:
        return abs(self.norm() - 1.0) <= UNIT_ATOL


@dataclass(frozen=True, slots=True)
class Spinor:
    """Normalized two-component amplitude vector for a pure state.

    The conventional parametrization is
    ``(cos(theta/2) e^{-i phi/2}, sin(theta/2) e^{i phi/2})``, which maps to
    the surface point at polar angle theta and azimuth phi.
    """

    c0: complex
    c1: complex

    def __post_init__(self) -> None:
        for name in ("c0", "c1"):
            value = getattr(self, name)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        total = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if abs(total - 1.0) > UNIT_ATOL:
            raise ValidationError(f"spinor must be normalized, got |c0|^2 + |c1|^2 = {total}")

    @classmethod
    def from_angles(cls, theta: float, phi: float = 0.0) -> "Spinor":
        theta = check_polar_angle(theta)
        phi = check_azimuthal_angle(phi)
        half_phase = cmath.exp(-0.5j * phi)
        return cls(math.cos(0.5 * theta) * half_phase, math.sin(0.5 * theta) * half_phase.conjugate())

    def to_bloch(self) -> BlochState:
        """Surface point of this pure state."""
        cross = self.c0 * self.c1.conjugate()
        return BlochState(2.0 * cross.real, -2.0 * cross.imag, abs(self.c0) ** 2 - abs(self.c1) ** 2)

    def density_matrix(self) -> "DensityMatrix":
        """Rank-1 projector |psi><psi|."""
        return DensityMatrix(
            d00=self.c0 * self.c0.conjugate(),
            d01=self.c0 * self.c1.conjugate(),
            d10=self.c1 * self.c0.conjugate(),
            d11=self.c1 * self.c1.conjugate(),
        )


@dataclass(frozen=True, slots=True)
class DensityMatrix:
    """2x2 Hermitian, trace-1, positive semidefinite matrix."""

    d00: complex
    d01: complex
    d10: complex
    d11: complex

    def __post_init__(self) -> None:
        for name in ("d00", "d01", "d10", "d11"):
            value = getattr(self, name)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if abs(self.d00.imag) > UNIT_ATOL or abs(self.d11.imag) > UNIT_ATOL:
            raise ValidationError("density matrix must be Hermitian: diagonal entries must be real")
        if abs(self.d01 - self.d10.conjugate()) > UNIT_ATOL:
            raise ValidationError("density matrix must be Hermitian: off-diagonal entries must be conjugate")
        trace = self.d00.real + self.d11.real
        if abs(trace - 1.0) > UNIT_ATOL:
            raise ValidationError(f"density matrix must have trace 1, got {trace}")
        # positive semidefinite for trace 1 iff det >= 0; allow round-off
        if self.determinant() < -UNIT_ATOL:
            raise ValidationError(
                f"density matrix must be positive semidefinite, got determinant {self.determinant()}"
            )

    @classmethod
    def from_array(cls, matrix: np.ndarray) -> "DensityMatrix":
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise ValidationError(f"density matrix must be 2x2, got shape {matrix.shape}")
        return cls(
            d00=complex(matrix[0, 0]),
            d01=complex(matrix[0, 1]),
            d10=complex(matrix[1, 0]),
            d11=complex(matrix[1, 1]),
        )

    def as_array(self) -> np.ndarray:
        return np.array([[self.d00, self.d01], [self.d10, self.d11]], dtype=complex)

    def determinant(self) -> float:
        return (self.d00 * self.d11 - self.d01 * self.d10).real

    def eigenvalues(self) -> tuple[float, float]:
        """Both eigenvalues, largest first; (1 + r)/2 and (1 - r)/2.

        The eigenvalue gap equals the Bloch radius, computed here from the
        entries directly; the textbook sqrt(trace^2 - 4 det) form cancels
        catastrophically for nearly maximally mixed states.
        """
        trace = self.d00.real + self.d11.real
        gap_squared = (self.d00 - self.d11).real ** 2 + 4.0 * (self.d01 * self.d10).real
        spread = math.sqrt(max(0.0, gap_squared))
        return (0.5 * (trace + spread), 0.5 * (trace - spread))


def projection(s: BlochState, u: Direction) -> float:
    """Landing point of the state on the measurement axis: a = v . u in [-1, 1]."""
    a = s.x * u.x + s.y * u.y + s.z * u.z
    return max(-1.0, min(1.0, a))


def outcome_probability(s: BlochState, u: Direction, epsilon: float) -> OutcomeProb:
    """Analytic yes/no law of the elastic measurement.

    The particle at projection ``a`` is pulled to *yes* when the break
    point lies at or below ``a``, so p_yes is the covered fraction of the
    elastic, clamped to certainty outside the breakable segment. The
    ``epsilon = 0`` elastic cannot break anywhere except the center, and
    the tie goes to *yes*: the outcome is the sign of ``a``.
    """
    epsilon = check_epsilon(epsilon)
    a = projection(s, u)
    # At epsilon = 0 this first clamp is the tie rule: a >= 0 answers yes.
    if a >= epsilon:
        p_yes = 1.0
    elif a <= -epsilon:
        p_yes = 0.0
    else:
        p_yes = (epsilon + a) / (2.0 * epsilon)
    return OutcomeProb(p_yes, 1.0 - p_yes)


def sample_measurement(
    s: BlochState, u: Direction, epsilon: float, rng: np.random.Generator
) -> tuple[MeasurementOutcome, BlochState]:
    """One trial of the elastic measurement; collapses the state.

    Draws the break point uniformly from ``[-epsilon, epsilon]`` (skipping
    the draw when the outcome is already certain), answers *yes* exactly
    when the break point is at or below the projection, and returns the
    collapsed surface state: ``+u`` on yes, ``-u`` on no. At
    ``epsilon = 0`` every outcome is certain and follows the sign of the
    projection, the tie going to *yes*.
    """
    epsilon = check_epsilon(epsilon)
    a = projection(s, u)
    # At epsilon = 0 every a is certain and this is the tie rule: a >= 0 answers yes.
    if abs(a) >= epsilon:
        yes = a >= epsilon
    else:
        lam = rng.uniform(-epsilon, epsilon)
        yes = lam <= a
    if yes:
        return (MeasurementOutcome.YES, BlochState.from_direction(u))
    return (MeasurementOutcome.NO, BlochState.from_direction(u.opposite()))


def to_density_matrix(s: BlochState) -> DensityMatrix:
    """Density matrix of the ball point (x, y, z): (I + v . sigma) / 2."""
    return DensityMatrix(
        d00=complex(0.5 * (1.0 + s.z), 0.0),
        d01=complex(0.5 * s.x, -0.5 * s.y),
        d10=complex(0.5 * s.x, 0.5 * s.y),
        d11=complex(0.5 * (1.0 - s.z), 0.0),
    )


def from_density_matrix(d: DensityMatrix) -> BlochState:
    """Ball point of a density matrix; inverse of :func:`to_density_matrix`."""
    return BlochState(
        x=2.0 * d.d10.real,
        y=2.0 * d.d10.imag,
        z=d.d00.real - d.d11.real,
    )

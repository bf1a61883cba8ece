"""Internal state space of the 2x2 complex matrix algebra.

Pure internal states are rays in C^2, identified with points of the Bloch
sphere S^2; mixed internal states are Bloch-ball vectors parameterising
density matrices rho = (1 + r.sigma)/2.  The latitude z = |xi1|^2 - |xi2|^2
and the angle along a parallel of constant latitude are the coordinates the
causal-order oracles work with.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
#: |z| above 1 - POLE_TOL counts as a pole of the internal sphere.
POLE_TOL = 1e-12
#: Gap below which the finite Dirac data counts as degenerate.
DEGENERATE_TOL = 1e-15
UNITARY_TOL = 1e-12
#: Largest difference per Bloch coordinate between two equal internal states.
STATE_EQ_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class PoleError(ValueError):
    """Raised when the parallel angle is requested at a pole, where it is undefined."""


@dataclass(frozen=True)
class DiracData:
    """Eigenvalues (d1, d2) of the finite-part Dirac operator."""

    d1: float
    d2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d1) and math.isfinite(self.d2)):
            raise ValueError("Dirac eigenvalues must be finite")
        if not math.isfinite(self.d1 - self.d2):
            raise ValueError(f"Dirac gap |d1 - d2| is not finite for ({self.d1}, {self.d2})")

    @property
    def gap(self) -> float:
        return abs(self.d1 - self.d2)

    @property
    def degenerate(self) -> bool:
        return self.gap <= DEGENERATE_TOL

    @classmethod
    def from_dict(cls, data: dict) -> "DiracData":
        return cls(float(data["d1"]), float(data["d2"]))


@dataclass(frozen=True)
class PureInternalState:
    """A normalised ray in C^2 held in canonical gauge.

    The canonical representative has xi1 real and >= 0; when xi1 = 0 (south
    pole) the convention is xi2 = 1.  Construction accepts any representative
    with norm within NORM_TOL of one and re-gauges it.
    """

    xi1: complex
    xi2: complex

    def __post_init__(self) -> None:
        n2 = abs(self.xi1) ** 2 + abs(self.xi2) ** 2
        if not abs(n2 - 1.0) <= 3.0 * NORM_TOL:  # refuses NaN too
            raise ValueError(f"state vector must be normalised, |xi|^2 = {n2}")
        xi1, xi2 = self.xi1, self.xi2
        norm = math.sqrt(n2)
        xi1, xi2 = xi1 / norm, xi2 / norm
        if abs(xi1) > 0.0:
            phase = xi1 / abs(xi1)
        elif abs(xi2) > 0.0:
            phase = xi2 / abs(xi2)
        else:  # unreachable after the norm check
            phase = 1.0
        xi1, xi2 = xi1 / phase, xi2 / phase
        # kill the residual imaginary dust on the gauged component
        xi1 = complex(xi1.real, 0.0)
        if xi1 == 0.0:
            xi2 = complex(abs(xi2), 0.0)
        object.__setattr__(self, "xi1", xi1)
        object.__setattr__(self, "xi2", xi2)

    @classmethod
    def from_components(cls, xi1: complex, xi2: complex) -> "PureInternalState":
        """Build from an arbitrary non-zero vector, normalising it first."""
        norm = math.sqrt(abs(xi1) ** 2 + abs(xi2) ** 2)
        if norm == 0.0:
            raise ValueError("zero vector does not define a state")
        return cls(xi1 / norm, xi2 / norm)

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "PureInternalState":
        n = math.sqrt(x * x + y * y + z * z)
        if not abs(n - 1.0) <= 1e-9:
            raise ValueError(f"Bloch vector of a pure state must be unit length, got {n}")
        x, y, z = x / n, y / n, z / n
        xi1 = math.sqrt(max((1.0 + z) / 2.0, 0.0))
        r = math.sqrt(max((1.0 - z) / 2.0, 0.0))
        if xi1 == 0.0:
            return cls(0.0, 1.0)
        return cls(xi1, r * cmath.exp(1j * math.atan2(y, x)))

    @classmethod
    def from_parallel(cls, z: float, theta: float) -> "PureInternalState":
        """State at latitude z and parallel angle theta."""
        if abs(z) > 1.0:
            raise ValueError(f"latitude must lie in [-1, 1], got {z}")
        xi1 = math.sqrt((1.0 + z) / 2.0)
        r = math.sqrt((1.0 - z) / 2.0)
        if xi1 == 0.0:
            return cls(0.0, 1.0)
        return cls(xi1, r * cmath.exp(1j * theta))

    def bloch(self) -> tuple[float, float, float]:
        cross = self.xi1.conjugate() * self.xi2
        return (
            2.0 * cross.real,
            2.0 * cross.imag,
            abs(self.xi1) ** 2 - abs(self.xi2) ** 2,
        )

    @property
    def z(self) -> float:
        return abs(self.xi1) ** 2 - abs(self.xi2) ** 2

    @property
    def is_pole(self) -> bool:
        return abs(self.z) >= 1.0 - POLE_TOL

    def vector(self) -> np.ndarray:
        return np.array([self.xi1, self.xi2], dtype=complex)


def parallel_angle(state: PureInternalState) -> float:
    """Angle of the state along its parallel, in (-pi, pi].

    Undefined at the poles; raises PoleError there so that callers branch on
    the pole case explicitly.
    """
    if state.is_pole:
        raise PoleError(f"parallel angle is undefined at a pole (z = {state.z})")
    theta = cmath.phase(state.xi2)
    if theta <= -math.pi:
        theta = math.pi
    return theta


def angular_distance(theta_a: float, theta_b: float) -> float:
    """Geodesic distance between two angles on the circle, in [0, pi]."""
    d = math.fmod(abs(theta_a - theta_b), 2.0 * math.pi)
    if d > math.pi:
        d = 2.0 * math.pi - d
    return d


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = math.fmod(theta + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def signed_arc(theta_from: float, theta_to: float) -> float:
    """Signed shorter arc from one angle to another, in (-pi, pi]."""
    return wrap_angle(theta_to - theta_from)


@dataclass(frozen=True)
class MixedInternalState:
    """Bloch-ball vector r with |r| <= 1, parameterising rho = (1 + r.sigma)/2."""

    rx: float
    ry: float
    rz: float

    def __post_init__(self) -> None:
        n2 = self.rx**2 + self.ry**2 + self.rz**2
        if not math.isfinite(n2):
            raise ValueError("Bloch vector must be finite")
        if n2 > 1.0 + 1e-12:
            raise ValueError(f"Bloch vector must lie in the unit ball, |r|^2 = {n2}")

    @classmethod
    def from_pure(cls, state: PureInternalState) -> "MixedInternalState":
        """The Bloch vector of a pure state; its ray is normalised, so the constructor's check is skipped."""
        mixed = object.__new__(cls)
        fields = mixed.__dict__  # the frozen dataclass's fields
        fields["rx"], fields["ry"], fields["rz"] = state.bloch()
        return mixed

    @property
    def norm(self) -> float:
        return math.sqrt(self.rx**2 + self.ry**2 + self.rz**2)

    @property
    def parallel_radius(self) -> float:
        """Radius of the projection onto the equatorial plane."""
        return math.hypot(self.rx, self.ry)

    @property
    def parallel_angle(self) -> float:
        """atan2(ry, rx); zero by convention when the projection vanishes."""
        return math.atan2(self.ry, self.rx)


def bloch_equal(a: MixedInternalState, b: MixedInternalState) -> bool:
    tol = STATE_EQ_TOL
    return abs(a.rx - b.rx) <= tol and abs(a.ry - b.ry) <= tol and abs(a.rz - b.rz) <= tol


@dataclass(frozen=True)
class InternalUnitary:
    """A 2x2 unitary acting on the internal space."""

    u: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
        defect = np.abs(u @ u.conj().T - np.eye(2)).max()
        if defect > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary, |U U* - 1| = {defect}")
        object.__setattr__(self, "u", u)

    @classmethod
    def identity(cls) -> "InternalUnitary":
        return cls(np.eye(2, dtype=complex))

    @classmethod
    def phase(cls, alpha: float) -> "InternalUnitary":
        return cls(np.diag([1.0, cmath.exp(1j * alpha)]).astype(complex))

    @classmethod
    def pauli_x(cls) -> "InternalUnitary":
        return cls(PAULI_X.copy())

    @classmethod
    def haar_random(cls, rng: np.random.Generator) -> "InternalUnitary":
        """Haar-distributed unitary from a QR decomposition of a Ginibre matrix."""
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        return cls(q)


def apply_unitary(u: InternalUnitary, state: PureInternalState) -> PureInternalState:
    """Canonical representative of U.xi; the norm is preserved."""
    vec = u.u @ state.vector()
    return PureInternalState.from_components(complex(vec[0]), complex(vec[1]))


def pure_state_from_dict(data: dict) -> PureInternalState:
    """Read a pure internal state from {"xi": [[re,im],[re,im]]} or {"bloch": [x,y,z]}."""
    if "xi" in data:
        (a, b), (c, d) = data["xi"]
        return PureInternalState.from_components(complex(a, b), complex(c, d))
    if "bloch" in data:
        x, y, z = data["bloch"]
        return PureInternalState.from_bloch(float(x), float(y), float(z))
    raise ValueError('pure state needs an "xi" or "bloch" entry')


def mixed_state_from_dict(data: dict) -> MixedInternalState:
    """Read a mixed internal state from {"bloch": [x,y,z]}."""
    if "bloch" not in data:
        raise ValueError('mixed state needs a "bloch" entry')
    x, y, z = data["bloch"]
    return MixedInternalState(float(x), float(y), float(z))

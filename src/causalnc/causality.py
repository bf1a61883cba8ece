"""Closed-form causal-order oracles on the state space.

A pure state is an event paired with a point of the internal sphere; a mixed
state pairs an event with a Bloch-ball vector.  Two pure states are causally
related exactly when the events are causally ordered, the internal latitudes
agree, and the maximal proper time between the events covers the angular
distance along the parallel divided by the Dirac gap.  The mixed-state
criterion replaces the angular distance by a supremum of arccos differences
of projected parallel radii, computed numerically here (no closed form is
claimed for it).

Conventions: angular separations are measured by the circle geodesic
distance in [0, pi]; a boundary-exact proper time counts as related, decided
with an absolute slack of 1e-12; states within 1e-12 of a pole are treated
as the pole itself, where the parallel angle is undefined and no internal
motion is possible (any proper time suffices there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .minkowski import SpacetimePoint, causally_precedes, lerp, max_proper_time
from .states import (
    DiracData,
    MixedInternalState,
    POLE_TOL,
    PureInternalState,
    angular_distance,
    bloch_equal,
    parallel_angle,
    signed_arc,
    states_equal,
)

LATITUDE_TOL = 1e-12
#: Absolute slack on the proper-time-versus-angle comparison.
BOUND_SLACK = 1e-12
STATE_EQ_TOL = 1e-12

#: Dense-scan resolution for the mixed-state angular supremum.
SCAN_SAMPLES = 4096
REFINE_TOL = 1e-10


class Reason(str, Enum):
    """Which branch of the criterion decided a verdict."""

    OK = "OK"
    SPACETIME_ORDER = "SPACETIME_ORDER"
    LATITUDE_MISMATCH = "LATITUDE_MISMATCH"
    SPEED_BOUND = "SPEED_BOUND"
    DEGENERATE_INTERNAL_CHANGE = "DEGENERATE_INTERNAL_CHANGE"


@dataclass(frozen=True)
class PureState:
    point: SpacetimePoint
    internal: PureInternalState


@dataclass(frozen=True)
class MixedState:
    point: SpacetimePoint
    internal: MixedInternalState


@dataclass(frozen=True)
class CausalVerdict:
    """Decision plus a structured explanation.

    bound_required is the proper time the internal motion demands and
    bound_available the maximal proper time between the events; both are
    populated whenever the speed bound was actually consulted (reason OK or
    SPEED_BOUND).
    """

    related: bool
    reason: Reason
    bound_required: Optional[float] = None
    bound_available: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "related": self.related,
            "reason": self.reason.value,
            "bound_required": self.bound_required,
            "bound_available": self.bound_available,
        }


def pure_causal(omega: PureState, eta: PureState, dirac: DiracData) -> CausalVerdict:
    """Decide whether omega precedes eta in the causal order on pure states."""
    if not causally_precedes(omega.point, eta.point):
        return CausalVerdict(False, Reason.SPACETIME_ORDER)
    available = max_proper_time(omega.point, eta.point)
    xi, phi = omega.internal, eta.internal
    if dirac.degenerate:
        if states_equal(xi, phi, STATE_EQ_TOL):
            return CausalVerdict(True, Reason.OK, 0.0, available)
        return CausalVerdict(False, Reason.DEGENERATE_INTERNAL_CHANGE)
    if abs(xi.z - phi.z) > LATITUDE_TOL:
        return CausalVerdict(False, Reason.LATITUDE_MISMATCH)
    if xi.is_pole or phi.is_pole:
        # same latitude at |z| = 1 pins both states to the same pole
        return CausalVerdict(True, Reason.OK, 0.0, available)
    required = angular_distance(parallel_angle(xi), parallel_angle(phi)) / dirac.gap
    if available >= required - BOUND_SLACK:
        return CausalVerdict(True, Reason.OK, required, available)
    return CausalVerdict(False, Reason.SPEED_BOUND, required, available)


def _arc_difference(theta, radius_a, angle_a, radius_b, angle_b):
    """|arccos(radius_b cos(angle_b+theta)) - arccos(radius_a cos(angle_a+theta))|."""
    ua = np.clip(radius_a * np.cos(angle_a + theta), -1.0, 1.0)
    ub = np.clip(radius_b * np.cos(angle_b + theta), -1.0, 1.0)
    return np.abs(np.arccos(ub) - np.arccos(ua))


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximisation on a bracket, to a width of REFINE_TOL."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > REFINE_TOL:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    return f(mid), mid


def _mixed_angle_sup(rho: MixedInternalState, sigma: MixedInternalState) -> tuple[float, float]:
    """Supremum (and its argmax) of the projected arccos difference.

    Dense scan over SCAN_SAMPLES angles, then golden-section refinement of
    the brackets around the few highest local scan maxima (near-tied rival
    peaks are generic for this objective, so refining only the single best
    bracket could undershoot the supremum by a scan step).
    """
    z = 0.5 * (rho.rz + sigma.rz)
    width = math.sqrt(max(1.0 - z * z, 0.0))
    ra = min(rho.parallel_radius / width, 1.0)
    rb = min(sigma.parallel_radius / width, 1.0)
    ta, tb = rho.parallel_angle, sigma.parallel_angle

    thetas = np.linspace(0.0, 2.0 * math.pi, SCAN_SAMPLES, endpoint=False)
    values = _arc_difference(thetas, ra, ta, rb, tb)
    peaks = np.nonzero(
        (values >= np.roll(values, 1)) & (values >= np.roll(values, -1))
    )[0]
    candidates = peaks[np.argsort(values[peaks])][-4:]
    h = 2.0 * math.pi / SCAN_SAMPLES

    f = lambda theta: float(_arc_difference(theta, ra, ta, rb, tb))
    best_index = int(np.argmax(values))
    value, theta_star = float(values[best_index]), float(thetas[best_index])
    for index in candidates:
        refined, at = _golden_max(f, thetas[index] - h, thetas[index] + h)
        if refined > value:
            value, theta_star = refined, at
    return value, theta_star


def mixed_required_angle(rho: MixedInternalState, sigma: MixedInternalState) -> float:
    """Angular budget two same-latitude mixed states demand of a causal path.

    This is the supremum over a rotation angle of the difference of arccos
    of the projected parallel radii; for pure states on a common parallel it
    reduces to the plain angular distance.
    """
    if abs(rho.rz - sigma.rz) > LATITUDE_TOL:
        raise ValueError(f"latitudes differ: {rho.rz} vs {sigma.rz}")
    z = 0.5 * (rho.rz + sigma.rz)
    if abs(z) >= 1.0 - POLE_TOL:
        if bloch_equal(rho, sigma, STATE_EQ_TOL):
            return 0.0
        raise ValueError("the required angle is undefined at the poles")
    return _mixed_angle_sup(rho, sigma)[0]


def mixed_causal(omega: MixedState, eta: MixedState, dirac: DiracData) -> CausalVerdict:
    """Causal-order decision for states with mixed internal parts."""
    if not causally_precedes(omega.point, eta.point):
        return CausalVerdict(False, Reason.SPACETIME_ORDER)
    available = max_proper_time(omega.point, eta.point)
    rho, sigma = omega.internal, eta.internal
    if dirac.degenerate:
        if bloch_equal(rho, sigma, STATE_EQ_TOL):
            return CausalVerdict(True, Reason.OK, 0.0, available)
        return CausalVerdict(False, Reason.DEGENERATE_INTERNAL_CHANGE)
    if abs(rho.rz - sigma.rz) > LATITUDE_TOL:
        return CausalVerdict(False, Reason.LATITUDE_MISMATCH)
    z = 0.5 * (rho.rz + sigma.rz)
    if abs(z) >= 1.0 - POLE_TOL:
        # |z| = 1 forces both Bloch vectors onto the pole itself
        return CausalVerdict(True, Reason.OK, 0.0, available)
    required = _mixed_angle_sup(rho, sigma)[0] / dirac.gap
    if available >= required - BOUND_SLACK:
        return CausalVerdict(True, Reason.OK, required, available)
    return CausalVerdict(False, Reason.SPEED_BOUND, required, available)


@dataclass(frozen=True)
class PathSample:
    s: float
    point: SpacetimePoint
    internal: PureInternalState


def plan_causal_path(
    omega: PureState, eta: PureState, dirac: DiracData, n: int
) -> list[PathSample]:
    """Sample a feasible path witnessing a causal relation between pure states.

    The spacetime leg is the straight segment traversed at constant velocity;
    the internal angle advances at the maximal admissible rate (Dirac gap per
    unit proper time) along the shorter arc and holds once the target angle
    is reached.  Every prefix of the returned path is itself causally
    related to the start, and every sample is related to the end.
    """
    if n < 1:
        raise ValueError("need at least one segment")
    verdict = pure_causal(omega, eta, dirac)
    if not verdict.related:
        raise ValueError(f"states are not causally related ({verdict.reason.value})")
    xi, phi = omega.internal, eta.internal
    total = max_proper_time(omega.point, eta.point)

    constant_internal = (
        dirac.degenerate or xi.is_pole or phi.is_pole or states_equal(xi, phi, STATE_EQ_TOL)
    )
    samples = []
    if constant_internal:
        for k in range(n + 1):
            s = k / n
            samples.append(PathSample(s, lerp(omega.point, eta.point, s), xi))
        return samples

    theta_start = parallel_angle(xi)
    arc = signed_arc(theta_start, parallel_angle(phi))
    direction = 1.0 if arc >= 0.0 else -1.0
    target = abs(arc)
    z = xi.z
    for k in range(n + 1):
        s = k / n
        travelled = min(dirac.gap * s * total, target)
        theta = theta_start + direction * travelled
        samples.append(
            PathSample(s, lerp(omega.point, eta.point, s), PureInternalState.from_parallel(z, theta))
        )
    return samples

"""Closed-form causal-order oracles on the state space.

A pure state is an event paired with a point of the internal sphere; a mixed
state pairs an event with a Bloch-ball vector, and pure states are decided as
the sphere case of the one mixed decision.  Two states are related exactly
when the events are causally ordered, the latitudes agree, and the maximal
proper time between the events covers the required internal angle divided by
the Dirac gap.  On the sphere that angle is the angular distance along the
parallel; inside the ball it is a supremum over a rotation angle of arccos
differences of projected parallel radii, in closed form: the maximum over the
at most four roots of the squared stationarity condition, the four kinks and
the midpoints between consecutive candidates.

Conventions: angular separations are measured by the circle geodesic
distance in [0, pi]; a boundary-exact proper time counts as related, decided
with a slack of 1e-12 radians of internal angle (1e-12/gap of proper time,
so a large gap relates no distinct states at one event); a pair whose mean
latitude lies within 1e-12 of a pole is treated as the pole itself, where
the parallel angle is undefined and no internal motion is possible (any
proper time suffices there).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .minkowski import SpacetimePoint, causally_precedes, lerp, max_proper_time
from .states import (
    POLE_TOL,
    DiracData,
    MixedInternalState,
    PureInternalState,
    angular_distance,
    bloch_equal,
    signed_arc,
)

LATITUDE_TOL = 1e-12
#: Slack, in radians of internal angle, on the proper-time-versus-angle comparison.
BOUND_SLACK = 1e-12

#: Largest 1 - |r|^2 of a Bloch vector on the sphere; MixedInternalState.from_pure's stay within 8 ulps.
SPHERE_BAND = 64 * 2.0**-52
#: Candidates of the mixed-state supremum this close to the maximum count as attaining it.
PLATEAU_TOL = 1e-12
#: _mixed_angle_sup's result: the supremum, an argmax and the projected arccos values there.
Sup = tuple[float, float, float, float]
#: Most segments plan_causal_path samples: the path holds n + 1 samples, about
#: 55 MB of samples and CSV text at this bound.
MAX_PATH_SEGMENTS = 100_000


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
    SPEED_BOUND).  to_dict adds within_tolerance: the pair is related only
    through BOUND_SLACK (bound_available < bound_required).
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
            "within_tolerance": self.related and self.bound_available < self.bound_required,
        }


def pure_causal(omega: PureState, eta: PureState, dirac: DiracData) -> CausalVerdict:
    """Decide whether omega precedes eta: mixed_causal's decision on their Bloch vectors."""
    bloch = MixedInternalState.from_pure
    return _decide(omega.point, eta.point, bloch(omega.internal), bloch(eta.internal), dirac)[0]


def _speed_bound_verdict(required: float, available: float, dirac: DiracData) -> CausalVerdict:
    """Related iff the available proper time covers the required one, up to BOUND_SLACK radians."""
    related = available >= required - BOUND_SLACK / dirac.gap
    return CausalVerdict(related, Reason.OK if related else Reason.SPEED_BOUND, required, available)


def _arc(radius, angle):
    """arccos(radius cos(angle)) for 0 <= radius <= 1, accurate up to radius = 1.

    1 -+ r cos(y) = (1 - r) + 2 r sin^2(y/2) (resp. cos^2(y/2)): the
    square-root singularity of arccos at +-1 amplifies no rounding.  radius
    broadcasts to angle's shape.  Both halves are stacked and evaluated
    with one np.sin, one np.cos and one np.arctan2, squared, scaled, shifted
    and rooted in place, so a call on any number of arcs, such as the 32 of
    _mixed_angle_sup, makes a fixed dozen numpy calls.
    """
    half = np.multiply(angle, 0.5)
    terms = np.empty((2, *np.shape(half)))  # sin^2(y/2), then cos^2(y/2)
    np.sin(half, out=terms[0, ...])
    np.cos(half, out=terms[1, ...])
    terms *= terms
    terms *= np.multiply(radius, 2.0)
    terms += np.subtract(1.0, radius)
    np.sqrt(terms, out=terms)
    arcs = np.arctan2(terms[0], terms[1])
    arcs *= 2.0
    return arcs


def _mixed_angle_sup(rho: MixedInternalState, sigma: MixedInternalState) -> Sup:
    """The supremum of mixed_required_angle, an argmax theta_star, and the
    projected arccos values of rho and sigma at theta_star.

    The squared stationarity condition (A cos 2theta + B sin 2theta = C)
    splits into two sign branches linear in (cos theta, sin theta), each with
    one root modulo pi.  A branch whose coefficients vanish (A = B = C = 0:
    ra = rb with ta = tb mod pi, or both radii in {0, 1}) holds for every
    theta and adds only the harmless candidates atan2(0, 0) = 0 and pi.  On a
    flat maximum (generic for a unit radius) theta_star is the candidate
    within PLATEAU_TOL of the maximum whose projected arccos values lie
    furthest from 0 and pi, so a witness scheduled on it stays inside them;
    the first such candidate wins a tie.

    The 16 candidates are Python floats, and so is the argmax search over
    them; the 32 arcs at them, both states' at every candidate, come from
    one _arc call on the (2, 16) stack of ta + theta and tb + theta.
    """
    z = 0.5 * (rho.rz + sigma.rz)
    width = math.sqrt(max(1.0 - z * z, 0.0))
    ra = min(rho.parallel_radius / width, 1.0)
    rb = min(sigma.parallel_radius / width, 1.0)
    ta, tb = rho.parallel_angle, sigma.parallel_angle
    wa = ra * math.sqrt((1.0 - rb) * (1.0 + rb))
    wb = rb * math.sqrt((1.0 - ra) * (1.0 + ra))
    roots = [-ta, math.pi - ta, -tb, math.pi - tb]
    for sign in (1.0, -1.0):
        # wa sin(ta + theta) = sign wb sin(tb + theta)
        root = math.atan2(sign * wb * math.sin(tb) - wa * math.sin(ta), wa * math.cos(ta) - sign * wb * math.cos(tb))
        roots += [root, root + math.pi]
    turn = 2.0 * math.pi
    kinks = sorted([root % turn for root in roots])
    # the 8 sorted roots and kinks, then the midpoint after each, cyclically
    thetas = kinks + [0.5 * (lo + hi) for lo, hi in zip(kinks, kinks[1:] + [kinks[0] + turn])]
    arcs_a, arcs_b = _arc(np.array([[ra], [rb]]), np.array([[ta], [tb]]) + thetas).tolist()

    values = [abs(arc_b - arc_a) for arc_a, arc_b in zip(arcs_a, arcs_b)]
    best = max(values)
    cut = best - PLATEAU_TOL
    k, clearance = 0, -1.0  # every arc lies in [0, pi], so the best candidate sets k
    for i, value in enumerate(values):
        if value >= cut:
            arc_a, arc_b = arcs_a[i], arcs_b[i]
            clear = min(arc_a, math.pi - arc_a, arc_b, math.pi - arc_b)
            if clear > clearance:
                k, clearance = i, clear
    return best, thetas[k], arcs_a[k], arcs_b[k]


def _required_angle(rho: MixedInternalState, sigma: MixedInternalState) -> tuple[float, Optional[Sup]]:
    """The angle a same-latitude pair off the poles demands, and the Sup it took.

    On the unit sphere (|r|^2 >= 1 - SPHERE_BAND for both) it is the paper's
    closed form, the angular distance of the parallel angles, and takes no
    Sup (None); inside the ball it is the supremum.
    """
    if min(rho.norm, sigma.norm) ** 2 >= 1.0 - SPHERE_BAND:
        return angular_distance(rho.parallel_angle, sigma.parallel_angle), None
    sup = _mixed_angle_sup(rho, sigma)
    return sup[0], sup


def mixed_required_angle(rho: MixedInternalState, sigma: MixedInternalState) -> float:
    """Angular budget two same-latitude mixed states demand of a causal path.

    This is the supremum over theta of |arccos(rb cos(tb+theta)) -
    arccos(ra cos(ta+theta))|, ra, rb the parallel radii relative to the
    shared parallel and ta, tb the parallel angles; for pure states it is the
    plain angular distance.  Closed form: the maximum over the at most four
    roots of ra^2 (1-rb^2) sin^2(ta+theta) = rb^2 (1-ra^2) sin^2(tb+theta)
    (the squared stationarity condition), the kinks theta = -ta, pi-ta, -tb,
    pi-tb, and the midpoints between consecutive candidates (a flat maximum).
    """
    if abs(rho.rz - sigma.rz) > LATITUDE_TOL:
        raise ValueError(f"latitudes differ: {rho.rz} vs {sigma.rz}")
    z = 0.5 * (rho.rz + sigma.rz)
    if abs(z) >= 1.0 - POLE_TOL:
        if bloch_equal(rho, sigma):
            return 0.0
        raise ValueError("the required angle is undefined at the poles")
    return _required_angle(rho, sigma)[0]


def mixed_causal(omega: MixedState, eta: MixedState, dirac: DiracData) -> CausalVerdict:
    """Causal-order decision for states with mixed internal parts."""
    return _decide(omega.point, eta.point, omega.internal, eta.internal, dirac)[0]


def _decide(
    p: SpacetimePoint, q: SpacetimePoint, rho: MixedInternalState, sigma: MixedInternalState, dirac: DiracData
) -> tuple[CausalVerdict, Optional[Sup]]:
    """The causal-order decision, with the Sup it was decided by (None if it needed none).

    A caller that builds on a verdict off the sphere reads the supremum
    without computing it again.
    """
    if not causally_precedes(p, q):
        return CausalVerdict(False, Reason.SPACETIME_ORDER), None
    available = max_proper_time(p, q)
    if dirac.degenerate:
        if bloch_equal(rho, sigma):
            return CausalVerdict(True, Reason.OK, 0.0, available), None
        return CausalVerdict(False, Reason.DEGENERATE_INTERNAL_CHANGE), None
    if abs(rho.rz - sigma.rz) > LATITUDE_TOL:
        return CausalVerdict(False, Reason.LATITUDE_MISMATCH), None
    if abs(0.5 * (rho.rz + sigma.rz)) >= 1.0 - POLE_TOL:
        # |z| = 1 forces both Bloch vectors onto the pole itself
        return CausalVerdict(True, Reason.OK, 0.0, available), None
    angle, sup = _required_angle(rho, sigma)
    return _speed_bound_verdict(angle / dirac.gap, available, dirac), sup


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
    if not 1 <= n <= MAX_PATH_SEGMENTS:
        raise ValueError(f"need 1 to {MAX_PATH_SEGMENTS} segments, got {n}")
    verdict = pure_causal(omega, eta, dirac)
    if not verdict.related:
        raise ValueError(f"states are not causally related ({verdict.reason.value})")
    xi, phi = omega.internal, eta.internal
    total = max_proper_time(omega.point, eta.point)

    samples = []
    if verdict.bound_required == 0.0:  # no internal motion: equal states, a pole or a degenerate gap
        for k in range(n + 1):
            s = k / n
            samples.append(PathSample(s, lerp(omega.point, eta.point, s), xi))
        return samples

    # phase(xi2) is the parallel angle, and defined also within POLE_TOL of a pole
    theta_start = cmath.phase(xi.xi2)
    arc = signed_arc(theta_start, cmath.phase(phi.xi2))
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

"""Separating-element certificates for non-causal pure-state pairs.

When the closed-form oracle says a same-latitude pair is NOT related because
the available proper time is short of the required internal angle, an
explicit causal element separates the two states.  Along the straight
worldline between the events its off-diagonal field follows the schedule

    c(l) = -csc(g*l + eps) * exp(i*theta_c),      g = Dirac gap,

with eps > 0 chosen so that the whole schedule stays inside (0, pi), and
its diagonal derivative fields are fixed (up to constants) by the velocity
profile of the worldline.  The certificate produced here bundles

* the closed-form endpoint values of both sides of the separation
  inequality (the pairing difference must come out strictly negative),
* a numerical re-derivation of the left side by composite-Simpson
  integration of the diagonal derivative fields, and
* a positive-semidefiniteness certification of the element along the
  worldline via the four characteristic-polynomial coefficients of its
  cone matrix, in closed form in the seven cone entries (cone._charpoly);
  the two leading ones are also matched against their closed forms in the
  schedule.

The element is only evaluated along the worldline and at its endpoints; a
global extension off the curve exists but is never needed quantitatively,
so none is constructed.  Exactly antipodal internal angles (distance pi)
admit no direct certificate here and are rejected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .causality import MixedState, PureState, Reason, _mixed_angle_sup, mixed_causal, pure_causal
from .cone import _charpoly, _node_scales
from .minkowski import SpacetimePoint, max_proper_time
from .states import DiracData, angular_distance, parallel_angle, signed_arc, wrap_angle

ANGLE_TOL = 1e-12
#: Relative tolerance for closed-form versus computed / integrated values.
MATCH_RTOL = 1e-8
#: Normalised characteristic-coefficient tolerances (scale-free).
COEFF_POS_TOL = 1e-12
COEFF_ZERO_TOL = 1e-9
#: Composite-Simpson panels for lhs_by_integration; even, as the rule needs.
SIMPSON_PANELS = 4000


class WitnessOverflowError(ValueError):
    """A certificate value does not fit in a float: the Dirac gap is too large."""


def _require_finite(values, gap: float, what: str) -> None:
    if not np.isfinite(values).all():
        raise WitnessOverflowError(f"Dirac gap {gap} is too large: {what} does not fit in a float")


@dataclass(frozen=True)
class WitnessSpec:
    """A separating element pinned down along the straight worldline from p to q.

    epsilon and theta_c fix the off-diagonal schedule; abs_phi1/abs_phi2 are
    the moduli of the internal components shared by the pair; delta_theta is
    the angular separation the pair would need.  q must lie strictly inside
    the future light cone of p, so that the worldline is timelike with
    constant velocity, or coincide with p (a one-event worldline of zero
    proper time).
    """

    epsilon: float
    theta_c: float
    p: SpacetimePoint
    q: SpacetimePoint
    abs_phi1: float
    abs_phi2: float
    dirac: DiracData
    delta_theta: float

    def __post_init__(self) -> None:
        dt, dx = self.q.t - self.p.t, self.q.x - self.p.x
        if self.q != self.p and not abs(dx) < dt:
            kind = "lightlike" if abs(dx) == dt else "spacelike or past-directed"
            raise ValueError(f"{kind} endpoint separation: no timelike worldline to schedule on")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not self.delta_theta + self.epsilon < math.pi:
            raise ValueError("the schedule requires delta_theta + epsilon < pi")
        if self.dirac.degenerate:
            raise ValueError("a degenerate Dirac gap admits no schedule")
        if not min(self.abs_phi1, self.abs_phi2) > 0.0:
            raise ValueError("pole states carry no parallel angle to separate")
        gap_l = self.dirac.gap * max_proper_time(self.p, self.q)
        if gap_l >= self.delta_theta:
            raise ValueError("worldline too long: the pair is causally related")

    def velocity(self) -> float:
        """Coordinate velocity dx/dt of the worldline; 0 when it is a single event."""
        return 0.0 if self.q == self.p else (self.q.x - self.p.x) / (self.q.t - self.p.t)

    def schedule(self, l: float | np.ndarray):
        """The angle Theta(l) = gap*l + epsilon driving the csc schedule."""
        return self.dirac.gap * np.asarray(l, dtype=float) + self.epsilon

    def c_field(self, l: float) -> complex:
        """Off-diagonal field value at proper time l along the worldline."""
        return -1.0 / math.sin(float(self.schedule(l))) * cmath.exp(1j * self.theta_c)


def _require_speed_bound_refusal(verdict) -> None:
    """Witnesses exist only for pairs the oracle refuses by the speed bound."""
    if verdict.related:
        raise ValueError("the states are causally related; no separating element exists")
    if verdict.reason is not Reason.SPEED_BOUND:
        raise ValueError(
            f"witness construction needs a speed-bound refusal, got {verdict.reason.value}"
        )


def build_witness(
    omega: PureState, eta: PureState, dirac: DiracData, epsilon: Optional[float] = None
) -> WitnessSpec:
    """Construct the separating element's schedule for a non-related pair.

    Preconditions: the events are causally ordered, the internal states share
    a latitude away from the poles, the angular separation lies strictly
    inside (0, pi), the Dirac gap is positive, and the closed-form oracle
    says NOT related (speed bound).  The default epsilon centres the schedule
    inside (0, pi), which maximises the distance from the csc singularities.
    """
    verdict = pure_causal(omega, eta, dirac)
    _require_speed_bound_refusal(verdict)
    theta_from = parallel_angle(omega.internal)
    theta_to = parallel_angle(eta.internal)
    delta = angular_distance(theta_from, theta_to)
    if delta >= math.pi - ANGLE_TOL:
        raise ValueError("antipodal angles are refuted by transitivity, not by a direct witness")
    if delta <= ANGLE_TOL:
        raise ValueError("coinciding angles cannot be separated")
    if epsilon is None:
        epsilon = 0.5 * (math.pi - delta)
    direction = 1.0 if signed_arc(theta_from, theta_to) >= 0.0 else -1.0
    return WitnessSpec(
        epsilon=float(epsilon),
        theta_c=wrap_angle(direction * epsilon - theta_from),
        p=omega.point,
        q=eta.point,
        abs_phi1=abs(eta.internal.xi1),
        abs_phi2=abs(eta.internal.xi2),
        dirac=dirac,
        delta_theta=delta,
    )


def separation_values(spec: WitnessSpec) -> tuple[float, float]:
    """Closed-form values of both sides of the separation inequality.

    Returns (lhs, rhs) where lhs is the latitude-weighted growth of the
    diagonal fields between the endpoints and rhs the real pairing of the
    off-diagonal schedule with the internal states.  For every valid spec
    lhs < rhs strictly, which contradicts the pairing inequality any causal
    relation would impose.
    """
    gap_l = spec.dirac.gap * max_proper_time(spec.p, spec.q)
    eps = spec.epsilon
    pref = 2.0 * spec.abs_phi1 * spec.abs_phi2
    cot = lambda u: math.cos(u) / math.sin(u)
    lhs = pref * (-cot(gap_l + eps) + cot(eps))
    rhs = pref * (-math.cos(spec.delta_theta + eps) / math.sin(gap_l + eps) + cot(eps))
    return lhs, rhs


def lhs_by_integration(spec: WitnessSpec) -> float:
    """Re-derive the lhs by integrating the diagonal derivative fields.

    Composite Simpson in coordinate time along the worldline, evaluating the
    scheduled field derivatives literally; used to cross-check the closed
    form within MATCH_RTOL.  A one-event worldline integrates over an empty
    interval and gives 0.  Raises WitnessOverflowError, naming the Dirac
    gap, when the integral does not fit in a float.
    """
    gap = spec.dirac.gap
    k1, k2 = spec.abs_phi1, spec.abs_phi2
    dt = spec.q.t - spec.p.t
    v = spec.velocity()
    lam1, lam2 = (1.0 + v) / 2.0, (1.0 - v) / 2.0
    sqrt_ll = math.sqrt(lam1 * lam2)
    n = SIMPSON_PANELS
    tau = np.linspace(0.0, dt, n + 1)
    csc2 = 1.0 / np.sin(spec.schedule(tau * math.sqrt(1.0 - v * v))) ** 2
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = gap / (2.0 * sqrt_ll) * (k2 / k1) * csc2
        a1 = -v * a0
        b0 = gap / (2.0 * sqrt_ll) * (k1 / k2) * csc2
        b1 = -v * b0
        integrand = k1 * k1 * (a0 + v * a1) + k2 * k2 * (b0 + v * b1)
        lhs = float((dt / n) / 3.0 * np.dot(weights, integrand))
    _require_finite(lhs, gap, "the integrated lhs")
    return lhs


@dataclass(frozen=True)
class CoeffSample:
    """Characteristic-polynomial data of the element's matrix at one sample."""

    s: float  # fraction of total proper time
    l: float
    c1: float
    c2: float
    c3: float
    c4: float
    c1_closed: float
    c2_closed: float
    scale: float
    passed: bool

    def to_dict(self) -> dict:
        return {"s": self.s, "c1": self.c1, "c2": self.c2, "c3": self.c3, "c4": self.c4}


@dataclass(frozen=True, eq=False)
class PsdCertification:
    """Verdict plus one row per sample of the CoeffSample fields (passed as 1.0 or 0.0).

    samples and first_failure are built from rows on each access, so a
    certificate holds one float array instead of n objects.
    """

    passed: bool
    rows: np.ndarray

    @property
    def samples(self) -> list[CoeffSample]:
        return [CoeffSample(*row[:-1], passed=row[-1] == 1.0) for row in self.rows.tolist()]

    @property
    def first_failure(self) -> Optional[CoeffSample]:
        return next((sample for sample in self.samples if not sample.passed), None)


def _witness_entries(spec: WitnessSpec, l: np.ndarray):
    """The element's cone-matrix entries (ap, am, bp, bm, u, z, w) at proper times l.

    Order and signs are those of cone._cone_entries, so cone._matrices
    assembles the 4x4 matrices.  The off-diagonal derivative fields are
    split proportionally between the two null directions, u = c_t + c_x =
    g sqrt(lam2/lam1) cos(Theta) csc^2(Theta) e^(i theta_c) and mirrored for
    z = c_t - c_x, which is the unique proportional split consistent with
    the chain rule applied to the csc schedule along the worldline.  The
    resulting matrix is isospectral to the one with the cosine entries
    negated (replace Theta by pi - Theta), so every certified quantity is
    insensitive to that off-curve choice.
    """
    theta = spec.schedule(l)
    v = spec.velocity()
    lam1, lam2 = (1.0 + v) / 2.0, (1.0 - v) / 2.0
    r21 = np.sqrt(lam2 / lam1)
    r12 = np.sqrt(lam1 / lam2)
    k1, k2 = spec.abs_phi1, spec.abs_phi2
    pm = 1.0 if spec.dirac.d1 >= spec.dirac.d2 else -1.0
    phase = cmath.exp(1j * spec.theta_c)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    pref = spec.dirac.gap / np.float_power(sin_t, 2)
    return (
        pref * r21 * (k2 / k1),
        pref * r12 * (k2 / k1),
        pref * r21 * (k1 / k2),
        pref * r12 * (k1 / k2),
        pref * r21 * cos_t * phase,
        pref * r12 * cos_t * phase,
        -pref * pm * sin_t * phase,  # (d1 - d2) c
    )


def certify_witness_psd(spec: WitnessSpec, n: int) -> PsdCertification:
    """Certify the element's membership matrix along the worldline.

    The cone-matrix entries at all n proper-time samples are certified in
    one batch: cone._charpoly gives the coefficients of det(A - lambda) =
    lambda^4 - c1 lambda^3 + c2 lambda^2 - c3 lambda + c4 in closed form.
    The matrix is PSD iff all four are non-negative; here c3 and c4 vanish
    identically, so the test is c1, c2 >= 0 and c3, c4 = 0 within
    tolerance.  Tolerances are applied to coefficients of the entries
    scaled by 1/scale, scale = cone._node_scales (max(1, largest absolute
    entry)), i.e. they grow with the k-th power of the scale for the k-th
    coefficient.  c1 and c2 must also match their closed forms in the
    schedule within MATCH_RTOL.  first_failure is the earliest failing
    sample.  Raises WitnessOverflowError, naming the Dirac gap, when a
    coefficient does not fit in a float.
    """
    if n < 2:
        raise ValueError("need at least two certification samples")
    gap = spec.dirac.gap
    k1, k2 = spec.abs_phi1, spec.abs_phi2
    frac = np.arange(n) / (n - 1)
    l = frac * max_proper_time(spec.p, spec.q)
    power = np.float_power
    sin2 = power(np.sin(spec.schedule(l)), 2)
    v = spec.velocity()
    lam1, lam2 = (1.0 + v) / 2.0, (1.0 - v) / 2.0
    csc2 = 1.0 / sin2
    with np.errstate(over="ignore", invalid="ignore"):
        entries = _witness_entries(spec, l)
        scale = _node_scales(entries)
        p1, c2n, c3n, c4n = _charpoly([part / scale for part in entries])
        c1_closed = gap * csc2 / (np.sqrt(lam1 * lam2) * k1 * k2)
        c2_closed = (
            power(gap, 2)
            * power(csc2, 2)
            * (k1**2 * k2**2 * power(lam2 - lam1, 2) * sin2 + lam1 * lam2)
            / (lam1 * lam2 * k1**2 * k2**2)
        )
        coeffs = [p1 * scale, c2n * scale**2, c3n * scale**3, c4n * scale**4, c1_closed, c2_closed]
    _require_finite(coeffs, gap, "a witness coefficient")
    c1, c2, c3, c4 = coeffs[:4]
    passed = (
        (p1 >= -COEFF_POS_TOL)
        & (c2n >= -COEFF_POS_TOL)
        & (np.abs(c3n) <= COEFF_ZERO_TOL)
        & (np.abs(c4n) <= COEFF_ZERO_TOL)
        & (np.abs(c1 - c1_closed) <= MATCH_RTOL * np.maximum(1.0, np.abs(c1_closed)))
        & (np.abs(c2 - c2_closed) <= MATCH_RTOL * np.maximum(1.0, np.abs(c2_closed)))
    )
    rows = np.stack([frac, l, c1, c2, c3, c4, c1_closed, c2_closed, scale, passed], axis=1)
    return PsdCertification(bool(passed.all()), rows)


@dataclass(frozen=True)
class RefutationCertificate:
    """Machine-checkable refutation of a claimed causal relation."""

    spec: WitnessSpec
    lhs: float
    rhs: float
    margin: float
    lhs_numeric: float
    psd: PsdCertification

    def to_dict(self) -> dict:
        return {
            "schema": "causalnc/1",
            "epsilon": self.spec.epsilon,
            "theta_c": self.spec.theta_c,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "lhs_numeric": self.lhs_numeric,
            "psd_passed": self.psd.passed,
            "psd_samples": [s.to_dict() for s in self.psd.samples],
        }


def refute_with_witness(
    omega: PureState, eta: PureState, dirac: DiracData, n_samples: int = 64
) -> RefutationCertificate:
    """Produce a full separating-element certificate for a non-related pair.

    Bundles the schedule, the strict endpoint inequality (closed form and
    Simpson-integrated lhs agreeing within MATCH_RTOL) and the PSD
    certification at n_samples points.  Raises if the pair is related or any
    certificate component fails.
    """
    spec = build_witness(omega, eta, dirac)
    lhs, rhs = separation_values(spec)
    margin = rhs - lhs
    if not margin > 0.0:
        raise AssertionError(f"separation margin must be strictly positive, got {margin}")
    numeric = lhs_by_integration(spec)
    if abs(numeric - lhs) > MATCH_RTOL * max(1.0, abs(lhs)):
        raise AssertionError(f"integrated lhs {numeric} disagrees with closed form {lhs}")
    psd = certify_witness_psd(spec, n_samples)
    if not psd.passed:
        fail = psd.first_failure
        raise AssertionError(
            f"membership certification failed at s={fail.s}: "
            f"c=({fail.c1}, {fail.c2}, {fail.c3}, {fail.c4})"
        )
    return RefutationCertificate(spec, lhs, rhs, margin, numeric, psd)


@dataclass(frozen=True)
class EndpointElement:
    """A causal element known only by its values at a fixed set of events.

    Used to inject a witness element into brute-force never-separate runs:
    the pairing of a state with the element needs field values at the pair's
    events only.
    """

    points: tuple[SpacetimePoint, ...]
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    c_values: tuple[complex, ...]

    def values_at(self, t: np.ndarray, x: np.ndarray):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pt = np.array([p.t for p in self.points])
        px = np.array([p.x for p in self.points])
        match = (np.abs(pt - t[:, None]) <= 1e-9) & (np.abs(px - x[:, None]) <= 1e-9)
        found = match.any(axis=1)
        if not found.all():
            i = int(np.argmin(found))
            raise ValueError(f"element is only defined at its endpoints, not ({t[i]}, {x[i]})")
        index = match.argmax(axis=1)  # the first matching event
        return (
            np.array(self.a_values, dtype=float)[index],
            np.array(self.b_values, dtype=float)[index],
            np.array(self.c_values, dtype=complex)[index],
        )


def endpoint_element(spec: WitnessSpec) -> EndpointElement:
    """Endpoint values of the separating element, diagonal gauge a(p) = b(p) = 0.

    The diagonal growths depend only on the total proper time:
    a(q) - a(p) = (|phi2|/|phi1|) (cot(eps) - cot(g L + eps)) and symmetrically
    for b; the off-diagonal values follow the csc schedule.
    """
    total = max_proper_time(spec.p, spec.q)
    gap_l = spec.dirac.gap * total
    eps = spec.epsilon
    cot = lambda u: math.cos(u) / math.sin(u)
    growth = cot(eps) - cot(gap_l + eps)
    da = (spec.abs_phi2 / spec.abs_phi1) * growth
    db = (spec.abs_phi1 / spec.abs_phi2) * growth
    return EndpointElement(
        points=(spec.p, spec.q),
        a_values=(0.0, da),
        b_values=(0.0, db),
        c_values=(spec.c_field(0.0), spec.c_field(total)),
    )


def build_mixed_witness(omega: MixedState, eta: MixedState, dirac: DiracData) -> WitnessSpec:
    """Thin wrapper scheduling a separating element for mixed internal states.

    Projects both Bloch vectors onto their shared parallel, picks the
    rotation angle that maximises the arccos separation, and reuses the pure
    machinery with component moduli sqrt((1 +/- z)/2) (the matrix and the
    inequality are invariant under that common normalisation) and the
    epsilon/theta_c choice dictated by the sign of the projected arc.
    """
    verdict = mixed_causal(omega, eta, dirac)
    _require_speed_bound_refusal(verdict)
    rho, sigma = omega.internal, eta.internal
    z = 0.5 * (rho.rz + sigma.rz)
    _, theta_star, arc_r, arc_s = _mixed_angle_sup(rho, sigma)
    if min(arc_r, arc_s) <= ANGLE_TOL or max(arc_r, arc_s) >= math.pi - ANGLE_TOL:
        raise ValueError("projected angles touch the limiting values 0 or pi; no direct witness")
    if arc_s > arc_r:
        epsilon, theta_c = arc_r, theta_star
    else:
        epsilon, theta_c = math.pi - arc_r, theta_star + math.pi
    return WitnessSpec(
        epsilon=epsilon,
        theta_c=wrap_angle(theta_c),
        p=omega.point,
        q=eta.point,
        abs_phi1=math.sqrt((1.0 + z) / 2.0),
        abs_phi2=math.sqrt((1.0 - z) / 2.0),
        dirac=dirac,
        delta_theta=abs(arc_s - arc_r),
    )

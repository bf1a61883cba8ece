"""Separating-element certificates for non-causal pairs of pure or mixed states.

When the closed-form oracle says a same-latitude pair is NOT related because
the available proper time is short of the required internal angle, an
explicit causal element separates the two states.  A pure state is read as
its Bloch vector, the sphere case of the mixed ones.  With tau the proper time
of the worldline's rest frame, counted from p, and Theta = g*tau + eps
(g the Dirac gap) it is

    a = -(|phi2|/|phi1|) cot(Theta),    b = -(|phi1|/|phi2|) cot(Theta),
    c = -csc(Theta) * exp(i*theta_c),

with eps > 0 chosen so that Theta stays inside (0, pi) along the whole
worldline.  Its cone matrix depends on Theta alone and is PSD wherever
0 < Theta < pi, so the element is causal on that strip, which holds the
worldline.  WitnessSpec.element builds it as DSL fields, the input of
cone-check.  The certificate produced here bundles

* the closed-form endpoint values of both sides of the separation
  inequality (the pairing difference must come out strictly negative),
* the left side read off the element: its pairing growth between the
  endpoints, evaluated by the DSL, and
* a positive-semidefiniteness certification of the element along the
  worldline via the four characteristic-polynomial coefficients of its
  cone matrix, in closed form in the seven cone entries (cone._charpoly);
  the two leading ones are also matched against their closed forms in the
  schedule.

The certification reads the cone entries in closed form (_witness_entries),
not off the element's fields.  Near-antipodal states, whose schedule
touches 0 or pi or whose separation is below float resolution, admit no
direct certificate here and are rejected by name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .causality import MixedState, PureState, Reason, _decide
from .cone import AlgebraElement, _charpoly, _node_scales
from .fields import BinOp, Call, DomainError, FieldExpr, Neg, Num, Var, jet
from .minkowski import SpacetimePoint, max_proper_time
from .states import DiracData, MixedInternalState, angular_distance, signed_arc, wrap_angle

ANGLE_TOL = 1e-12
#: Relative tolerance for closed-form versus computed values.
MATCH_RTOL = 1e-8
#: Normalised characteristic-coefficient tolerances (scale-free).
COEFF_POS_TOL = 1e-12
COEFF_ZERO_TOL = 1e-9


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

    def strip(self) -> tuple[float, float]:
        """The open proper-time interval -epsilon/gap < tau < (pi - epsilon)/gap where 0 < Theta < pi."""
        gap = self.dirac.gap
        return -self.epsilon / gap, (math.pi - self.epsilon) / gap

    def element(self) -> AlgebraElement:
        """The separating element as DSL fields; causal on the strip 0 < Theta < pi.

        a = -(|phi2|/|phi1|) cot(Theta), b = -(|phi1|/|phi2|) cot(Theta) and
        c = -csc(Theta) e^(i theta_c), where Theta = gap*tau + epsilon and
        tau = ((t - p.t) - v (x - p.x)) / sqrt(1 - v^2), so Theta(p) =
        epsilon exactly and Theta grows by gap per unit proper time along the
        worldline.  The trees are in parser normal form:
        AlgebraElement.from_dict(el.to_dict()) == el.  Raises
        WitnessOverflowError, naming the Dirac gap, when gap/sqrt(1 - v^2)
        does not fit in a float.
        """
        a, b, theta = self._diagonal()
        csc = Call("csc", theta)
        return AlgebraElement(a, b, _scaled(-math.cos(self.theta_c), csc), _scaled(-math.sin(self.theta_c), csc))

    def _diagonal(self) -> tuple[FieldExpr, FieldExpr, FieldExpr]:
        """The element's a and b, and the Theta they share with c, as element() documents them."""
        gap, v = self.dirac.gap, self.velocity()
        rate = gap / math.sqrt(1.0 - v * v)
        _require_finite(rate, gap, "the schedule's rate")
        # Theta = rate * (t - p.t - v * (x - p.x)) + epsilon
        tau = BinOp("+" if v < 0 else "-", _shifted("t", self.p.t), _scaled(abs(v), _shifted("x", self.p.x)))
        theta = BinOp("+", _scaled(rate, tau), Num(self.epsilon))
        cot = lambda k: Neg(BinOp("/", Num(k), Call("tan", theta)))  # -k cot(Theta)
        return cot(self.abs_phi2 / self.abs_phi1), cot(self.abs_phi1 / self.abs_phi2), theta


def _shifted(var: str, at: float) -> FieldExpr:
    """var - at, as the parser reads it: a negative shift is written var + |at|."""
    return BinOp("+" if at < 0 else "-", Var(var), Num(abs(at)))


def _scaled(k: float, field: FieldExpr) -> FieldExpr:
    """k * field, as the parser reads it: a negative k is written -(|k| * field)."""
    product = BinOp("*", Num(abs(k)), field)
    return Neg(product) if k < 0 else product


def build_witness(omega: PureState | MixedState, eta: PureState | MixedState, dirac: DiracData) -> WitnessSpec:
    """Construct the separating element's schedule for a pair refused by the speed bound.

    Pure and mixed pairs alike are read as Bloch vectors (a pure state
    through MixedInternalState.from_pure) and decided once, by
    causality._decide.  On the sphere the schedule is centred on the angular
    distance delta the verdict read: epsilon = (pi - delta)/2, the furthest
    from the csc singularities, and theta_c = +-epsilon - t_a, signed like
    the shorter arc from t_a to t_b.  Inside the ball it spans the projected
    arccos values at the supremum's rotation theta_star.  The component
    moduli are sqrt((1 +/- z)/2) at the mean latitude z (the matrix and the
    inequality are invariant under that common normalisation).

    Raises ValueError for a related pair or a refusal other than the speed
    bound, and names near-antipodal states where the schedule touches 0 or
    pi, where it falls short of the worldline's proper time, or where lhs <
    rhs (separation_values) is below float resolution: rhs - lhs shrinks
    with the schedule's distance from 0 and pi, which near-antipodal states
    bring close to both.
    """
    rho, sigma = (
        state.internal if isinstance(state, MixedState) else MixedInternalState.from_pure(state.internal)
        for state in (omega, eta)
    )
    verdict, sup = _decide(omega.point, eta.point, rho, sigma, dirac)
    if verdict.related:
        raise ValueError("the states are causally related; no separating element exists")
    if verdict.reason is not Reason.SPEED_BOUND:
        raise ValueError(f"witness construction needs a speed-bound refusal, got {verdict.reason.value}")
    if sup is None:  # decided on the sphere, by the angular distance
        t_a, t_b = rho.parallel_angle, sigma.parallel_angle
        delta = angular_distance(t_a, t_b)
        epsilon = 0.5 * (math.pi - delta)
        theta_c = (epsilon if signed_arc(t_a, t_b) >= 0.0 else -epsilon) - t_a
    else:
        _, theta_star, arc_r, arc_s = sup
        delta = abs(arc_s - arc_r)
        if arc_s > arc_r:
            epsilon, theta_c = arc_r, theta_star
        else:
            epsilon, theta_c = math.pi - arc_r, theta_star + math.pi
    if not (
        ANGLE_TOL < epsilon
        and epsilon + delta < math.pi - ANGLE_TOL
        and dirac.gap * max_proper_time(omega.point, eta.point) < delta
    ):
        raise ValueError("the schedule touches the limiting values 0 or pi (near-antipodal states); no direct witness")
    z = 0.5 * (rho.rz + sigma.rz)
    spec = WitnessSpec(
        epsilon=epsilon,
        theta_c=wrap_angle(theta_c),
        p=omega.point,
        q=eta.point,
        abs_phi1=math.sqrt((1.0 + z) / 2.0),
        abs_phi2=math.sqrt((1.0 - z) / 2.0),
        dirac=dirac,
        delta_theta=delta,
    )
    lhs, rhs = separation_values(spec)
    if not lhs < rhs:
        raise ValueError("the separation lhs < rhs is below float resolution (near-antipodal states); no direct witness")
    return spec


#: The name build_witness had for mixed pairs; perfbench calls it by this name.
build_mixed_witness = build_witness


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


def _pairing_growth(spec: WitnessSpec) -> float:
    """The lhs read off the element: |phi1|^2 (a(q) - a(p)) + |phi2|^2 (b(q) - b(p)).

    a and b are evaluated at the endpoints by the DSL; the element's c is
    not built.  Raises WitnessOverflowError, naming the Dirac gap, when a
    value or partial there does not fit in a float.
    """
    a, b, _ = spec._diagonal()
    t, x = np.array([spec.p.t, spec.q.t]), np.array([spec.p.x, spec.q.x])
    try:
        (a_p, a_q), (b_p, b_q) = (jet(field, t, x)[0] for field in (a, b))
    except DomainError as err:
        raise WitnessOverflowError(
            f"Dirac gap {spec.dirac.gap} is too large: the element does not fit in a float at the endpoints"
        ) from err
    growth = spec.abs_phi1**2 * (a_q - a_p) + spec.abs_phi2**2 * (b_q - b_p)
    _require_finite(growth, spec.dirac.gap, "the element's pairing growth")
    return float(growth)


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
    assembles the 4x4 matrices.  They are the entries _cone_entries takes
    from spec.element() at the worldline's events, in closed form in the
    schedule: with lam1, lam2 = (1 + v)/2, (1 - v)/2, for instance, u =
    c_t + c_x = g sqrt(lam2/lam1) cos(Theta) csc^2(Theta) e^(i theta_c),
    mirrored for z = c_t - c_x.  tests/test_witness.py holds the two to
    each other.
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

    The coefficient test is sound only on the rank-two matrices of
    _witness_entries: at a double zero eigenvalue, |c3|, |c4| <= tol admit
    an eigenvalue near -sqrt(tol/c2)*scale on other matrices.  On these,
    tests/test_witness.py::test_passed_samples_are_exactly_psd_after_the_tolerance_shift
    pins it: in exact arithmetic, every passed sample's rounded entries make
    M + PSD_TOL*scale*I PSD.  The cone's per-node eigvalsh rule is not used
    because it costs more than twice as much: over the 200 mixed_witness
    certificates of the benchmark's seed 1 (64 samples, one Xeon core),
    the element's cone entries took about 400 us and eigvalsh 150 us a
    certificate, against about 250 us for this whole certification.
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
    """Machine-checkable refutation of a claimed causal relation.

    to_dict also writes the separating element, in the input format of
    cone-check; it is built there, not when the certificate is.  Its "tau"
    gives, in the proper time tau of the worldline's rest frame counted from
    p, the interval [0, L] the samples certify (L the worldline's proper
    time) and the open strip on which 0 < Theta < pi, where the element is
    causal.  The cone entries depend on tau alone.
    """

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
            "element": self.spec.element().to_dict(),
            "tau": {"certified": self.psd.rows[[0, -1], 1].tolist(), "strip": list(self.spec.strip())},
        }


def refute_with_witness(
    omega: PureState | MixedState, eta: PureState | MixedState, dirac: DiracData, n_samples: int = 64
) -> RefutationCertificate:
    """Produce a full separating-element certificate for a non-related pure or mixed pair.

    Bundles the schedule of build_witness, whose margin rhs - lhs is
    positive, the element's pairing growth agreeing with the closed-form lhs
    within MATCH_RTOL, and the PSD certification at n_samples points.
    Raises ValueError where build_witness does, and AssertionError if a
    certificate component fails.  The certification runs before the element
    is evaluated, so that an overflowing coefficient is reported as such.
    """
    spec = build_witness(omega, eta, dirac)
    lhs, rhs = separation_values(spec)
    psd = certify_witness_psd(spec, n_samples)
    if not psd.passed:
        fail = psd.first_failure
        raise AssertionError(
            f"membership certification failed at s={fail.s}: "
            f"c=({fail.c1}, {fail.c2}, {fail.c3}, {fail.c4})"
        )
    numeric = _pairing_growth(spec)
    if abs(numeric - lhs) > MATCH_RTOL * max(1.0, abs(lhs)):
        raise AssertionError(f"the element's lhs {numeric} disagrees with closed form {lhs}")
    return RefutationCertificate(spec, lhs, rhs, rhs - lhs, numeric, psd)

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalnc.causality import (
    BOUND_SLACK,
    MAX_PATH_SEGMENTS,
    PLATEAU_TOL,
    SPHERE_BAND,
    CausalVerdict,
    MixedState,
    PureState,
    Reason,
    _arc,
    _decide,
    _mixed_angle_sup,
    mixed_causal,
    mixed_required_angle,
    plan_causal_path,
    pure_causal,
)
from causalnc.minkowski import SpacetimePoint, causally_precedes
from causalnc.selftest import run_check, unitary_transport_check
from causalnc.states import (
    DiracData,
    InternalUnitary,
    MixedInternalState,
    PureInternalState,
    angular_distance,
    parallel_angle,
)
from causalnc.witness import build_mixed_witness, build_witness

D_UNIT = DiracData(0.0, 1.0)
EQ0 = PureInternalState.from_parallel(0.0, 0.0)
EQ90 = PureInternalState.from_parallel(0.0, math.pi / 2)


def _pure(t, x, z, theta):
    return PureState(SpacetimePoint(t, x), PureInternalState.from_parallel(z, theta))


def test_identical_internal_state_needs_only_spacetime_order():
    v = pure_causal(_pure(0, 0, 0.0, 1.1), _pure(2, 0, 0.0, 1.1), D_UNIT)
    assert v.related and v.reason is Reason.OK
    assert v.bound_required == pytest.approx(0.0, abs=1e-12)
    assert v.bound_available == pytest.approx(2.0)


def test_quarter_turn_within_budget():
    # proper time 2 covers the required pi/2 at unit gap
    v = pure_causal(PureState(SpacetimePoint(0, 0), EQ0), PureState(SpacetimePoint(2, 0), EQ90), D_UNIT)
    assert v.related
    assert v.bound_required == pytest.approx(math.pi / 2)


def test_quarter_turn_exceeding_budget():
    v = pure_causal(PureState(SpacetimePoint(0, 0), EQ0), PureState(SpacetimePoint(1, 0), EQ90), D_UNIT)
    assert not v.related
    assert v.reason is Reason.SPEED_BOUND
    assert v.bound_required == pytest.approx(math.pi / 2)
    assert v.bound_available == pytest.approx(1.0)


def test_bound_slack_is_an_angle_not_a_proper_time():
    # the slack was 1e-12 of proper time, 10 radians at a gap of 1e13: distinct
    # states at one event were related both ways, against antisymmetry
    big = DiracData(0.0, 1e13)
    a, b = PureState(SpacetimePoint(0, 0), EQ0), PureState(SpacetimePoint(0, 0), EQ90)
    for first, second in ((a, b), (b, a)):
        assert pure_causal(first, second, big).reason is Reason.SPEED_BOUND
        mixed = [MixedState(s.point, MixedInternalState.from_pure(s.internal)) for s in (first, second)]
        assert mixed_causal(*mixed, big).reason is Reason.SPEED_BOUND
    # 1e-12 radians short of the bound is related, 2e-12 is not
    for shortfall, related in ((0.5e-12, True), (2e-12, False)):
        q = SpacetimePoint((math.pi / 2 - shortfall) / 1e13, 0.0)
        assert pure_causal(a, PureState(q, EQ90), big).related is related
    # bound_required was 15 times bound_available, and the pair was related
    tiny = pure_causal(a, PureState(SpacetimePoint(1e-201, 0.0), EQ90), DiracData(0.0, 1e200))
    assert not tiny.related and tiny.reason is Reason.SPEED_BOUND


def test_null_separation_forbids_internal_motion():
    v = pure_causal(PureState(SpacetimePoint(0, 0), EQ0), PureState(SpacetimePoint(1, 1), EQ90), D_UNIT)
    assert not v.related and v.reason is Reason.SPEED_BOUND
    assert v.bound_available == 0.0
    # without internal motion the null pair is fine
    v2 = pure_causal(PureState(SpacetimePoint(0, 0), EQ0), PureState(SpacetimePoint(1, 1), EQ0), D_UNIT)
    assert v2.related


def test_poles_are_latitude_separated():
    north = PureInternalState(1.0, 0.0)
    south = PureInternalState(0.0, 1.0)
    v = pure_causal(
        PureState(SpacetimePoint(0, 0), north), PureState(SpacetimePoint(5, 0), south), D_UNIT
    )
    assert not v.related and v.reason is Reason.LATITUDE_MISMATCH


def test_same_pole_relates_under_spacetime_order():
    north = PureInternalState(1.0, 0.0)
    v = pure_causal(
        PureState(SpacetimePoint(0, 0), north), PureState(SpacetimePoint(1, 0), north), D_UNIT
    )
    assert v.related and v.bound_required == 0.0


def test_spacetime_order_is_checked_first():
    v = pure_causal(_pure(0, 0, 0.3, 0.0), _pure(0, 5, 0.3, 0.0), D_UNIT)
    assert not v.related and v.reason is Reason.SPACETIME_ORDER


def test_degenerate_dirac_branches():
    degenerate = DiracData(2.0, 2.0)
    same = pure_causal(_pure(0, 0, 0.4, 0.7), _pure(3, 1, 0.4, 0.7), degenerate)
    assert same.related and same.reason is Reason.OK
    moved = pure_causal(_pure(0, 0, 0.4, 0.7), _pure(3, 1, 0.4, 0.9), degenerate)
    assert not moved.related and moved.reason is Reason.DEGENERATE_INTERNAL_CHANGE


def test_latitude_mismatch():
    v = pure_causal(_pure(0, 0, 0.2, 0.0), _pure(5, 0, 0.5, 0.0), D_UNIT)
    assert not v.related and v.reason is Reason.LATITUDE_MISMATCH


def test_verdict_invariant_fields():
    related = pure_causal(_pure(0, 0, 0.0, 0.0), _pure(2, 0, 0.0, 1.0), D_UNIT)
    assert related.related and related.reason is Reason.OK
    assert related.bound_required is not None and related.bound_available is not None
    ordered = pure_causal(_pure(0, 0, 0.0, 0.0), _pure(-1, 0, 0.0, 0.0), D_UNIT)
    assert ordered.bound_required is None and ordered.bound_available is None
    assert CausalVerdict(False, Reason.SPEED_BOUND, 1.0, 0.5).to_dict()["reason"] == "SPEED_BOUND"


def test_restriction_to_equal_internal_states_is_classical_order():
    rng = np.random.default_rng(29)
    for _ in range(300):
        p = SpacetimePoint(rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = SpacetimePoint(rng.uniform(-2, 2), rng.uniform(-2, 2))
        xi = PureInternalState.from_parallel(rng.uniform(-0.9, 0.9), rng.uniform(-3, 3))
        v = pure_causal(PureState(p, xi), PureState(q, xi), D_UNIT)
        assert v.related == causally_precedes(p, q)


def test_monotonicity_in_gap():
    rng = np.random.default_rng(31)
    gaps = [0.3, 0.7, 1.5, 4.0]
    for _ in range(100):
        a = _pure(0, 0, 0.2, rng.uniform(-3, 3))
        b = _pure(rng.uniform(0.3, 2.5), 0, 0.2, rng.uniform(-3, 3))
        verdicts = [pure_causal(a, b, DiracData(0.0, g)).related for g in gaps]
        for lo, hi in zip(verdicts, verdicts[1:]):
            assert hi >= lo  # once related, stays related as the gap grows


def test_partial_order_axioms_same_latitude():
    # battery check order_axioms at reduced scale: 3 x 100 random chains
    for seed in range(3):
        result = run_check("order_axioms", full=False, seed=seed)
        assert result["passed"], result["detail"]


def test_transitivity_on_boundary_tight_chain():
    # reverse triangle + angular triangle inequality keep transitivity intact
    # even when every link sits exactly on the speed bound
    a = _pure(0, 0, 0.0, 0.0)
    b = _pure(1.0, 0, 0.0, 1.0)
    c = _pure(2.0, 0, 0.0, 2.0)
    assert pure_causal(a, b, D_UNIT).related
    assert pure_causal(b, c, D_UNIT).related
    assert pure_causal(a, c, D_UNIT).related


# --- mixed states -------------------------------------------------------------


def test_mixed_maximally_mixed_pair_needs_no_budget():
    center = MixedInternalState(0.0, 0.0, 0.0)
    v = mixed_causal(
        MixedState(SpacetimePoint(0, 0), center), MixedState(SpacetimePoint(1, 0), center), D_UNIT
    )
    assert v.related and v.bound_required == pytest.approx(0.0, abs=1e-9)


def test_mixed_center_to_rim_requires_quarter_turn():
    center = MixedInternalState(0.0, 0.0, 0.0)
    rim = MixedInternalState(1.0, 0.0, 0.0)
    assert mixed_required_angle(center, rim) == pytest.approx(math.pi / 2, abs=1e-9)
    ok = mixed_causal(
        MixedState(SpacetimePoint(0, 0), center), MixedState(SpacetimePoint(2, 0), rim), D_UNIT
    )
    assert ok.related
    short = mixed_causal(
        MixedState(SpacetimePoint(0, 0), center), MixedState(SpacetimePoint(1, 0), rim), D_UNIT
    )
    assert not short.related and short.reason is Reason.SPEED_BOUND


def _fine_scan_sup(rho, sigma, n=300_001):
    """Independent brute-force oracle for the angular supremum."""
    z = 0.5 * (rho.rz + sigma.rz)
    w = math.sqrt(1.0 - z * z)
    theta = np.linspace(0.0, 2.0 * math.pi, n)
    ua = np.clip(rho.parallel_radius / w * np.cos(rho.parallel_angle + theta), -1, 1)
    ub = np.clip(sigma.parallel_radius / w * np.cos(sigma.parallel_angle + theta), -1, 1)
    return float(np.abs(np.arccos(ub) - np.arccos(ua)).max())


def test_mixed_required_angle_matches_fine_scan():
    rng = np.random.default_rng(53)
    for _ in range(25):
        z = rng.uniform(-0.8, 0.8)
        w = math.sqrt(1 - z * z)
        r1, r2 = rng.uniform(0, w, size=2)
        t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
        rho = MixedInternalState(r1 * math.cos(t1), r1 * math.sin(t1), z)
        sigma = MixedInternalState(r2 * math.cos(t2), r2 * math.sin(t2), z)
        got = mixed_required_angle(rho, sigma)
        assert got == pytest.approx(_fine_scan_sup(rho, sigma), abs=1e-7)


def test_mixed_required_angle_pure_inputs_reduce_to_angular_distance():
    rng = np.random.default_rng(59)
    for _ in range(50):
        z = rng.uniform(-0.8, 0.8)
        w = math.sqrt(1 - z * z)
        t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
        rho = MixedInternalState(w * math.cos(t1), w * math.sin(t1), z)
        sigma = MixedInternalState(w * math.cos(t2), w * math.sin(t2), z)
        assert mixed_required_angle(rho, sigma) == pytest.approx(
            angular_distance(t1, t2), abs=1e-8
        )


def test_mixed_required_angle_survives_rival_peaks():
    # near-symmetric radii with near-antipodal angles create two almost-tied
    # local maxima; the refinement must not lock onto the slightly lower one
    rng = np.random.default_rng(97)
    for _ in range(40):
        z = rng.uniform(-0.6, 0.6)
        w = math.sqrt(1 - z * z)
        r1 = rng.uniform(0.05, 1.0) * w
        r2 = min(r1 * (1 + rng.uniform(-1e-4, 1e-4)), w)
        t1 = rng.uniform(-math.pi, math.pi)
        t2 = t1 + math.pi + rng.uniform(-1e-3, 1e-3)
        rho = MixedInternalState(r1 * math.cos(t1), r1 * math.sin(t1), z)
        sigma = MixedInternalState(r2 * math.cos(t2), r2 * math.sin(t2), z)
        got = mixed_required_angle(rho, sigma)
        assert got >= _fine_scan_sup(rho, sigma) - 1e-8


def test_mixed_required_angle_identical_states_zero():
    rho = MixedInternalState(0.3, 0.2, 0.1)
    assert mixed_required_angle(rho, rho) == pytest.approx(0.0, abs=1e-9)


def test_mixed_required_angle_errors():
    with pytest.raises(ValueError):
        mixed_required_angle(MixedInternalState(0, 0, 0.2), MixedInternalState(0, 0, 0.5))
    north = MixedInternalState(0, 0, 1.0)
    assert mixed_required_angle(north, north) == 0.0
    # pole latitude but transverse components apart: angle undefined
    rz = math.sqrt(1.0 - (4e-7) ** 2)
    with pytest.raises(ValueError):
        mixed_required_angle(MixedInternalState(4e-7, 0, rz), MixedInternalState(-4e-7, 0, rz))


# --- closed-form supremum against the dense scan ------------------------------


def _scan_sup(ra, ta, rb, tb, samples=4096, width=1e-10):
    """Reference supremum: dense scan of the objective, then golden-section
    refinement of the brackets around the four highest local scan maxima."""
    f = lambda theta: np.abs(_arc(rb, tb + theta) - _arc(ra, ta + theta))
    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    values = f(thetas)
    peaks = np.nonzero((values >= np.roll(values, 1)) & (values >= np.roll(values, -1)))[0]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    best = float(values.max())
    for k in peaks[np.argsort(values[peaks])][-4:]:
        lo, hi = thetas[k] - thetas[1], thetas[k] + thetas[1]
        while hi - lo > width:
            c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
            if f(c) > f(d):
                hi = d
            else:
                lo = c
        best = max(best, float(f(0.5 * (lo + hi))))
    return best


def _mixed_pair(ra, ta, rb, tb, z=0.0):
    w = math.sqrt(1.0 - z * z)
    return (
        MixedInternalState(ra * w * math.cos(ta), ra * w * math.sin(ta), z),
        MixedInternalState(rb * w * math.cos(tb), rb * w * math.sin(tb), z),
    )


def _check_sup_against_scan(rho, sigma):
    width = math.sqrt(1.0 - rho.rz * rho.rz)
    ra, rb = (min(state.parallel_radius / width, 1.0) for state in (rho, sigma))
    ta, tb = rho.parallel_angle, sigma.parallel_angle
    value, theta_star, arc_a, arc_b = _mixed_angle_sup(rho, sigma)
    scan = _scan_sup(ra, ta, rb, tb)
    assert value >= scan - 1e-12
    if max(ra, rb) <= 1.0 - 1e-6:
        assert abs(value - scan) <= 1e-9
    assert (arc_a, arc_b) == pytest.approx((_arc(ra, ta + theta_star), _arc(rb, tb + theta_star)), abs=1e-15)
    assert abs(arc_b - arc_a) >= value - 1e-12
    return value


RADII = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0, 1.0 - 2.0**-53, 1.0 - 1e-12, 1.0 - 1e-6)))
ANGLES = st.floats(-math.pi, math.pi)


@settings(max_examples=300)
@given(RADII, ANGLES, RADII, ANGLES, st.floats(-0.9, 0.9))
def test_mixed_angle_sup_closed_form_against_scan(ra, ta, rb, tb, z):
    _check_sup_against_scan(*_mixed_pair(ra, ta, rb, tb, z))


@pytest.mark.parametrize(
    "ra, ta, rb, tb, expected",
    [
        (0.4, 0.3, 0.4, 2.0, None),  # equal radii
        (0.7, -1.1, 0.7, -1.1, 0.0),  # equal radii, equal angles
        (0.6, 0.5, 0.6, 0.5 + math.pi, math.pi - 2.0 * math.acos(0.6)),  # equal radii, opposite
        (0.0, 0.0, 0.0, 0.0, 0.0),  # both at the centre
        (0.0, 0.0, 0.7, 1.2, math.asin(0.7)),  # centre to an interior point
        (0.0, 0.0, 1.0, 1.2, math.pi / 2),  # centre to the rim
        (1.0, 0.3, 0.55, -2.0, None),  # one unit radius
        (1.0, 0.3, 1.0, 1.3, 1.0),  # two unit radii: the angular distance, on a plateau
        (1.0, 0.3, 1.0, 0.3 + math.pi, math.pi),  # antipodal unit radii
        (0.5, 0.9, 0.8, 0.9, None),  # ta = tb
        (0.5, 0.9, 0.8, 0.9 - math.pi, None),  # ta = tb - pi
        (0.5, 0.9, 0.8, 0.9 + 2.0 * math.pi, None),  # ta = tb mod 2 pi
    ],
)
def test_mixed_angle_sup_special_cases(ra, ta, rb, tb, expected):
    value = _check_sup_against_scan(*_mixed_pair(ra, ta, rb, tb))
    if expected is not None:
        assert value == pytest.approx(expected, abs=1e-14)


def _reference_mixed_angle_sup(rho, sigma):
    """_mixed_angle_sup as it was before it took both arcs in one stacked _arc call.

    Two _arc calls and the candidates joined with np.append and
    np.concatenate; the stacked version must return the same floats.
    """
    z = 0.5 * (rho.rz + sigma.rz)
    width = math.sqrt(max(1.0 - z * z, 0.0))
    ra = min(rho.parallel_radius / width, 1.0)
    rb = min(sigma.parallel_radius / width, 1.0)
    ta, tb = rho.parallel_angle, sigma.parallel_angle
    wa = ra * math.sqrt((1.0 - rb) * (1.0 + rb))
    wb = rb * math.sqrt((1.0 - ra) * (1.0 + ra))
    thetas = [-ta, math.pi - ta, -tb, math.pi - tb]
    for sign in (1.0, -1.0):
        root = math.atan2(sign * wb * math.sin(tb) - wa * math.sin(ta), wa * math.cos(ta) - sign * wb * math.cos(tb))
        thetas += [root, root + math.pi]
    thetas = np.sort(np.mod(thetas, 2.0 * math.pi))
    mids = 0.5 * (thetas + np.append(thetas[1:], thetas[0] + 2.0 * math.pi))
    thetas = np.concatenate([thetas, mids])
    arc_a, arc_b = _arc(ra, ta + thetas), _arc(rb, tb + thetas)
    values = np.abs(arc_b - arc_a)
    best = float(values.max())
    clearance = np.minimum(np.minimum(arc_a, math.pi - arc_a), np.minimum(arc_b, math.pi - arc_b))
    clearance[values < best - PLATEAU_TOL] = -1.0
    k = int(np.argmax(clearance))
    return best, float(thetas[k]), float(arc_a[k]), float(arc_b[k])


#: angles on the axes, where a radius at z = 0 is read back exactly, and any angle
AXIS_ANGLES = st.one_of(st.sampled_from((0.0, math.pi / 2, math.pi, -math.pi / 2)), ANGLES)


@settings(max_examples=400)
@given(
    RADII,
    AXIS_ANGLES,
    RADII,
    st.one_of(st.sampled_from((None, 0.0, math.pi, -math.pi)), ANGLES),  # tb = ta + this, or any angle
    st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
)
def test_mixed_angle_sup_is_bit_identical_to_the_reference(ra, ta, rb, shift, z):
    tb = ta if shift is None else math.remainder(ta + shift, 2.0 * math.pi)
    rho, sigma = _mixed_pair(ra, ta, rb, tb, z)
    assert _mixed_angle_sup(rho, sigma) == _reference_mixed_angle_sup(rho, sigma)


def test_mixed_angle_sup_argmax_is_mid_plateau():
    # two unit radii d apart: the objective equals d on two plateaus of width
    # pi - d bounded by kinks; at most one root falls inside each, so some
    # midpoint keeps the projected angles (pi - d) / 3 away from 0 and pi
    for z, ta, d in ((0.0, 0.66, 0.929), (0.4, -2.0, 0.3), (-0.7, 3.0, 2.8), (0.2, 1.0, 1.5)):
        pure = [PureInternalState.from_parallel(z, theta) for theta in (ta, ta + d)]
        value, _, arc_a, arc_b = _mixed_angle_sup(*map(MixedInternalState.from_pure, pure))
        assert value == pytest.approx(d, abs=1e-12)
        clearance = min(arc_a, math.pi - arc_a, arc_b, math.pi - arc_b)
        assert clearance >= (math.pi - d) / 3.0 - 1e-12


def test_arc_is_accurate_up_to_unit_radius():
    # arccos(cos y) = |y| exactly; arccos(1 - d) = 2 asin(sqrt(d / 2))
    for y in (1e-12, 1e-8, 1e-4, 0.3, 3.0, -2.5):
        assert float(_arc(1.0, y)) == pytest.approx(abs(y), rel=1e-15)
    d = 2.0**-52
    assert float(_arc(1.0 - d, 0.0)) == pytest.approx(2.0 * math.asin(math.sqrt(d / 2.0)), rel=1e-15)
    for r, y in ((0.3, 0.4), (0.9, 2.9), (1.0 - 1e-6, -1.0)):
        assert float(_arc(r, y)) == pytest.approx(math.acos(r * math.cos(y)), abs=1e-12)
    # so unit-radius mixed states need their angular distance to rounding
    rho, sigma = _mixed_pair(1.0, 0.1, 1.0, 0.1 + 2.2, z=0.35)
    assert mixed_required_angle(rho, sigma) == pytest.approx(2.2, abs=1e-14)


def _reference_arc(radius, angle):
    """_arc as it was before it evaluated both halves on one stack in place."""
    half = 0.5 * np.asarray(angle, dtype=float)
    below = 1.0 - radius
    return 2.0 * np.arctan2(
        np.sqrt(below + 2.0 * radius * np.sin(half) ** 2),
        np.sqrt(below + 2.0 * radius * np.cos(half) ** 2),
    )


@settings(max_examples=200)
@given(
    RADII,
    RADII,
    st.lists(st.one_of(st.floats(-10.0, 10.0), st.sampled_from((0.0, -0.0, 5e-324))), min_size=1, max_size=16),
)
def test_arc_is_bit_identical_to_the_reference(ra, rb, angles):
    # the reference of _mixed_angle_sup reads _arc: it must be the formula it was, bit for bit
    y = np.array(angles)
    radii, stack = np.array([[ra], [rb]]), np.array([y, y[::-1]])
    for radius, angle in ((ra, angles[0]), (ra, y), (radii, stack)):
        assert np.asarray(_arc(radius, angle)).tobytes() == np.asarray(_reference_arc(radius, angle)).tobytes()


def test_mixed_causal_branches():
    degenerate = DiracData(1.0, 1.0)
    rho = MixedInternalState(0.3, 0.0, 0.2)
    sigma = MixedInternalState(0.0, 0.3, 0.2)
    same = mixed_causal(
        MixedState(SpacetimePoint(0, 0), rho), MixedState(SpacetimePoint(1, 0), rho), degenerate
    )
    assert same.related
    moved = mixed_causal(
        MixedState(SpacetimePoint(0, 0), rho), MixedState(SpacetimePoint(1, 0), sigma), degenerate
    )
    assert not moved.related and moved.reason is Reason.DEGENERATE_INTERNAL_CHANGE

    tilted = mixed_causal(
        MixedState(SpacetimePoint(0, 0), rho),
        MixedState(SpacetimePoint(1, 0), MixedInternalState(0.3, 0.0, 0.5)),
        D_UNIT,
    )
    assert not tilted.related and tilted.reason is Reason.LATITUDE_MISMATCH

    unordered = mixed_causal(
        MixedState(SpacetimePoint(0, 0), rho), MixedState(SpacetimePoint(0, 2), rho), D_UNIT
    )
    assert not unordered.related and unordered.reason is Reason.SPACETIME_ORDER


def test_mixed_agrees_with_pure_on_unit_vectors():
    # unlike battery check mixed_pure_consistency: any angle in [0, pi], any ratio to the bound,
    # equal states, the poles and a degenerate gap; the verdicts agree bit for bit
    rng = np.random.default_rng(61)
    north, south = PureInternalState(1.0, 0.0), PureInternalState(0.0, 1.0)
    for _ in range(200):
        z = rng.uniform(-0.85, 0.85)
        th1, th2 = rng.uniform(-math.pi, math.pi, size=2)
        p = SpacetimePoint(0.0, rng.uniform(-0.5, 0.5))
        q = SpacetimePoint(rng.uniform(0, 3), rng.uniform(-0.5, 0.5))
        xi, phi = (PureInternalState.from_parallel(z, th) for th in (th1, th2))
        near_north = PureInternalState.from_parallel(1.0 - 5e-13, th1)
        pairs = ((xi, phi), (xi, xi), (north, north), (south, south), (north, south), (north, near_north))
        for (xa, xb), dirac in itertools.product(pairs, (D_UNIT, DiracData(0.7, 0.7))):
            a, b = PureState(p, xa), PureState(q, xb)
            ma, mb = (MixedState(s.point, MixedInternalState.from_pure(s.internal)) for s in (a, b))
            assert mixed_causal(ma, mb, dirac).to_dict() == pure_causal(a, b, dirac).to_dict()


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-0.95, 0.95),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, math.pi),
    st.floats(-3.0, 3.0),
    st.integers(-8, 8),
)
def test_pure_and_mixed_verdicts_agree_at_the_edge_of_the_slack_band(z, theta, dtheta, log_gap, ulps):
    # the available proper time lies ulps steps from required - BOUND_SLACK/gap,
    # where a verdict is decided in the last bits of the required angle
    dirac = DiracData(0.0, 10.0**log_gap)
    xi, phi = (PureInternalState.from_parallel(z, th) for th in (theta, theta + dtheta))
    edge = angular_distance(parallel_angle(xi), parallel_angle(phi)) / dirac.gap - BOUND_SLACK / dirac.gap
    t = max(edge, 0.0)
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.copysign(math.inf, ulps))
    a, b = PureState(SpacetimePoint(0.0, 0.0), xi), PureState(SpacetimePoint(t, 0.0), phi)
    ma, mb = (MixedState(s.point, MixedInternalState.from_pure(s.internal)) for s in (a, b))
    verdict = pure_causal(a, b, dirac)
    assert verdict.to_dict() == mixed_causal(ma, mb, dirac).to_dict()
    if verdict.related:  # no certificate refutes a pair the oracles relate
        with pytest.raises(ValueError, match="causally related"):
            build_witness(a, b, dirac)
        with pytest.raises(ValueError, match="causally related"):
            build_mixed_witness(ma, mb, dirac)


_PURE_STATES = st.builds(
    PureInternalState.from_parallel, st.floats(-1.0, 1.0), st.floats(-math.pi, math.pi)
) | st.builds(
    PureInternalState.from_components,
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(_PURE_STATES, _PURE_STATES, st.floats(0.0, 3.0), st.floats(-1.0, 1.0), st.sampled_from((0.0, 0.5, 2.0)))
def test_from_pure_skips_only_a_check_that_cannot_fail(xi, phi, dt, dx, gap):
    # from_pure builds the Bloch vector without the constructor's check; it must be the checked one
    for state in (xi, phi):
        checked = MixedInternalState(*state.bloch())
        fast = MixedInternalState.from_pure(state)
        assert (fast.rx, fast.ry, fast.rz) == (checked.rx, checked.ry, checked.rz)
        assert 1.0 - fast.norm**2 <= SPHERE_BAND  # decided on the sphere
    dirac = DiracData(0.0, gap)
    p, q = SpacetimePoint(0.0, 0.0), SpacetimePoint(dt, dx)
    checked = _decide(p, q, MixedInternalState(*xi.bloch()), MixedInternalState(*phi.bloch()), dirac)[0]
    assert pure_causal(PureState(p, xi), PureState(q, phi), dirac).to_dict() == checked.to_dict()


# --- unitary transport --------------------------------------------------------


def test_unitary_transport_identity_and_phase():
    a = _pure(0, 0, 0.0, 0.2)
    b = _pure(1.2, 0.3, 0.0, 1.4)
    assert unitary_transport_check(a, b, InternalUnitary.identity(), D_UNIT)
    assert unitary_transport_check(a, b, InternalUnitary.phase(0.9), D_UNIT)


def test_unitary_transport_random():
    rng = np.random.default_rng(67)
    for _ in range(50):
        u = InternalUnitary.haar_random(rng)
        a = _pure(0, 0, rng.uniform(-0.8, 0.8), rng.uniform(-3, 3))
        b = PureState(
            SpacetimePoint(rng.uniform(0, 3), rng.uniform(-1, 1)),
            PureInternalState.from_parallel(a.internal.z, rng.uniform(-3, 3)),
        )
        assert unitary_transport_check(a, b, u, D_UNIT)
        assert unitary_transport_check(a, b, u, DiracData(0.5, 0.5))  # degenerate frame too


# --- path planner ---------------------------------------------------------------


def test_plan_path_constant_when_angles_match():
    a = _pure(0, 0, 0.3, 0.8)
    b = _pure(2, 1, 0.3, 0.8)
    path = plan_causal_path(a, b, D_UNIT, 5)
    assert len(path) == 6
    for sample in path:
        assert sample.internal == a.internal


def test_plan_path_quarter_turn_profile():
    a = PureState(SpacetimePoint(0, 0), EQ0)
    b = PureState(SpacetimePoint(2, 0), EQ90)
    path = plan_causal_path(a, b, D_UNIT, 4)
    # rest worldline: proper time s*2; angle ramps at the gap rate, capped at pi/2
    expected = [min(1.0 * s * 2.0, math.pi / 2) for s in (0, 0.25, 0.5, 0.75, 1.0)]
    got = [parallel_angle(s.internal) for s in path]
    assert got == pytest.approx(expected, abs=1e-12)
    assert path[-1].point.almost_equal(b.point)


def test_plan_path_boundary_exact_reaches_target():
    length = math.pi / 2
    a = PureState(SpacetimePoint(0, 0), EQ0)
    b = PureState(SpacetimePoint(length, 0), EQ90)
    path = plan_causal_path(a, b, D_UNIT, 8)
    assert parallel_angle(path[-1].internal) == pytest.approx(math.pi / 2, abs=1e-10)


def test_plan_path_prefix_feasibility():
    # battery check path_planner_prefix at reduced scale: 3 x 20 related pairs, 33 samples each
    for seed in range(3):
        result = run_check("path_planner_prefix", full=False, seed=seed)
        assert result["passed"], result["detail"]


def test_plan_path_rejects_unrelated_pair():
    a = PureState(SpacetimePoint(0, 0), EQ0)
    b = PureState(SpacetimePoint(1, 0), EQ90)
    with pytest.raises(ValueError):
        plan_causal_path(a, b, D_UNIT, 8)
    with pytest.raises(ValueError):
        plan_causal_path(a, PureState(SpacetimePoint(2, 0), EQ90), D_UNIT, 0)


def test_plan_path_refuses_more_segments_than_its_bound():
    a = PureState(SpacetimePoint(0, 0), EQ0)
    b = PureState(SpacetimePoint(2, 0), EQ90)
    with pytest.raises(ValueError, match=f"need 1 to {MAX_PATH_SEGMENTS} segments"):
        plan_causal_path(a, b, D_UNIT, MAX_PATH_SEGMENTS + 1)
    assert len(plan_causal_path(a, b, D_UNIT, 1)) == 2


def test_plan_path_pole_states_hold_internal():
    north = PureInternalState(1.0, 0.0)
    a = PureState(SpacetimePoint(0, 0), north)
    b = PureState(SpacetimePoint(1, 0), north)
    path = plan_causal_path(a, b, D_UNIT, 4)
    assert all(s.internal == north for s in path)


def test_plan_path_moves_a_state_within_pole_tol_off_its_pole():
    # xi is within POLE_TOL of the north pole, phi and the pair's mean latitude are not:
    # the verdict asks for the angular distance, and the path travels it along xi's parallel
    xi = PureInternalState.from_parallel(1.0 - 0.9e-12, 0.0)
    phi = PureInternalState.from_parallel(1.0 - 1.8e-12, 1.0)
    assert xi.is_pole and not phi.is_pole
    a, b = PureState(SpacetimePoint(0, 0), xi), PureState(SpacetimePoint(2, 0), phi)
    assert pure_causal(a, b, D_UNIT).bound_required == pytest.approx(1.0, abs=1e-12)
    path = plan_causal_path(a, b, D_UNIT, 4)
    assert [cmath.phase(s.internal.xi2) for s in path] == pytest.approx([0.0, 0.5, 1.0, 1.0, 1.0], abs=1e-12)

import cmath
import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalnc import causality, fields
from causalnc.causality import BOUND_SLACK, MixedState, PureState, mixed_causal, mixed_required_angle, pure_causal
from causalnc.cone import PSD_TOL, AlgebraElement, _charpoly, _cone_entries, _matrices, _node_scales
from causalnc.fields import Var, jet
from causalnc.minkowski import SpacetimePoint, max_proper_time
from causalnc.states import DiracData, MixedInternalState, PureInternalState, angular_distance
from causalnc.witness import (
    COEFF_POS_TOL,
    COEFF_ZERO_TOL,
    MATCH_RTOL,
    CoeffSample,
    NearAntipodalError,
    PsdCertification,
    RelatedPairError,
    UnsupportedRefusalError,
    WitnessOverflowError,
    WitnessSpec,
    _entry_stacks,
    _pairing_growth,
    _stack_scales,
    build_mixed_witness,
    build_witness,
    certify_witness_psd,
    refute_with_witness,
    separation_values,
)
from strategies import _exactly_psd

D_UNIT = DiracData(0.0, 1.0)


def _equator_pair(t_span, dtheta, x_span=0.0, z=0.0, theta0=0.0):
    a = PureState(SpacetimePoint(0, 0), PureInternalState.from_parallel(z, theta0))
    b = PureState(
        SpacetimePoint(t_span, x_span), PureInternalState.from_parallel(z, theta0 + dtheta)
    )
    return a, b


STANDARD = _equator_pair(1.0, math.pi / 2)  # needs pi/2 of proper time, has 1


def _worldline_event(spec, l):
    """Coordinates (t, x) of the event at proper time l along the worldline from p to q."""
    frac = np.asarray(l, dtype=float) / max_proper_time(spec.p, spec.q)
    return spec.p.t + frac * (spec.q.t - spec.p.t), spec.p.x + frac * (spec.q.x - spec.p.x)


def _element_values(el, t, x):
    """Values of a, b and c of the element at the events (t, x)."""
    t, x = np.atleast_1d(t), np.atleast_1d(x)
    a, b, c_re, c_im = (jet(f, t, x)[0] for f in (el.a, el.b, el.c_re, el.c_im))
    return a, b, c_re + 1j * c_im


def test_build_witness_standard_example():
    spec = build_witness(*STANDARD, D_UNIT)
    assert spec.epsilon == pytest.approx(math.pi / 4)
    # schedule spans (eps, gap*L + eps) strictly inside (0, pi)
    assert float(spec.schedule(0.0)) == pytest.approx(math.pi / 4)
    assert float(spec.schedule(1.0)) == pytest.approx(1.0 + math.pi / 4)
    assert 0.0 < spec.epsilon and 1.0 + math.pi / 4 < math.pi
    assert spec.delta_theta == pytest.approx(math.pi / 2)
    assert spec.theta_c == pytest.approx(math.pi / 4)  # +eps: the arc runs counter-clockwise


def test_build_witness_rejects_related_pair():
    related = _equator_pair(2.0, math.pi / 2)
    with pytest.raises(ValueError):
        build_witness(*related, D_UNIT)


def test_build_witness_rejects_antipodal():
    antipodal = _equator_pair(1.0, math.pi)
    with pytest.raises(ValueError):
        build_witness(*antipodal, D_UNIT)


def test_build_witness_rejects_non_speed_bound_reasons():
    mismatch = (
        PureState(SpacetimePoint(0, 0), PureInternalState.from_parallel(0.1, 0.0)),
        PureState(SpacetimePoint(1, 0), PureInternalState.from_parallel(0.5, 1.0)),
    )
    with pytest.raises(ValueError):
        build_witness(*mismatch, D_UNIT)
    degenerate = _equator_pair(1.0, math.pi / 2)
    with pytest.raises(ValueError):
        build_witness(*degenerate, DiracData(1.0, 1.0))


#: a pure pair 1e-6 from antipodal with its proper time just short of the band edge
BELOW_RESOLUTION = tuple(
    PureState(SpacetimePoint(t, 0), PureInternalState.from_bloch(*bloch))
    for t, bloch in (
        (0.0, (0.8786361890754104, 0.3714814224790249, 0.30000000000000016)),
        (3.1415916535877924, (-0.8786365605563938, -0.3714805438426497, 0.30000000000000004)),
    )
)
LATITUDE_MISMATCH = (
    PureState(SpacetimePoint(0, 0), PureInternalState.from_parallel(0.1, 0.0)),
    PureState(SpacetimePoint(1, 0), PureInternalState.from_parallel(0.5, 1.0)),
)


@pytest.mark.parametrize(
    "pair, error, message",
    (
        (_equator_pair(2.0, math.pi / 2), RelatedPairError, "the states are causally related; no separating"),
        (LATITUDE_MISMATCH, UnsupportedRefusalError, "witness construction needs a speed-bound refusal, got "),
        (_equator_pair(1.0, math.pi), NearAntipodalError, "the schedule touches the limiting values 0 or pi "),
        (BELOW_RESOLUTION, NearAntipodalError, "the separation lhs < rhs is below float resolution "),
    ),
    ids=("related", "latitude-mismatch", "antipodal", "below-resolution"),
)
def test_build_witness_refusals_are_typed(pair, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}") as info:
        build_witness(*pair, D_UNIT)
    assert type(info.value) is error and isinstance(info.value, ValueError)


def test_build_witness_rejects_lightlike_separation():
    a = PureState(SpacetimePoint(0, 0), PureInternalState.from_parallel(0.0, 0.0))
    b = PureState(SpacetimePoint(1, 1), PureInternalState.from_parallel(0.0, 1.0))
    with pytest.raises(ValueError):
        build_witness(a, b, D_UNIT)


def test_separation_values_standard_example():
    # direct evaluation oracle: eps = pi/4, gap*L = 1, |phi1 phi2| = 1/2
    spec = build_witness(*STANDARD, D_UNIT)
    lhs, rhs = separation_values(spec)
    cot = lambda u: math.cos(u) / math.sin(u)
    expected_lhs = 2 * 0.5 * (-cot(1 + math.pi / 4) + cot(math.pi / 4))
    expected_rhs = 2 * 0.5 * (-math.cos(3 * math.pi / 4) / math.sin(1 + math.pi / 4) + cot(math.pi / 4))
    assert lhs == pytest.approx(expected_lhs, abs=1e-15)
    assert rhs == pytest.approx(expected_rhs, abs=1e-15)
    assert lhs < rhs


def test_margin_vanishes_at_the_boundary():
    margins = []
    for frac in (0.5, 0.9, 0.99, 0.999, 0.9999):
        pair = _equator_pair(frac * math.pi / 2, math.pi / 2)
        lhs, rhs = separation_values(build_witness(*pair, D_UNIT))
        margins.append(rhs - lhs)
    assert all(m > 0 for m in margins)
    assert margins == sorted(margins, reverse=True)
    assert margins[-1] < 1e-3


def test_margin_monotone_decreasing_in_length():
    # fixed eps, dtheta, latitude; margin shrinks as the worldline grows
    eps = 0.4
    margins = []
    for frac in np.linspace(0.05, 0.95, 19):
        pair = _equator_pair(frac * math.pi / 2, math.pi / 2)
        spec = dataclasses.replace(build_witness(*pair, D_UNIT), epsilon=eps)
        lhs, rhs = separation_values(spec)
        margins.append(rhs - lhs)
    diffs = np.diff(margins)
    assert (diffs < 0).all()


def test_small_angle_still_strict():
    pair = _equator_pair(0.05, 0.1)
    lhs, rhs = separation_values(build_witness(*pair, D_UNIT))
    assert lhs < rhs


def test_witness_c_field_magnitude_follows_schedule():
    moving = _equator_pair(1.2, 2.2, x_span=0.6, z=0.2, theta0=0.4)
    spec = build_witness(*moving, D_UNIT)
    l = np.linspace(0.0, max_proper_time(spec.p, spec.q), 9)
    _, _, c = _element_values(spec.element(), *_worldline_event(spec, l))
    np.testing.assert_allclose(np.abs(c), 1.0 / np.sin(spec.schedule(l)), rtol=1e-13)
    np.testing.assert_allclose(np.angle(-c), spec.theta_c, atol=1e-13)


def test_certify_rest_frame_closed_forms():
    # v = 0, z = 0: c1 = 4 g csc^2, c2 = 4 g^2 csc^4 (hand-reduced closed forms)
    spec = build_witness(*STANDARD, D_UNIT)
    report = certify_witness_psd(spec, 8)
    assert report.passed
    for sample in report.samples:
        theta = float(spec.schedule(sample.l))
        csc2 = 1.0 / math.sin(theta) ** 2
        assert sample.c1 == pytest.approx(4.0 * csc2, rel=1e-12)
        assert sample.c2 == pytest.approx(4.0 * csc2**2, rel=1e-12)
        assert sample.c1 == pytest.approx(sample.c1_closed, rel=1e-10)
        assert sample.c2 == pytest.approx(sample.c2_closed, rel=1e-10)
        assert abs(sample.c3) <= 1e-9 * sample.scale**3
        assert abs(sample.c4) <= 1e-9 * sample.scale**4


def _entries(spec, l):
    """The seven cone entries (ap, am, bp, bm, u, z, w) at proper times l, the rows of _entry_stacks."""
    _, diagonal, coupling = _entry_stacks(spec, l)
    return (*diagonal, *coupling)


def test_certify_matrix_is_psd_by_independent_eigenvalues():
    # dual route: closed-form coefficients against a Hermitian eigensolver
    moving = _equator_pair(1.0, 2.0, x_span=0.5, z=0.35, theta0=-0.8)
    spec = build_witness(*moving, D_UNIT)
    report = certify_witness_psd(spec, 16)
    assert report.passed
    for sample in report.samples:
        m = _matrices(_entries(spec, np.array([sample.l])))[0]
        eig_min = float(np.linalg.eigvalsh(m)[0])
        assert eig_min >= -1e-9 * max(1.0, float(np.abs(m).max()))


def test_matrix_derivative_entries_consistent_with_schedule():
    # chain rule: gdot0 [lam1 (c_t+c_x) + lam2 (c_t-c_x)] == d/dt of the csc schedule
    moving = _equator_pair(1.2, 2.2, x_span=0.6, z=0.2, theta0=0.4)
    spec = build_witness(*moving, D_UNIT)
    dt_span = 1.2
    v = 0.6 / 1.2
    lam1, lam2 = (1 + v) / 2, (1 - v) / 2
    rate = math.sqrt(1 - v * v)  # dl/dt at unit gdot0
    el = spec.element()
    for l in (0.1, 0.35, 0.6):
        _, _, _, _, u, z, _ = _entries(spec, np.array([l]))
        c_plus, c_minus = u[0], z[0]  # c_t + c_x and c_t - c_x
        claimed = lam1 * c_plus + lam2 * c_minus
        h = 1e-6
        t = np.array([l / rate + h, l / rate - h])  # the worldline starts at the origin
        _, _, c = _element_values(el, t, v * t)
        numeric = (c[0] - c[1]) / (2 * h)
        assert claimed.real == pytest.approx(numeric.real, rel=1e-6, abs=1e-9)
        assert claimed.imag == pytest.approx(numeric.imag, rel=1e-6, abs=1e-9)


def _spec(dtheta, share, v, k1sq, theta_c, gap, d1_above):
    """A witness spec on a worldline from the origin with share of the proper time the angle needs."""
    dt = share * dtheta / gap / math.sqrt(1.0 - v * v)
    return WitnessSpec(
        epsilon=0.5 * (math.pi - dtheta),
        theta_c=theta_c,
        p=SpacetimePoint(0.0, 0.0),
        q=SpacetimePoint(dt, v * dt),
        abs_phi1=math.sqrt(k1sq),
        abs_phi2=math.sqrt(1.0 - k1sq),
        dirac=DiracData(gap, 0.0) if d1_above else DiracData(0.0, gap),
        delta_theta=dtheta,
    )


def _specs(gaps):
    return st.builds(
        _spec,
        st.floats(0.11, math.pi - 0.11),  # angular separation
        st.floats(0.02, 0.98),  # available proper time as a share of the required one
        st.floats(-0.9, 0.9),  # velocity of the worldline
        st.floats(0.05, 0.95),  # |phi1|^2
        st.floats(-math.pi, math.pi),  # theta_c
        gaps,
        st.booleans(),  # sign of d1 - d2
    )


@settings(max_examples=150)
@given(_specs(st.sampled_from((0.5, 1.0, 2.0))), st.sampled_from((2, 7, 64)))
def test_batched_certification_agrees_with_eigenvalues(spec, n):
    report = certify_witness_psd(spec, n)
    assert report.passed and report.first_failure is None
    assert [sample.s for sample in report.samples] == pytest.approx(np.linspace(0.0, 1.0, n), abs=1e-15)
    mats = _matrices(_entries(spec, np.array([sample.l for sample in report.samples])))
    for sample, m in zip(report.samples, mats):
        eig = np.linalg.eigvalsh(m)
        assert sample.scale == pytest.approx(max(1.0, float(np.abs(m).max())), rel=1e-15)
        # c_k is the k-th elementary symmetric polynomial of the eigenvalues
        expected = np.poly(eig / sample.scale)[1:] * np.array([-1.0, 1.0, -1.0, 1.0])
        got = np.array([sample.c1, sample.c2, sample.c3, sample.c4]) / sample.scale ** np.arange(1, 5)
        assert np.abs(got - expected).max() <= COEFF_ZERO_TOL
        if sample.passed:
            assert eig[0] >= -COEFF_ZERO_TOL * sample.scale


def test_exact_psd_decides_the_uncoupled_example():
    # (1, 2e-5, 1, -2e-5) passes the coefficient test yet has the eigenvalue -2e-5
    entries = (1.0, 2e-5, 1.0, -2e-5, 0j, 0j, 0j)
    assert not _exactly_psd(entries, Fraction(PSD_TOL))
    assert _exactly_psd(entries, Fraction(2e-5))


WIDE_GAPS = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=200)
@given(_specs(WIDE_GAPS))
def test_passed_samples_are_exactly_psd_after_the_tolerance_shift(spec):
    # the coefficient test is sound on the rank-two witness matrices: every passed
    # sample's rounded entries make M + PSD_TOL * s * I PSD, s the node scale
    report = certify_witness_psd(spec, 8)
    samples = report.samples
    entries = _entries(spec, np.array([sample.l for sample in samples]))
    for i, sample in enumerate(samples):
        if sample.passed:
            node = [part[i] for part in entries]
            assert _exactly_psd(node, Fraction(PSD_TOL) * Fraction(sample.scale)), (spec, sample)
    assert report.passed


@st.composite
def _mixed_specs(draw):
    """build_mixed_witness on a speed-bound refusal between two same-latitude mixed states."""
    rz = draw(st.floats(-0.8, 0.8))
    radius = math.sqrt(1.0 - rz * rz)
    rho, sigma = (
        MixedInternalState(r * radius * math.cos(theta), r * radius * math.sin(theta), rz)
        for r, theta in (draw(st.tuples(st.floats(0.2, 1.0), st.floats(-math.pi, math.pi))) for _ in range(2))
    )
    required = mixed_required_angle(rho, sigma)
    assume(required > 0.05)
    gap, v = draw(WIDE_GAPS), draw(st.floats(-0.9, 0.9))
    dt = draw(st.floats(0.02, 0.98)) * required / gap / math.sqrt(1.0 - v * v)
    dirac = DiracData(gap, 0.0) if draw(st.booleans()) else DiracData(0.0, gap)
    omega, eta = MixedState(SpacetimePoint(0.0, 0.0), rho), MixedState(SpacetimePoint(dt, v * dt), sigma)
    try:
        return build_mixed_witness(omega, eta, dirac)
    except ValueError:  # a projected angle at 0 or pi: no direct witness
        assume(False)


@settings(max_examples=150)
@given(st.one_of(_specs(WIDE_GAPS), _mixed_specs()))
def test_witness_entries_are_the_cone_entries_of_the_element(spec):
    el = spec.element()
    assert AlgebraElement.from_dict(el.to_dict()) == el
    l = np.linspace(0.0, max_proper_time(spec.p, spec.q), 16)
    closed = _entries(spec, l)
    scale = _node_scales(closed)
    from_fields = _cone_entries(el, *_worldline_event(spec, l), spec.dirac.d1 - spec.dirac.d2)
    for got, want in zip(from_fields, closed):
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_certify_reports_the_first_failing_sample():
    # moduli with |phi1|^2 + |phi2|^2 != 1 scale the trace away from the closed form
    spec = dataclasses.replace(build_witness(*STANDARD, D_UNIT), abs_phi1=0.8, abs_phi2=0.7)
    report = certify_witness_psd(spec, 16)
    assert not report.passed
    assert not any(sample.passed for sample in report.samples)
    assert report.first_failure == report.samples[0]


def test_first_failure_is_the_earliest_failing_sample():
    spec = dataclasses.replace(build_witness(*STANDARD, D_UNIT), abs_phi1=0.8, abs_phi2=0.7)
    failing = certify_witness_psd(spec, 16)
    rows = certify_witness_psd(build_witness(*STANDARD, D_UNIT), 16).rows.copy()
    rows[[5, 11]] = failing.rows[[5, 11]]  # only samples 5 and 11 fail
    report = PsdCertification(False, rows)
    assert report.first_failure == report.samples[5] == CoeffSample(*failing.rows[5, :-1].tolist(), passed=False)
    assert PsdCertification(True, rows[:5]).first_failure is None


def _reference_entries(spec, l):
    """The seven entries as they were built before _entry_stacks made one diagonal and one coupling stack."""
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
        -pref * pm * sin_t * phase,
    )


def _reference_certification(spec, n):
    """(passed, rows) of certify_witness_psd as it was before it wrote its rows into one array.

    Every entry and coefficient one array at a time, and the rows joined by
    np.stack; the stacked version must return the same floats.
    """
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
        entries = _reference_entries(spec, l)
        scale = _node_scales(entries)
        p1, c2n, c3n, c4n = _charpoly([part / scale for part in entries])
        c1_closed = gap * csc2 / (np.sqrt(lam1 * lam2) * k1 * k2)
        c2_closed = (
            power(gap, 2)
            * power(csc2, 2)
            * (k1**2 * k2**2 * power(lam2 - lam1, 2) * sin2 + lam1 * lam2)
            / (lam1 * lam2 * k1**2 * k2**2)
        )
        c1, c2, c3, c4 = p1 * scale, c2n * scale**2, c3n * scale**3, c4n * scale**4
    passed = (
        (p1 >= -COEFF_POS_TOL)
        & (c2n >= -COEFF_POS_TOL)
        & (np.abs(c3n) <= COEFF_ZERO_TOL)
        & (np.abs(c4n) <= COEFF_ZERO_TOL)
        & (np.abs(c1 - c1_closed) <= MATCH_RTOL * np.maximum(1.0, np.abs(c1_closed)))
        & (np.abs(c2 - c2_closed) <= MATCH_RTOL * np.maximum(1.0, np.abs(c2_closed)))
    )
    rows = np.stack([frac, l, c1, c2, c3, c4, c1_closed, c2_closed, scale, passed], axis=1)
    return bool(passed.all()), rows


@st.composite
def _fast_specs(draw, gaps):
    """_specs with worldline speeds up to 0.999, and moduli off the unit sum (failing samples) a fifth of the time."""
    spec = draw(
        st.builds(
            _spec,
            st.floats(0.11, math.pi - 0.11),
            st.floats(0.02, 0.98),
            st.floats(-0.999, 0.999),
            st.floats(0.05, 0.95),
            st.floats(-math.pi, math.pi),
            gaps,
            st.booleans(),
        )
    )
    if draw(st.integers(0, 4)) == 0:
        spec = dataclasses.replace(spec, abs_phi1=draw(st.floats(0.1, 1.0)), abs_phi2=draw(st.floats(0.1, 1.0)))
    return spec


@settings(max_examples=300)
@given(st.one_of(_fast_specs(WIDE_GAPS), _mixed_specs()), st.sampled_from((2, 7, 64)))
def test_certification_is_bit_identical_to_the_reference(spec, n):
    report = certify_witness_psd(spec, n)
    passed, rows = _reference_certification(spec, n)
    assert report.passed == passed
    assert report.rows.shape == rows.shape and report.rows.tobytes() == rows.tobytes()
    assert report.first_failure == next((sample for sample in report.samples if not sample.passed), None)
    closed = _reference_entries(spec, rows[:, 1])
    assert all(got.tobytes() == want.tobytes() for got, want in zip(_entries(spec, rows[:, 1]), closed))


def _reference_certify_witness_psd(spec, n):
    """(passed, rows) of certify_witness_psd as it was before it took the node scales from the entry stacks.

    cone._node_scales on the seven rows of the stacks, one row at a time;
    the stacked scales must give the same floats.
    """
    gap = spec.dirac.gap
    k1, k2 = spec.abs_phi1, spec.abs_phi2
    rows = np.empty((10, n))
    frac, l, c1, c2, c3, c4, c1_closed, c2_closed, scale, passed = rows
    np.divide(np.arange(n), n - 1, out=frac)
    np.multiply(frac, max_proper_time(spec.p, spec.q), out=l)
    power = np.float_power
    v = spec.velocity()
    lam1, lam2 = (1.0 + v) / 2.0, (1.0 - v) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        sin2, diagonal, coupling = _entry_stacks(spec, l)
        csc2 = 1.0 / sin2
        scale[:] = _node_scales((*diagonal, *coupling))
        p1, c2n, c3n, c4n = _charpoly((*(diagonal / scale), *(coupling / scale)))
        c1[:], c2[:], c3[:], c4[:] = p1 * scale, c2n * scale**2, c3n * scale**3, c4n * scale**4
        np.divide(gap * csc2, np.sqrt(lam1 * lam2) * k1 * k2, out=c1_closed)
        c2_closed[:] = (
            power(gap, 2)
            * power(csc2, 2)
            * (k1**2 * k2**2 * power(lam2 - lam1, 2) * sin2 + lam1 * lam2)
            / (lam1 * lam2 * k1**2 * k2**2)
        )
    if not np.isfinite(rows[2:8]).all():
        raise WitnessOverflowError(f"Dirac gap {gap} is too large: a witness coefficient does not fit in a float")
    passed[:] = (
        (p1 >= -COEFF_POS_TOL)
        & (c2n >= -COEFF_POS_TOL)
        & (np.abs(c3n) <= COEFF_ZERO_TOL)
        & (np.abs(c4n) <= COEFF_ZERO_TOL)
        & (np.abs(rows[2:4] - rows[6:8]) <= MATCH_RTOL * np.maximum(1.0, np.abs(rows[6:8]))).all(axis=0)
    )
    return bool(passed.all()), rows.T


#: worldline velocities anywhere in (-0.9, 0.9), or within 1e-12 of +-1
VELOCITIES = st.one_of(
    st.floats(-0.9, 0.9),
    st.builds(lambda sign, d: sign * (1.0 - d), st.sampled_from((1.0, -1.0)), st.floats(2.0**-50, 1e-12)),
)


@st.composite
def _refused_pair_specs(draw):
    """build_witness on a speed-bound refusal between same-latitude pure or mixed states, gaps 1e-3 to 1e3."""
    z = draw(st.floats(-0.8, 0.8))
    ta, tb = draw(st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)))
    if draw(st.booleans()):
        kind, xi, phi = PureState, PureInternalState.from_parallel(z, ta), PureInternalState.from_parallel(z, tb)
        required = angular_distance(ta, tb)
    else:
        width = math.sqrt(1.0 - z * z)
        ra, rb = draw(st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)))
        kind = MixedState
        xi, phi = (
            MixedInternalState(r * width * math.cos(t), r * width * math.sin(t), z) for r, t in ((ra, ta), (rb, tb))
        )
        required = mixed_required_angle(xi, phi)
    assume(required > 0.05)
    gap, v = 10.0 ** draw(st.floats(-3.0, 3.0)), draw(VELOCITIES)
    dt = draw(st.floats(0.02, 0.98)) * required / gap / math.sqrt(1.0 - v * v)
    dirac = DiracData(gap, 0.0) if draw(st.booleans()) else DiracData(0.0, gap)
    try:
        return build_witness(kind(SpacetimePoint(0.0, 0.0), xi), kind(SpacetimePoint(dt, v * dt), phi), dirac)
    except ValueError:  # a projected angle at 0 or pi, or a pair the rounding relates: no witness
        assume(False)


@settings(max_examples=200)
@given(_refused_pair_specs(), st.sampled_from((2, 3, 64, 257)))
def test_certify_witness_psd_rows_are_bit_identical_to_the_reference(spec, n):
    report = certify_witness_psd(spec, n)
    passed, rows = _reference_certify_witness_psd(spec, n)
    assert report.passed == passed
    assert report.rows.shape == rows.shape and report.rows.tobytes() == rows.tobytes()


@settings(max_examples=100)
@given(
    _specs(st.one_of(st.floats(70.0, 80.0), st.floats(150.0, 160.0)).map(lambda e: 10.0**e)),
    st.sampled_from((2, 3, 64, 257)),
)
def test_certify_witness_psd_matches_the_reference_at_the_overflow_edge(spec, n):
    # scale^4 leaves the float range near gaps of 1e77, a squared coupling modulus near 1e154
    try:
        report = certify_witness_psd(spec, n)
    except WitnessOverflowError:
        with pytest.raises(WitnessOverflowError):
            _reference_certify_witness_psd(spec, n)
        return
    passed, rows = _reference_certify_witness_psd(spec, n)
    assert report.passed == passed and report.rows.tobytes() == rows.tobytes()


#: entry parts from zero through the range where a squared modulus overflows
ENTRY_PARTS = st.one_of(st.floats(-1e3, 1e3), st.floats(-1.7e308, 1.7e308), st.sampled_from((0.0, -0.0, 1.4e154)))


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(ENTRY_PARTS, min_size=10 * n, max_size=10 * n)))
def test_stack_scales_are_the_node_scales(parts):
    # witness couplings never exceed the diagonal, so the certification alone cannot tell a coupling term wrong
    parts = np.array(parts).reshape(10, -1)
    diagonal, coupling = parts[:4], parts[4:7] + 1j * parts[7:]
    with np.errstate(over="ignore"):
        scales = _stack_scales(diagonal, coupling, np.empty(parts.shape[1]))
        assert scales.tobytes() == _node_scales((*diagonal, *coupling)).tobytes()


@settings(max_examples=100)
@given(_refused_pair_specs())
def test_pairing_growth_walks_theta_once_and_equals_two_separate_walks(spec):
    a, b, tan = spec._diagonal()
    assert a.arg.rhs is tan and b.arg.rhs is tan  # a and b divide by one tan(Theta) node
    t, x = np.array([spec.p.t, spec.q.t]), np.array([spec.p.x, spec.q.x])
    (a_p, a_q), (b_p, b_q) = jet(a, t, x)[0], jet(b, t, x)[0]
    separate = spec.abs_phi1**2 * (a_q - a_p) + spec.abs_phi2**2 * (b_q - b_p)
    visits = []
    walk = fields._eval

    def counted(e, *args):
        visits.append(isinstance(e, Var))
        return walk(e, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fields, "_eval", counted)
        growth = _pairing_growth(spec)
    assert growth.hex() == float(separate).hex()
    assert sum(visits) == 2  # t and x, read by Theta alone, are walked once


def test_certify_tiny_phase_keeps_determinant_finite():
    # imaginary parts ~ sin(theta_c) underflow, and so does a pivot of the determinant
    spec = WitnessSpec(
        epsilon=0.5 * (math.pi - 1.25),
        theta_c=5e-324,
        p=SpacetimePoint(0.0, 0.0),
        q=SpacetimePoint(1.25, 0.0),
        abs_phi1=math.sqrt(0.5),
        abs_phi2=math.sqrt(0.5),
        dirac=DiracData(0.0, 0.5),
        delta_theta=1.25,
    )
    report = certify_witness_psd(spec, 2)
    assert report.passed
    assert all(math.isfinite(sample.c4) for sample in report.samples)


def _one_event_spec(gap):
    origin = SpacetimePoint(0.0, 0.0)
    half = math.sqrt(0.5)
    return WitnessSpec(math.pi / 4, 0.3, origin, origin, half, half, DiracData(0.0, gap), math.pi / 2)


def test_certify_at_a_large_representable_gap():
    report = certify_witness_psd(_one_event_spec(1e13), 8)
    assert report.passed
    assert all(sample.c2 == pytest.approx(sample.c2_closed, rel=1e-10) for sample in report.samples)


@pytest.mark.parametrize("gap", (1e100, 1e200))
def test_certify_refuses_coefficients_beyond_the_float_range(gap):
    # 1e100: c4 = 0 * scale^4 was NaN; 1e200: gap**2 in c2_closed raised OverflowError
    with pytest.raises(WitnessOverflowError, match=re.escape(f"Dirac gap {gap} is too large")):
        certify_witness_psd(_one_event_spec(gap), 8)


def test_lhs_numeric_refuses_a_partial_beyond_the_float_range():
    # a_t = |phi2|/|phi1| csc^2(eps) gap overflows at gap 1e308, and the rate gap/sqrt(1 - v^2) at v = 0.9
    message = re.escape("Dirac gap 1e+308 is too large: the element does not fit in a float")
    with pytest.raises(WitnessOverflowError, match=message):
        _pairing_growth(_one_event_spec(1e308))
    moving = dataclasses.replace(_one_event_spec(1e308), q=SpacetimePoint(1e-308, 0.9e-308))
    message = re.escape("Dirac gap 1e+308 is too large: the schedule's rate")
    with pytest.raises(WitnessOverflowError, match=message):
        moving.element()


def test_certify_detects_degenerate_sample_count():
    spec = build_witness(*STANDARD, D_UNIT)
    with pytest.raises(ValueError):
        certify_witness_psd(spec, 1)


def test_lhs_numeric_matches_closed_form():
    cases = [
        (_equator_pair(1.0, math.pi / 2), D_UNIT),
        (_equator_pair(1.5, 2.5, x_span=0.8), D_UNIT),
        (_equator_pair(0.7, 1.2, x_span=-0.3, z=0.5, theta0=1.0), D_UNIT),
        (_equator_pair(2.0, 2.8, x_span=1.2, z=-0.6), D_UNIT),
    ]
    widest = math.pi - 0.1 - 1e-6  # the widest separation the acceptance sampler draws
    for gap in (0.5, 1.0, 2.0):  # on the longest non-related worldline it draws
        cases.append((_equator_pair(0.92 * widest / gap, widest), DiracData(0.0, gap)))
    for pair, dirac in cases:
        spec = build_witness(*pair, dirac)
        lhs, _ = separation_values(spec)
        assert _pairing_growth(spec) == pytest.approx(lhs, rel=1e-14)


def test_refute_with_witness_standard_example():
    cert = refute_with_witness(*STANDARD, D_UNIT)
    assert cert.margin > 0
    assert cert.psd.passed
    assert len(cert.psd.samples) == 64
    assert cert.lhs_numeric == pytest.approx(cert.lhs, rel=1e-8)
    data = cert.to_dict()
    assert "schema" not in data  # the CLI adds it
    assert data["margin"] == pytest.approx(cert.rhs - cert.lhs)
    assert len(data["psd_samples"]) == 64
    assert set(data["psd_samples"][0]) == {"s", "c1", "c2", "c3", "c4"}
    assert AlgebraElement.from_dict(data["element"]) == cert.spec.element()


def test_refute_rejects_causal_pair():
    with pytest.raises(ValueError):
        refute_with_witness(*_equator_pair(2.0, math.pi / 2), D_UNIT)


def test_refute_near_boundary_small_margin():
    for frac in (0.97, 0.99):
        for dtheta in (2.0, 2.8):
            pair = _equator_pair(frac * dtheta, dtheta)
            cert = refute_with_witness(pair[0], pair[1], D_UNIT)
            assert 0 < cert.margin < 1.0


def test_refute_coincident_events():
    # p = q with different angles: zero proper time available, witness exists
    a = PureState(SpacetimePoint(0.5, 0.5), PureInternalState.from_parallel(0.0, 0.0))
    b = PureState(SpacetimePoint(0.5, 0.5), PureInternalState.from_parallel(0.0, 1.0))
    cert = refute_with_witness(a, b, D_UNIT)
    assert cert.margin > 0
    assert cert.lhs == pytest.approx(0.0, abs=1e-12)


def test_endpoint_element_values_and_violation():
    spec = build_witness(*STANDARD, D_UNIT)
    p, q = spec.p, spec.q
    a_vals, b_vals, c_vals = _element_values(spec.element(), [p.t, q.t], [p.x, q.x])
    # the diagonal growths depend only on the total proper time, as in separation_values
    gap_l = spec.dirac.gap * max_proper_time(p, q)
    growth = 1.0 / math.tan(spec.epsilon) - 1.0 / math.tan(gap_l + spec.epsilon)
    assert a_vals[1] - a_vals[0] == pytest.approx(spec.abs_phi2 / spec.abs_phi1 * growth, rel=1e-14)
    assert b_vals[1] - b_vals[0] == pytest.approx(spec.abs_phi1 / spec.abs_phi2 * growth, rel=1e-14)
    schedule = -np.exp(1j * spec.theta_c) / np.sin(spec.schedule([0.0, max_proper_time(p, q)]))
    np.testing.assert_allclose(c_vals, schedule, rtol=1e-14)

    # the element violates the pairing inequality on its own pair
    omega, eta = STANDARD

    def pairing(state, a, b, c):
        xi = state.internal
        return (
            abs(xi.xi1) ** 2 * a
            + abs(xi.xi2) ** 2 * b
            - 2 * (xi.xi1.conjugate() * xi.xi2 * c).real
        )

    start = pairing(omega, a_vals[0], b_vals[0], c_vals[0])
    end = pairing(eta, a_vals[1], b_vals[1], c_vals[1])
    assert start > end + 1e-10
    # the overshoot is exactly the certificate margin rhs - lhs
    lhs, rhs = separation_values(spec)
    assert start - end == pytest.approx(rhs - lhs, abs=1e-12)


def test_gap_scaling():
    # doubling the gap halves the proper time budget the witness needs
    wide = DiracData(0.0, 2.0)
    pair = _equator_pair(0.6, math.pi / 2)
    cert = refute_with_witness(pair[0], pair[1], wide)
    assert cert.margin > 0
    assert not pure_causal(pair[0], pair[1], wide).related
    assert pure_causal(*_equator_pair(0.9, math.pi / 2), wide).related


def test_witness_spec_validation():
    curve_pair = _equator_pair(1.0, math.pi / 2)
    spec = build_witness(*curve_pair, D_UNIT)
    with pytest.raises(ValueError):
        WitnessSpec(
            epsilon=-0.1,
            theta_c=spec.theta_c,
            p=spec.p,
            q=spec.q,
            abs_phi1=spec.abs_phi1,
            abs_phi2=spec.abs_phi2,
            dirac=spec.dirac,
            delta_theta=spec.delta_theta,
        )
    with pytest.raises(ValueError):
        WitnessSpec(
            epsilon=math.pi,
            theta_c=spec.theta_c,
            p=spec.p,
            q=spec.q,
            abs_phi1=spec.abs_phi1,
            abs_phi2=spec.abs_phi2,
            dirac=spec.dirac,
            delta_theta=spec.delta_theta,
        )


def test_mixed_witness_separates_mixed_pair():
    omega = MixedState(SpacetimePoint(0, 0), MixedInternalState(0.3, 0.0, 0.1))
    eta = MixedState(SpacetimePoint(0.8, 0), MixedInternalState(0.0, 0.85, 0.1))
    spec = build_mixed_witness(omega, eta, D_UNIT)
    lhs, rhs = separation_values(spec)
    assert lhs < rhs
    assert certify_witness_psd(spec, 32).passed
    assert _pairing_growth(spec) == pytest.approx(lhs, rel=1e-14)
    cert = refute_with_witness(omega, eta, D_UNIT)
    assert cert.spec == spec and cert.psd.passed and cert.margin > 0
    assert abs(cert.lhs_numeric - cert.lhs) <= MATCH_RTOL * max(1.0, abs(cert.lhs))

    # the separating element's endpoint values violate the mixed pairing
    p, q = spec.p, spec.q
    a_vals, b_vals, c_vals = _element_values(spec.element(), [p.t, q.t], [p.x, q.x])

    def mixed_pairing(state, a, b, c):
        r = state.internal
        return 0.5 * ((1 + r.rz) * a + (1 - r.rz) * b) - ((r.rx + 1j * r.ry) * c).real

    start = mixed_pairing(omega, a_vals[0], b_vals[0], c_vals[0])
    end = mixed_pairing(eta, a_vals[1], b_vals[1], c_vals[1])
    assert start > end + 1e-10


def test_mixed_witness_on_unit_radius_pair():
    # both radii 1: the supremum is flat between two kinks, and a witness
    # scheduled at a kink would put a projected angle at 0 or pi
    pure = [PureInternalState.from_parallel(0.0, theta) for theta in (0.66, 0.66 + 0.929)]
    omega = MixedState(SpacetimePoint(0, 0), MixedInternalState.from_pure(pure[0]))
    eta = MixedState(SpacetimePoint(0.4645, 0.0929), MixedInternalState.from_pure(pure[1]))
    spec = build_mixed_witness(omega, eta, D_UNIT)
    assert spec.delta_theta == pytest.approx(0.929, abs=1e-12)
    lhs, rhs = separation_values(spec)
    assert lhs < rhs
    assert certify_witness_psd(spec, 64).passed


@pytest.mark.parametrize(
    "rho, sigma, q",
    [
        # on the sphere the verdict and the witness read the angular distance: no supremum
        (
            *(MixedInternalState.from_pure(PureInternalState.from_parallel(0.0, t)) for t in (0.66, 0.66 + 0.929)),
            SpacetimePoint(0.4645, 0.0929),
        ),
        # inside the ball the witness reuses the supremum the verdict was decided by
        (MixedInternalState(0.3, 0.0, 0.1), MixedInternalState(0.0, 0.85, 0.1), SpacetimePoint(0.8, 0.0)),
    ],
)
def test_mixed_witness_computes_the_supremum_once(monkeypatch, rho, sigma, q):
    calls = []
    original = causality._mixed_angle_sup

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(causality, "_mixed_angle_sup", counted)
    build_mixed_witness(MixedState(SpacetimePoint(0, 0), rho), MixedState(q, sigma), D_UNIT)
    assert len(calls) == (0 if math.isclose(rho.norm, 1.0) else 1)


def _near_antipodal_pair(z, theta, eps, sign, available, dirac):
    """Pure states at latitude z, pi - eps apart along the parallel; q at proper time available."""
    xi, phi = (PureInternalState.from_parallel(z, angle) for angle in (theta, theta + sign * (math.pi - eps)))
    return PureState(SpacetimePoint(0.0, 0.0), xi), PureState(SpacetimePoint(available, 0.0), phi)


def _as_mixed(pair):
    return tuple(MixedState(state.point, MixedInternalState.from_pure(state.internal)) for state in pair)


def test_mixed_witness_near_the_antipode_is_certified():
    # both relative radii round to 1 - 2.2e-16, and the supremum at those radii
    # fell 7.4e-12 short of the angular distance the verdict reads, so the spec
    # raised "worldline too long: the pair is causally related" for a refused pair
    for sign in (1.0, -1.0):
        omega, eta = _as_mixed(
            _near_antipodal_pair(
                0.8212810587049774, -1.2947930175072513, 1.7487834532865746e-4, sign, 3.1414177752415204, D_UNIT
            )
        )
        assert mixed_causal(omega, eta, D_UNIT).reason.value == "SPEED_BOUND"
        spec = build_mixed_witness(omega, eta, D_UNIT)
        assert spec.delta_theta == pytest.approx(math.pi - 1.7487834532865746e-4, abs=1e-14)
        lhs, rhs = separation_values(spec)
        assert lhs < rhs
        assert certify_witness_psd(spec, 64).passed


@settings(max_examples=150)
@given(
    st.floats(-0.9, 0.9),
    st.floats(-math.pi, math.pi),
    st.floats(-15.0, -2.0).map(lambda e: 10.0**e),
    st.sampled_from((1.0, -1.0)),
    st.floats(-13.0, -8.0).map(lambda e: 10.0**e),
    st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
)
def test_mixed_witness_near_the_antipode_certifies_or_names_the_antipode(z, theta, eps, sign, short, gap):
    # refused sphere pairs within 10^-15..10^-2 of antipodal, their proper time
    # just short of the band edge (required - BOUND_SLACK/gap); the pure pair and
    # its Bloch vectors get the same spec or the same near-antipodal refusal
    dirac = DiracData(0.0, gap)
    omega, eta = _as_mixed(_near_antipodal_pair(z, theta, eps, sign, 1.0, dirac))
    angle = angular_distance(omega.internal.parallel_angle, eta.internal.parallel_angle)
    pure = _near_antipodal_pair(z, theta, eps, sign, (angle - BOUND_SLACK - short) / gap, dirac)
    assume(not pure_causal(*pure, dirac).related)
    outcomes = []
    for pair in (pure, _as_mixed(pure)):
        try:
            outcomes.append(build_witness(*pair, dirac))
        except ValueError as err:
            assert "near-antipodal" in str(err)
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], WitnessSpec):
        cert = refute_with_witness(*pure, dirac, n_samples=32)
        assert cert.spec == outcomes[0] and cert.margin > 0 and cert.psd.passed


def test_witness_spec_rejects_non_timelike_endpoints():
    # checked once, when the spec is built: no certification step ever sees such a spec
    p = SpacetimePoint(0.0, 0.0)
    lightlike = [SpacetimePoint(0.7, 0.7), SpacetimePoint(0.7, -0.7)]
    other = [SpacetimePoint(0.5, 0.9), SpacetimePoint(0.0, 0.3), SpacetimePoint(-0.5, 0.0)]
    for q, kind in [(q, "lightlike") for q in lightlike] + [(q, "spacelike or past-directed") for q in other]:
        with pytest.raises(ValueError, match=f"^{kind} endpoint separation: no timelike worldline"):
            WitnessSpec(
                epsilon=0.4,
                theta_c=0.0,
                p=p,
                q=q,
                abs_phi1=math.sqrt(0.5),
                abs_phi2=math.sqrt(0.5),
                dirac=D_UNIT,
                delta_theta=2.0,
            )


def test_mixed_witness_rejects_related_pair():
    omega = MixedState(SpacetimePoint(0, 0), MixedInternalState(0.0, 0.0, 0.0))
    eta = MixedState(SpacetimePoint(3.0, 0), MixedInternalState(0.9, 0.0, 0.0))
    with pytest.raises(ValueError):
        build_mixed_witness(omega, eta, D_UNIT)

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalnc import cone
from causalnc.causality import PureState
from causalnc.cone import (
    PSD_TOL,
    AlgebraElement,
    ConeMatrix,
    EigenvalueRangeError,
    GridViolation,
    MembershipReport,
    RegionGrid,
    UnequalDiagonalError,
    _block_verdicts,
    _charpoly,
    _cone_entries,
    _gershgorin_bound,
    _grid_entries,
    _matrices,
    _node_scales,
    _psd_at_nodes,
    certify_grid_psd,
    cone_matrix_at,
    cone_membership,
    conformal_rescale_matrix,
    is_psd,
    lemma_sufficient_check,
)
from causalnc.fields import (
    BinOp,
    Call,
    DomainError,
    Neg,
    Num,
    ParseError,
    Pow,
    Var,
    jet,
    parse,
    to_source,
)
from causalnc.minkowski import SpacetimePoint
from causalnc.oracle import SamplerConfig, sample_causal_element
from causalnc.states import DiracData, PureInternalState
from causalnc.witness import build_witness
from strategies import EXACT_T, EXACT_X, FIELD_TREES, _exactly_psd, field_trees

D_UNIT = DiracData(0.0, 1.0)
ORIGIN = SpacetimePoint(0.0, 0.0)
SQUARE = RegionGrid(-1.0, 1.0, -1.0, 1.0, 21, 21)


def _reference_membership(
    el: AlgebraElement, dirac: DiracData, region: RegionGrid, tol: float = PSD_TOL
) -> MembershipReport:
    """cone_membership by eigvalsh on every node's matrix: the report the structured kernel must equal.

    A 0-d entry, constant over the grid, is widened to every node, so each node gets its own matrix.
    """
    entries = [np.broadcast_to(part, region.nt * region.nx) for part in _grid_entries(el, dirac, region)]
    min_eigs, passed = _psd_at_nodes(_matrices(entries), tol)
    low = region.node(int(np.argmin(min_eigs)))
    if not np.isfinite(min_eigs.min()):
        raise EigenvalueRangeError(
            f"smallest cone matrix eigenvalue {float(min_eigs.min())} at grid node (t={low.t}, x={low.x})"
        )
    n_violations = int((~passed).sum())
    first = None
    if n_violations:
        idx = int(np.argmin(passed))
        first = GridViolation(region.node(idx), float(min_eigs[idx]))
    return MembershipReport(
        member_on_grid=n_violations == 0,
        first_violation=first,
        min_eigenvalue=float(min_eigs.min()),
        min_eigenvalue_point=low,
        n_nodes=len(min_eigs),
        n_violations=n_violations,
    )


def test_cone_matrix_diag_t_is_identity():
    # hand expansion: a_t = b_t = 1, a_x = b_x = 0, c = 0 -> diag(1,1,1,1)
    el = AlgebraElement.from_sources("t", "t")
    m = cone_matrix_at(el, D_UNIT, ORIGIN).m
    assert np.allclose(m, np.eye(4), atol=1e-15)


def test_cone_matrix_diag_x_is_indefinite():
    # hand expansion: a_x = b_x = 1 -> diag(1,-1,1,-1)
    el = AlgebraElement.from_sources("x", "x")
    m = cone_matrix_at(el, D_UNIT, ORIGIN).m
    assert np.allclose(m, np.diag([1.0, -1.0, 1.0, -1.0]), atol=1e-15)
    assert not is_psd(ConeMatrix(m))


def test_cone_matrix_constant_c_degenerate_dirac_vanishes():
    el = AlgebraElement.from_sources("0", "0", "1", "0")
    m = cone_matrix_at(el, DiracData(0.7, 0.7), ORIGIN).m
    assert np.allclose(m, np.zeros((4, 4)), atol=1e-15)


def test_cone_matrix_entries_follow_the_displayed_layout():
    # generic fields; compare entry by entry against the spelled-out formulas
    el = AlgebraElement.from_sources(
        "2*t + x^2", "t^3 - x", "sin(t)*x", "cos(x) + t"
    )
    dirac = DiracData(0.4, -0.8)
    p = SpacetimePoint(0.7, -0.3)
    _, a_t, a_x = jet(el.a, p.t, p.x)
    _, b_t, b_x = jet(el.b, p.t, p.x)
    cr, cr_t, cr_x = jet(el.c_re, p.t, p.x)
    ci, ci_t, ci_x = jet(el.c_im, p.t, p.x)
    c = cr + 1j * ci
    c0 = cr_t + 1j * ci_t
    c1 = cr_x + 1j * ci_x
    delta = dirac.d1 - dirac.d2
    m = cone_matrix_at(el, dirac, p).m
    assert m[0, 0] == pytest.approx(a_t + a_x)
    assert m[1, 1] == pytest.approx(a_t - a_x)
    assert m[2, 2] == pytest.approx(b_t + b_x)
    assert m[3, 3] == pytest.approx(b_t - b_x)
    assert m[0, 2] == pytest.approx(-(c0 + c1))
    assert m[1, 3] == pytest.approx(-(c0 - c1))
    assert m[0, 3] == pytest.approx(-delta * c)
    assert m[1, 2] == pytest.approx(delta * c)
    assert np.allclose(m, m.conj().T, atol=1e-14)


def test_cone_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        ConeMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(ValueError):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        ConeMatrix(bad)


def test_is_psd_examples():
    assert is_psd(ConeMatrix(np.eye(4, dtype=complex)))
    assert not is_psd(ConeMatrix(np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)))
    assert is_psd(ConeMatrix(np.zeros((4, 4), dtype=complex)))


@pytest.mark.parametrize("tol", (math.nan, math.inf, -math.inf))
def test_is_psd_refuses_a_tolerance_that_is_not_finite(tol):
    with pytest.raises(ValueError, match=f"PSD tolerance must be a finite number, got {tol}"):
        is_psd(ConeMatrix(np.eye(4, dtype=complex)), tol)


def _lemma_element(amp=0.1, freq=1.0, gap=1.0, headroom=1.05):
    bound = amp * (2.0 * math.sqrt(2.0 / math.e) + freq + gap)
    k = headroom * bound
    return AlgebraElement.from_sources(
        f"{k!r}*t",
        f"{k!r}*t",
        f"{amp!r}*exp(-(t^2 + x^2))*cos({freq!r}*t)",
        f"{amp!r}*exp(-(t^2 + x^2))*sin({freq!r}*t)",
    )


def test_lemma_element_matrix_is_psd_with_margin():
    el = _lemma_element()
    for p in (ORIGIN, SpacetimePoint(0.5, -0.25), SpacetimePoint(-1.0, 1.5)):
        m = cone_matrix_at(el, D_UNIT, p)
        assert is_psd(m)
        assert np.linalg.eigvalsh(m.m)[0] > -1e-12


def test_lemma_sufficient_check_examples():
    # a = b = 2t against a Gaussian phase wave: evaluate both sides directly
    el = AlgebraElement.from_sources(
        "2*t", "2*t", "exp(-t^2 - x^2)*cos(x)", "exp(-t^2 - x^2)*sin(x)"
    )
    cr, cr_t, cr_x = jet(el.c_re, ORIGIN.t, ORIGIN.x)
    ci, ci_t, ci_x = jet(el.c_im, ORIGIN.t, ORIGIN.x)
    lhs = 2.0  # a_t - |a_x| for a = 2t
    rhs = math.hypot(cr_t, ci_t) + math.hypot(cr_x, ci_x) + D_UNIT.gap * math.hypot(cr, ci)
    assert lemma_sufficient_check(el, D_UNIT, ORIGIN) == (lhs >= rhs - 1e-12)
    assert lemma_sufficient_check(el, D_UNIT, ORIGIN)  # 2 >= 0 + 1 + 1

    assert lemma_sufficient_check(AlgebraElement.from_sources("t", "t"), D_UNIT, ORIGIN)
    zero_diag = AlgebraElement.from_sources("0", "0", "1", "0")
    assert not lemma_sufficient_check(zero_diag, D_UNIT, ORIGIN)


def test_lemma_check_requires_equal_diagonals():
    el = AlgebraElement.from_sources("t", "2*t")
    with pytest.raises(UnequalDiagonalError):
        lemma_sufficient_check(el, D_UNIT, ORIGIN)


def test_lemma_check_refuses_an_overflowing_entry():
    # a_t + a_x overflowed to inf, a_t - |a_x| read inf - inf = NaN, and the check said False
    el = AlgebraElement.from_sources("1e308*t + 1e308*x", "1e308*t + 1e308*x")
    with pytest.raises(DomainError, match="non-finite cone matrix entry"):
        lemma_sufficient_check(el, D_UNIT, ORIGIN)


def test_lemma_pass_implies_psd_randomised():
    rng = np.random.default_rng(33)
    hits = 0
    for _ in range(60):
        amp = rng.uniform(0.05, 0.6)
        freq = rng.uniform(0.2, 2.0)
        slope = rng.uniform(0.0, 3.0)
        el = AlgebraElement.from_sources(
            f"{slope!r}*t",
            f"{slope!r}*t",
            f"{amp!r}*exp(-(t^2 + x^2))*cos({freq!r}*t)",
            f"{amp!r}*exp(-(t^2 + x^2))*sin({freq!r}*t)",
        )
        p = SpacetimePoint(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if lemma_sufficient_check(el, D_UNIT, p):
            hits += 1
            assert is_psd(cone_matrix_at(el, D_UNIT, p))
    assert hits > 5  # the sweep must actually exercise passing cases


def test_cone_membership_examples():
    member = cone_membership(AlgebraElement.from_sources("t", "t"), D_UNIT, SQUARE)
    assert member.member_on_grid
    assert member.first_violation is None
    assert member.n_nodes == 21 * 21
    assert member.min_eigenvalue == pytest.approx(1.0)

    violation = cone_membership(AlgebraElement.from_sources("x", "x"), D_UNIT, SQUARE)
    assert not violation.member_on_grid
    assert violation.n_violations == violation.n_nodes
    # first violation in row-major order is the (t_min, x_min) corner
    assert violation.first_violation.point.almost_equal(SpacetimePoint(-1.0, -1.0))
    assert violation.first_violation.min_eigenvalue == pytest.approx(-1.0)

    causal_funcs = AlgebraElement.from_sources("tanh(t + x) + tanh(t - x)", "t")
    assert cone_membership(causal_funcs, D_UNIT, SQUARE).member_on_grid


def test_membership_report_json():
    report = cone_membership(AlgebraElement.from_sources("x", "x"), D_UNIT, SQUARE)
    data = report.to_dict()
    assert data["member_on_grid"] is False
    assert data["first_violation"]["point"] == [-1.0, -1.0]
    assert data["first_violation"]["min_eigenvalue"] == pytest.approx(-1.0)
    assert data["min_eigenvalue_point"] == [-1.0, -1.0]  # every node ties: the first one


def test_diagonal_characterisation():
    # with c = 0, membership at a node is exactly a_t >= |a_x| and b_t >= |b_x|
    rng = np.random.default_rng(41)
    for _ in range(40):
        coeffs = [float(v) for v in rng.uniform(-1.5, 1.5, size=4)]
        el = AlgebraElement.from_sources(
            f"{coeffs[0]!r}*t + {coeffs[1]!r}*x", f"{coeffs[2]!r}*t + {coeffs[3]!r}*x"
        )
        p = SpacetimePoint(rng.uniform(-1, 1), rng.uniform(-1, 1))
        expected = coeffs[0] >= abs(coeffs[1]) and coeffs[2] >= abs(coeffs[3])
        assert is_psd(cone_matrix_at(el, D_UNIT, p)) == expected


def test_degenerate_dirac_constants_are_members():
    rng = np.random.default_rng(43)
    degenerate = DiracData(1.1, 1.1)
    for _ in range(20):
        vals = rng.uniform(-2, 2, size=4)
        el = AlgebraElement.from_sources(*(repr(float(v)) for v in vals))
        report = cone_membership(el, degenerate, SQUARE)
        assert report.member_on_grid
        assert abs(report.min_eigenvalue) < 1e-14


def test_conformal_rescale_examples():
    m = cone_matrix_at(AlgebraElement.from_sources("t", "t"), D_UNIT, ORIGIN)
    assert np.allclose(conformal_rescale_matrix(m, 1.0).m, m.m)
    assert np.allclose(conformal_rescale_matrix(m, 2.0).m, 4.0 * m.m)
    assert is_psd(conformal_rescale_matrix(m, 2.0))

    indefinite = cone_matrix_at(AlgebraElement.from_sources("x", "x"), D_UNIT, ORIGIN)
    assert not is_psd(conformal_rescale_matrix(indefinite, 0.5))
    with pytest.raises(ValueError):
        conformal_rescale_matrix(m, 0.0)
    with pytest.raises(ValueError):
        conformal_rescale_matrix(m, -1.0)


def test_conformal_invariance_randomised():
    # unlike battery check conformal_invariance, keeps near-singular spectra (|lambda_min| < 1e-2)
    rng = np.random.default_rng(47)
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = ConeMatrix(g + g.conj().T)
        base = is_psd(h)
        for omega in (1e-3, 0.5, 1.0, 2.0, 1e3):
            assert is_psd(conformal_rescale_matrix(h, omega)) == base


def test_cone_convexity_and_matrix_linearity():
    e1 = _lemma_element(amp=0.15, freq=0.7)
    e2 = AlgebraElement.from_sources("2*t + tanh(t + x)", "t")
    total = AlgebraElement(  # the entrywise sum
        BinOp("+", e1.a, e2.a),
        BinOp("+", e1.b, e2.b),
        BinOp("+", e1.c_re, e2.c_re),
        BinOp("+", e1.c_im, e2.c_im),
    )
    p = SpacetimePoint(0.4, -0.2)
    m1 = cone_matrix_at(e1, D_UNIT, p).m
    m2 = cone_matrix_at(e2, D_UNIT, p).m
    msum = cone_matrix_at(total, D_UNIT, p).m
    assert np.allclose(msum, m1 + m2, atol=1e-12)
    assert is_psd(ConeMatrix(msum))


def test_certify_grid_psd_refuses_a_coupling_modulus_beyond_the_float_range():
    # c_t has finite parts, but |c_t| is above 1.8e308, so the node scale s is
    # inf and the Gershgorin bound and its threshold are both -inf
    el = AlgebraElement.from_sources("t", "t", "1.3e308*t", "1.3e308*t")
    grid = RegionGrid(0.0, 1.0, -1.0, 1.0, 5, 5)
    with pytest.raises(EigenvalueRangeError):
        cone_membership(el, D_UNIT, grid)
    assert certify_grid_psd(el, D_UNIT, grid) is False


def test_certify_grid_psd_agrees_with_cone_membership():
    elements = [
        AlgebraElement.from_sources("t", "t"),
        AlgebraElement.from_sources("x", "x"),
        _lemma_element(),
        AlgebraElement.from_sources("tanh(t + x)", "t"),
        AlgebraElement.from_sources("0", "0", "exp(-t^2 - x^2)", "0"),
    ]
    # PSD_TOL lets the Gershgorin step fire; below SCHUR_EIG_SLACK it never does
    for tol in (PSD_TOL, 0.0, cone.SCHUR_EIG_SLACK / 2):
        for el in elements:
            report = cone_membership(el, D_UNIT, SQUARE, tol)
            assert certify_grid_psd(el, D_UNIT, SQUARE, tol) == report.member_on_grid, (el, tol)


def test_certify_grid_psd_sends_a_non_member_to_block_verdicts(monkeypatch):
    # a0 - a1 = -1 at every node, so G < 0 there and the Gershgorin step passes no block
    calls = []
    verdicts = cone._block_verdicts

    def counting(entries, n, tol, bound):
        calls.append(n)
        return verdicts(entries, n, tol, bound)

    monkeypatch.setattr(cone, "_block_verdicts", counting)
    assert certify_grid_psd(AlgebraElement.from_sources("x", "x"), D_UNIT, SQUARE) is False
    assert calls == [SQUARE.nt * SQUARE.nx]


@pytest.mark.parametrize("tol", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("decide", (cone_membership, certify_grid_psd))
def test_grid_kernels_refuse_a_tolerance_that_is_not_finite(decide, tol):
    # nan once reported all 25 nodes of this causal element as violations, and inf passed every node
    el, grid = AlgebraElement.from_sources("t", "t"), RegionGrid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    with pytest.raises(ValueError, match=f"PSD tolerance must be a finite number, got {tol}"):
        decide(el, D_UNIT, grid, tol=tol)


def test_membership_domain_error_names_grid_node():
    small = RegionGrid(-0.5, 0.5, -0.5, 0.5, 5, 5)
    cases = [
        (("log(t)", "t"), D_UNIT, RegionGrid(-1.0, 1.0, -1.0, 1.0, 5, 5), "grid node (t=-1"),
        # 3^700 overflows, so 0*t^700 is NaN in the value and in d/dt on the t=3 row
        (
            ("t + 0*t^700", "t"),
            D_UNIT,
            RegionGrid(0.0, 3.0, -1.0, 1.0, 4, 3),
            "non-finite value or partial at grid node (t=3.0, x=-1.0)",
        ),
        # finite partials, but the entry a_t + a_x overflows; b = x is not causal
        (
            ("1e308*t + 1e308*x", "x"),
            D_UNIT,
            small,
            "non-finite cone matrix entry at grid node (t=-0.5, x=-0.5) in '1e+308 * t + 1e+308 * x'",
        ),
        # a finite constant c, but the entry (d1 - d2)*c overflows
        (
            ("t", "t", "1.5e308", "0"),
            DiracData(0.0, 2.0),
            small,
            "non-finite cone matrix entry at grid node (t=-0.5, x=-0.5) in '1.5e+308'",
        ),
        # c_t + c_x overflows on the imaginary part, only in the x=0.5 column
        (
            ("t", "t", "0", "9e307*t + 4.5e307*(x + 0.5)^2"),
            D_UNIT,
            small,
            "non-finite cone matrix entry at grid node (t=-0.5, x=0.5) in '9e+307 * t + 4.5e+307 * (x + 0.5)^2'",
        ),
        # the three paths of the one finiteness test in _cone_entries: a value that is not finite
        # beside finite partials fails a's root check ...
        (
            ("t + 1e308 + 1e308", "t"),
            D_UNIT,
            small,
            "non-finite value or partial at grid node (t=-0.5, x=-0.5) in 't + 1e+308 + 1e+308'",
        ),
        # ... a's root check comes before the log error inside b's walk ...
        (
            ("t + 0*t^700", "t + log(x - 10)"),
            D_UNIT,
            RegionGrid(0.0, 3.0, -1.0, 1.0, 4, 3),
            "non-finite value or partial at grid node (t=3.0, x=-1.0) in 't + 0.0 * t^700'",
        ),
        # ... and finite entries whose sum overflows leave a member: over the 25 nodes, as 1e307*t's,
        # or at one node, as 9e307*t's, where the exact checks run and pass
        (("1e307*t", "1e307*t"), D_UNIT, small, None),
        (("9e307*t", "9e307*t"), D_UNIT, small, None),
    ]
    for sources, dirac, grid, message in cases:
        el = AlgebraElement.from_sources(*sources)
        if message is None:
            assert cone_membership(el, dirac, grid).member_on_grid and certify_grid_psd(el, dirac, grid)
            continue
        for decide in (cone_membership, certify_grid_psd):
            with pytest.raises(DomainError) as err:
                decide(el, dirac, grid)
            assert message in str(err.value)


def _complex(re, im) -> np.ndarray:
    """The complex array of the given real and imaginary parts, their bits (signed zeros too) kept."""
    re, im = np.broadcast_arrays(re, im)
    return np.stack((re, im), axis=-1).view(complex)[..., 0]


def _reference_entries(el: AlgebraElement, t, x, delta: float):
    """The cone entries as jet on each field and then a check of each entry give them.

    Each part of u, z and w is one real sum, difference or product of partials or values.
    """
    shape = np.broadcast(t, x).shape
    _, adt, adx = jet(el.a, t, x)
    _, bdt, bdx = (None, adt, adx) if el.b == el.a else jet(el.b, t, x)
    rv, rdt, rdx = jet(el.c_re, t, x)
    iv, idt, idx = jet(el.c_im, t, x)
    parts = (np.asarray(part, dtype=float) for part in (adt, adx, bdt, bdx, rv, rdt, rdx, iv, idt, idx))
    adt, adx, bdt, bdx, rv, rdt, rdx, iv, idt, idx = parts
    with np.errstate(over="ignore", invalid="ignore"):
        ap, am, bp, bm = adt + adx, adt - adx, bdt + bdx, bdt - bdx
        u, z = _complex(rdt + rdx, idt + idx), _complex(rdt - rdx, idt - idx)
        w = _complex(delta * rv, delta * iv)
    for expr, parts in (
        (el.a, (ap, am)),
        (el.b, (bp, bm)),
        (el.c_re, (u.real, z.real, w.real)),
        (el.c_im, (u.imag, z.imag, w.imag)),
    ):
        finite = np.logical_and.reduce([np.broadcast_to(np.isfinite(part), shape) for part in parts])
        if not finite.all():
            raise DomainError("non-finite cone matrix entry", expr, int(np.argmin(finite)))
    n = math.prod(shape)
    return tuple(
        part if part.ndim == 0 else np.broadcast_to(part, shape).reshape(n) for part in (ap, am, bp, bm, u, z, w)
    )


def _entries_or_error(entries, el, t, x, delta):
    try:
        return [(part.dtype, part.shape, part.tobytes()) for part in map(np.asarray, entries(el, t, x, delta))]
    except DomainError as err:
        return str(err), err.expr, err.index


#: the literals 1e308 and 9e307 make sums of finite entries, and the entries themselves, overflow
_OVERFLOWING_TREES = field_trees((1e308, 9e307))


@settings(max_examples=300)
@given(st.tuples(*[_OVERFLOWING_TREES] * 4), st.booleans(), st.sampled_from((0.0, -1.0, 2.0, 1e300)))
def test_cone_entries_check_finiteness_as_jet_and_the_entry_check_do(trees, b_is_a, delta):
    a, b, c_re, c_im = trees
    el = AlgebraElement(a, a if b_is_a else b, c_re, c_im)
    got = _entries_or_error(_cone_entries, el, EXACT_T, EXACT_X, delta)
    assert got == _entries_or_error(_reference_entries, el, EXACT_T, EXACT_X, delta)


PROPERTY_GRID = RegionGrid(-3.0, 3.0, -3.0, 3.0, 7, 7)


def _outcome(fn):
    try:
        return fn()
    except DomainError:
        return DomainError


@settings(max_examples=150)
@given(st.tuples(*[FIELD_TREES] * 4), st.sampled_from((0.0, 4.0, 64.0)))
def test_evaluator_and_psd_paths_agree_on_random_trees(trees, slope):
    # a steep slope*t on both diagonals turns many bounded trees into members
    tilt = lambda tree: BinOp("+", BinOp("*", Num(slope), Var("t")), tree)
    el = AlgebraElement(tilt(trees[0]), tilt(trees[1]), trees[2], trees[3])
    certified = _outcome(lambda: certify_grid_psd(el, D_UNIT, PROPERTY_GRID))
    report = _outcome(lambda: cone_membership(el, D_UNIT, PROPERTY_GRID))
    reference = _outcome(lambda: _reference_membership(el, D_UNIT, PROPERTY_GRID))
    if report is DomainError:
        assert certified is DomainError and reference is DomainError
        return
    assert certified == report.member_on_grid
    assert report.to_dict() == reference.to_dict()


EDGE_GRID = RegionGrid(-1.0, 1.0, -1.0, 1.0, 9, 9)
#: beta at which a = t + beta*tanh(x - x0) meets the tolerance on the column
#: x = x0, where a_t - a_x = 1 - beta and the node scale is 1 + beta.
TOL_EDGE = (1.0 + PSD_TOL) / (1.0 - PSD_TOL)

#: 1 -/+ 10^-k for k = 3..12
_nudges = st.tuples(st.sampled_from((-1.0, 1.0)), st.integers(3, 12)).map(
    lambda d: 1.0 + d[0] * 10.0 ** -d[1]
)
_diracs = st.sampled_from((D_UNIT, DiracData(1.0, 1.0), DiracData(0.5, -1.5)))
_edges = st.sampled_from((1.0, TOL_EDGE))


@st.composite
def _tanh_edge(draw):
    """a_t - a_x = 1 - beta on the grid column x = x0; beta = 1 or TOL_EDGE, nudged."""
    x0 = float(np.linspace(EDGE_GRID.x_min, EDGE_GRID.x_max, EDGE_GRID.nx)[draw(st.integers(0, 8))])
    beta = draw(_edges) * draw(_nudges)
    a = f"t + {beta!r}*tanh(x - {x0!r})"
    c = draw(st.sampled_from(("0", "0.01*exp(-(t^2 + x^2))")))
    return AlgebraElement.from_sources(a, draw(st.sampled_from(("t", a))), c)


@st.composite
def _singular_da(draw):
    """Da = diag(2, 0).  With d1 = d2, c = g*(t + x) couples only to the 2: the
    block [[2, -2g], [-2g, 1]] has smallest eigenvalue 0 at g^2 = 1/2 and
    -tol*scale at g_tol (scale 2)."""
    nudge = draw(_nudges)
    g_tol = math.sqrt(((3.0 + 4.0 * PSD_TOL * nudge) ** 2 - 1.0) / 16.0)
    g = draw(st.sampled_from((0.0, 0.5, math.sqrt(0.5 * nudge), g_tol)))
    c = draw(st.sampled_from((f"{g!r}*(t + x)", f"{g!r}*exp(-(t^2 + x^2))", f"{g!r}")))
    return AlgebraElement.from_sources("t + x", "t", c)


@st.composite
def _steep_slope(draw):
    """a = k*t + m*x with slopes up to 1e6: a_t - |a_x| = k - m, node scale k + m."""
    k = 10.0 ** draw(st.integers(0, 6))
    m = k * draw(_edges) * draw(_nudges)
    return AlgebraElement.from_sources(f"{k!r}*t + {m!r}*x", "t")


@st.composite
def _rotating_phase(draw):
    """a, b linear and c = r*exp(i(k t + m x)): every node's matrix is unitarily
    similar to the one at the origin, whose diagonal is shifted so that the
    smallest eigenvalue sits at -tol*scale or at 0, nudged; all of C couples."""
    ap, am, bp, bm = draw(st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4))
    r, k, m = draw(st.floats(0.1, 2.0)), draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    dirac, nudge, at_tol = draw(_diracs), draw(_nudges), draw(st.booleans())
    wave = f"{k!r}*t + {m!r}*x"
    sources = lambda shift: (
        f"{(ap + am) / 2 + shift!r}*t + {(ap - am) / 2!r}*x",
        f"{(bp + bm) / 2 + shift!r}*t + {(bp - bm) / 2!r}*x",
        f"{r!r}*cos({wave})",
        f"{r!r}*sin({wave})",
    )
    m0 = cone_matrix_at(AlgebraElement.from_sources(*sources(0.0)), dirac, ORIGIN).m
    lam0, shift = float(np.linalg.eigvalsh(m0)[0]), 0.0
    for _ in range(3):  # the scale moves with the shift only through the diagonal
        scale = max(1.0, float(np.abs(m0 + shift * np.eye(4)).max()))
        target = -PSD_TOL * scale * nudge if at_tol else (nudge - 1.0) * scale
        shift = target - lam0
    return AlgebraElement.from_sources(*sources(shift)), dirac


@st.composite
def _lemma_headroom(draw):
    amp, freq = draw(st.floats(0.02, 0.3)), draw(st.floats(0.2, 2.0))
    return _lemma_element(amp=amp, freq=freq, headroom=draw(st.floats(0.99, 1.01)))


def _with_dirac(elements):
    return st.tuples(elements, _diracs)


@pytest.mark.parametrize(
    "cases",
    (
        _with_dirac(_tanh_edge()),
        _with_dirac(_singular_da()),
        _with_dirac(_steep_slope()),
        _rotating_phase(),
        _with_dirac(_lemma_headroom()),
    ),
    ids=("tanh", "singular", "slope", "rotating", "lemma"),
)
@settings(max_examples=100)
@given(data=st.data())
def test_certify_grid_psd_equals_cone_membership_near_the_boundary(cases, data):
    el, dirac = data.draw(cases)
    report = cone_membership(el, dirac, EDGE_GRID)
    assert certify_grid_psd(el, dirac, EDGE_GRID) == report.member_on_grid
    assert report.to_dict() == _reference_membership(el, dirac, EDGE_GRID).to_dict()


WIDE_GRID = RegionGrid(-3.0, 3.0, -3.0, 3.0, 101, 101)


def _count_eigvalsh_rows(monkeypatch) -> list:
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counting(mats):
        rows.append(len(mats))
        return eigvalsh(mats)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return rows


@pytest.mark.parametrize(
    "sources",
    (
        ("t", "t"),  # constant: every node ties for the minimum
        ("t + 0.5*x^2", "t + 0.5*x^2"),  # quadruple root on the x = 0 column
        ("t + 0.5*x^2", "t + 0.5*x^2", "0.001*x^3"),  # weakly coupled around it
        ("t", "t", "2*exp(-(t^2 + x^2))"),  # coupled non-members
        ("t", "t", "0.8*cos(t)", "0.3*sin(x)"),
        ("2*t", "t", "0.5"),  # double smallest root at every node
    ),
    ids=("constant", "quadruple", "near-quadruple", "bump-coupled", "wave-coupled", "double"),
)
def test_cone_membership_equals_reference_on_paths_the_strategies_miss(sources, monkeypatch):
    el = AlgebraElement.from_sources(*sources)
    reference = _reference_membership(el, D_UNIT, WIDE_GRID).to_dict()
    rows = _count_eigvalsh_rows(monkeypatch)
    assert cone_membership(el, D_UNIT, WIDE_GRID).to_dict() == reference
    assert sum(rows) <= 50  # ties are diagonalised once, not once per node


def test_cone_membership_where_newton_stalls_at_a_double_root():
    # the two 2x2 blocks [[ap, -w], [-w*, bm]] and [[am, w], [w*, bp]] share
    # their eigenvalues, so the smallest is double at every node, where an
    # iterative root finder converges only linearly; a and b do not read x,
    # so the closed-form bound of _block_membership is exact there
    el = AlgebraElement.from_sources("2*t + 0.1*t^2", "t", "0.5")
    reference = _reference_membership(el, D_UNIT, WIDE_GRID).to_dict()
    assert cone_membership(el, D_UNIT, WIDE_GRID).to_dict() == reference


@pytest.mark.parametrize(
    "sources",
    (
        ("2*t + 0.3*sin(x)", "2.2*t + 0.2*cos(x)", "0.3*exp(-(t^2 + x^2))*cos(t)", "0.3*exp(-(t^2 + x^2))*sin(x)"),
        ("t + 0.99*tanh(x)", "t", "0.2*cos(t)", "0.2*sin(x)"),  # fails around x = 0
    ),
    ids=("member", "non-member"),
)
def test_cone_membership_equals_reference_where_the_diagonal_reads_x(sources):
    # where a or b reads x, ap != am or bp != bm and the closed-form bound on
    # the smallest eigenvalue is below it, so more nodes reach eigvalsh
    el = AlgebraElement.from_sources(*sources)
    reference = _reference_membership(el, D_UNIT, WIDE_GRID).to_dict()
    assert cone_membership(el, D_UNIT, WIDE_GRID).to_dict() == reference


def test_cone_membership_diagonalises_under_one_percent_of_a_large_grid(monkeypatch):
    grid = RegionGrid(-3.0, 3.0, -3.0, 3.0, 401, 401)
    rows = _count_eigvalsh_rows(monkeypatch)
    report = cone_membership(_lemma_element(), D_UNIT, grid)
    assert report.member_on_grid and report.n_nodes == 401 * 401
    assert 0 < sum(rows) < 0.01 * report.n_nodes


def _wave_element(k: float) -> AlgebraElement:
    """a = b = k*t against a Gaussian phase wave of amplitude k/10: a member, every entry of order k."""
    amp = 0.1 * k
    wave = "exp(-(t^2 + x^2))"
    return AlgebraElement.from_sources(
        f"{k!r}*t", f"{k!r}*t", f"{amp!r}*{wave}*cos(1.3*t)", f"{amp!r}*{wave}*sin(1.3*t)"
    )


@pytest.mark.parametrize("magnitude", (1.0, 1e100, 1e155, 1e300, 5e307))
def test_cone_kernels_decide_huge_entries_without_eigvalsh(magnitude, monkeypatch):
    # Newton on unscaled coefficients overflowed above about 1e77 (every node
    # went to eigvalsh), and the squares in the node scale and in the Schur
    # test above about 1.34e154; at 5e307 the sum by which _cone_entries
    # checks the entries for inf and NaN overflows, although every entry is finite
    el = _wave_element(magnitude)
    reference = _reference_membership(el, D_UNIT, WIDE_GRID).to_dict()
    rows = _count_eigvalsh_rows(monkeypatch)
    assert cone_membership(el, D_UNIT, WIDE_GRID).to_dict() == reference
    assert sum(rows) <= 3  # the block's two nodes of smallest L and the final distinct row
    rows.clear()
    assert certify_grid_psd(el, D_UNIT, WIDE_GRID) is True
    assert rows == []


SCHUR_GRID = RegionGrid(-3.0, 3.0, -3.0, 3.0, 201, 201)


@pytest.mark.parametrize(
    "sources, violations",
    ((("t", "t", "0.8*t", "0.8*x"), 40_401), (("3*t", "3*t", "cos(t)*x", "sin(x)*t"), 27_448)),
    ids=("linear", "wave"),
)
def test_coupled_non_members_are_decided_by_the_schur_tail(sources, violations, monkeypatch):
    # no benchmark operation reaches the Schur tests of _block_verdicts; on these
    # coupled non-members they decide every node, so eigvalsh sees only a few rows
    el = AlgebraElement.from_sources(*sources)
    reference = _reference_membership(el, D_UNIT, SCHUR_GRID).to_dict()
    assert reference["n_violations"] == violations
    rows = _count_eigvalsh_rows(monkeypatch)
    assert certify_grid_psd(el, D_UNIT, SCHUR_GRID) is False
    assert rows == []
    assert cone_membership(el, D_UNIT, SCHUR_GRID).to_dict() == reference
    assert sum(rows) <= 10  # 8 and 9: each block's two nodes of smallest L, then the kept nodes' distinct rows


def test_node_scales_take_the_coupling_modulus_unsquared_only_where_the_square_overflows():
    real, cplx = np.zeros(2), np.zeros(2, dtype=complex)
    u = np.array([3e154 + 4e154j, 3.0 + 4.0j])
    with np.errstate(over="ignore"):
        scale = _node_scales((real, real, real, real, u, cplx, cplx))
    assert scale[0] == abs(u[0])  # |u|^2 = 2.5e309 overflows
    assert scale[1] == math.sqrt(3.0 * 3.0 + 4.0 * 4.0)


def test_rows_that_share_a_hash_are_diagonalised_apart(monkeypatch):
    # a zero multiplier leaves only the last bit column (Im w = 0 here) in the
    # hash, so all 202 candidate nodes of the x = -3 and x = 3 columns share
    # one key although those two columns hold different entries.  c.re is 0
    # but not the literal 0, so cone_membership keeps those nodes on its general path
    monkeypatch.setattr(cone, "_HASH_MULTIPLIER", np.int64(0))
    el = AlgebraElement.from_sources("t + 0.5*x^2", "t + 0.5*x^2", "0*t")
    reference = _reference_membership(el, D_UNIT, WIDE_GRID).to_dict()
    rows = _count_eigvalsh_rows(monkeypatch)
    assert cone_membership(el, D_UNIT, WIDE_GRID).to_dict() == reference
    assert sum(rows) > 100  # one column deduplicated, the other node by node
    # certify_grid_psd takes the same path: on a witness element every node is open
    el, dirac, grid = _witness_case(1.0, 0.5, 0.0, 0.0, 1.0)
    assert certify_grid_psd(el, dirac, grid) == _reference_membership(el, dirac, grid).member_on_grid
    # every entry 0-d: no bit column to hash, and the open nodes are one row
    el, grid = AlgebraElement.from_sources("t", "t", "1"), RegionGrid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    reference = _reference_membership(el, D_UNIT, grid, 0.0)
    rows.clear()
    assert certify_grid_psd(el, D_UNIT, grid, 0.0) == reference.member_on_grid
    assert rows == [1]


def test_smallest_eigenvalue_beyond_the_float_range_names_its_node():
    # finite entries up to 1.7e308, but the coupling drives an eigenvalue below -1.8e308;
    # the report would hold -inf, which JSON cannot carry
    el = AlgebraElement.from_sources("t", "t", "1e308*sqrt(x + 1)")
    grid = RegionGrid(1.0, 2.0, 1.0, 2.0, 2, 2)
    message = "smallest cone matrix eigenvalue -inf at grid node (t=1.0, x=2.0)"
    for decide in (cone_membership, _reference_membership):
        with pytest.raises(EigenvalueRangeError) as err:
            decide(el, D_UNIT, grid)
        assert str(err.value) == message
    assert certify_grid_psd(el, D_UNIT, grid) is False


# --- blocks of grid nodes ---------------------------------------------------------


def _decisions(el, dirac, region, block_nodes):
    """[cone_membership report, certify_grid_psd verdict] at one block size; an error as its text."""
    outcome = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cone, "BLOCK_NODES", block_nodes)
        for decide in (
            lambda: cone_membership(el, dirac, region).to_dict(),
            lambda: certify_grid_psd(el, dirac, region),
        ):
            try:
                outcome.append(decide())
            except (DomainError, EigenvalueRangeError) as err:
                outcome.append(f"{type(err).__name__}: {err}")
    return outcome


def _reference_decisions(el, dirac, region):
    try:
        report = _reference_membership(el, dirac, region)
    except DomainError as err:
        return [f"DomainError: {err}"] * 2
    except EigenvalueRangeError as err:
        return [f"EigenvalueRangeError: {err}", False]
    return [report.to_dict(), report.member_on_grid]


def _assert_block_size_changes_nothing(el, dirac, region):
    want = _reference_decisions(el, dirac, region)
    for block_nodes in (1, 7, 64, region.nt * region.nx):
        assert _decisions(el, dirac, region, block_nodes) == want, f"{block_nodes} nodes a block"


@settings(max_examples=40)
@given(st.tuples(*[FIELD_TREES] * 4), st.sampled_from((0.0, 4.0, 64.0)))
def test_block_size_changes_no_outcome_on_random_trees(trees, slope):
    tilt = lambda tree: BinOp("+", BinOp("*", Num(slope), Var("t")), tree)
    el = AlgebraElement(tilt(trees[0]), tilt(trees[1]), trees[2], trees[3])
    _assert_block_size_changes_nothing(el, D_UNIT, PROPERTY_GRID)


BLOCK_GRID = RegionGrid(-3.0, 3.0, -3.0, 3.0, 13, 13)


@pytest.mark.parametrize(
    "sources, dirac, grid",
    (
        (("t + sqrt((t - 0.5)^2 + (x + 0.3)^2 - 1.0)", "t"), D_UNIT, BLOCK_GRID),
        (("t", "t + log((t + 0.2)^2 + (x - 0.4)^2 - 0.8)"), D_UNIT, BLOCK_GRID),
        # the log disc in b comes first in node order, the sqrt disc in a first in the walk
        (("t + sqrt((t - 1.5)^2 + x^2 - 0.5)", "t + log((t + 1.5)^2 + x^2 - 0.5)"), D_UNIT, BLOCK_GRID),
        (("t + 0*t^700", "t"), D_UNIT, RegionGrid(0.0, 3.0, -1.0, 1.0, 4, 3)),
        (("1e308*t + 1e308*x", "x"), D_UNIT, RegionGrid(-0.5, 0.5, -0.5, 0.5, 5, 5)),
        (("t", "t", "1e308*sqrt(x + 1)"), D_UNIT, RegionGrid(1.0, 2.0, 1.0, 2.0, 3, 3)),
        (("t", "t - 2.0*exp(-((t - 0.3)^2 + (x + 0.2)^2)/0.5)"), D_UNIT, BLOCK_GRID),
        (("t + 0.5*x^2", "t + 0.5*x^2", "0.001*x^3"), D_UNIT, BLOCK_GRID),
        (("2*t + 0.1*t^2", "t", "0.5"), D_UNIT, BLOCK_GRID),
    ),
    ids=("sqrt-disc", "log-disc", "two-discs", "overflow-row", "overflow-entry", "eigenvalue-range",
         "bump", "near-quadruple", "double-root"),
)
def test_block_size_changes_no_outcome(sources, dirac, grid):
    _assert_block_size_changes_nothing(AlgebraElement.from_sources(*sources), dirac, grid)


def test_grid_blocks_walk_the_grid_once_in_row_major_order(monkeypatch):
    el = AlgebraElement.from_sources("t + x^2", "t", "sin(x)", "t*x")
    whole = _grid_entries(el, D_UNIT, BLOCK_GRID)
    for block_nodes, starts in (
        (7, [row * 13 + col for row in range(13) for col in (0, 7)]),  # slices of 7 and 6 nodes of each row
        (30, list(range(0, 169, 26))),  # runs of two whole rows, then the last row alone
    ):
        monkeypatch.setattr(cone, "BLOCK_NODES", block_nodes)
        blocks = list(cone._grid_blocks(el, D_UNIT, BLOCK_GRID))
        assert [start for start, _, _ in blocks] == starts
        assert [n for _, n, _ in blocks] == np.diff(starts + [169]).tolist()
        # an entry constant over a block is 0-d; widened to the block's n nodes it is that run of the whole grid's
        widened = ([np.broadcast_to(part, n) for part in entries] for _, n, entries in blocks)
        for part, whole_part in zip(zip(*widened), whole):
            assert np.array_equal(np.concatenate(part), np.broadcast_to(whole_part, 169))


def _counting_nodes(monkeypatch) -> list:
    """Record the number of nodes each block evaluation (_cone_entries, or _diagonal_jets where c = 0) walks."""
    sizes = []
    for name in ("_cone_entries", "_diagonal_jets"):

        def sized(el, t, x, delta, memo=None, evaluate=getattr(cone, name)):
            sizes.append(np.broadcast(t, x).size)
            return evaluate(el, t, x, delta, memo)

        monkeypatch.setattr(cone, name, sized)
    return sizes


def test_a_later_block_error_is_re_raised_from_that_block_on(monkeypatch):
    # b's log disc (first node 31: row 2, in the walk's fifth block, the first
    # 7-node slice of that row) comes first in node order, a's sqrt disc (first
    # node 109) first in the walk: the grid's error is a's
    el = AlgebraElement.from_sources("t + sqrt((t - 1.5)^2 + x^2 - 0.5)", "t + log((t + 1.5)^2 + x^2 - 0.5)")
    with pytest.raises(DomainError) as whole:
        _grid_entries(el, D_UNIT, BLOCK_GRID)
    assert str(whole.value).startswith("sqrt of a non-positive value at grid node (t=1.0, x=-0.5)")
    sizes = _counting_nodes(monkeypatch)
    monkeypatch.setattr(cone, "BLOCK_NODES", 7)
    for decide in (cone_membership, certify_grid_psd):
        sizes.clear()
        with pytest.raises(DomainError) as err:
            decide(el, D_UNIT, BLOCK_GRID)
        assert str(err.value) == str(whole.value)
        # rows 0 and 1 in slices of 7 and 6 nodes, row 2's first slice, then
        # one evaluation of the nodes from row 2 on
        assert sizes == [7, 6] * 2 + [7] + [169 - 2 * 13]


def test_an_error_mid_row_in_a_later_slice_names_the_whole_grids_node(monkeypatch):
    # rows of 40 nodes walked in slices of 16: the disc's first node is
    # row 2, column 21, in the second slice of the third row
    grid = RegionGrid(-2.0, 2.0, -3.9, 3.9, 5, 40)
    t, x = np.meshgrid(np.linspace(-2.0, 2.0, 5), np.linspace(-3.9, 3.9, 40), indexing="ij")
    inside = (t.ravel() - 0.1) ** 2 + (x.ravel() - 0.35) ** 2 - 0.05 <= 0.0
    first = int(np.argmax(inside))
    assert inside.any() and divmod(first, 40) == (2, 21)
    el = AlgebraElement.from_sources("t", "t + sqrt((t - 0.1)^2 + (x - 0.35)^2 - 0.05)")
    message = (
        f"sqrt of a non-positive value at grid node (t={float(t.ravel()[first])}, x={float(x.ravel()[first])})"
        " in 'sqrt((t - 0.1)^2 + (x - 0.35)^2 - 0.05)'"
    )
    sizes = _counting_nodes(monkeypatch)
    monkeypatch.setattr(cone, "BLOCK_NODES", 16)
    for decide in (cone_membership, certify_grid_psd):
        sizes.clear()
        with pytest.raises(DomainError, match=r"^sqrt") as err:
            decide(el, D_UNIT, grid)
        assert str(err.value) == message
        assert sizes == [16, 16, 8] * 2 + [16, 16] + [3 * 40]


FIELD_NODES = (Num, Var, Neg, BinOp, Pow, Call)


def _reading(tree, names: tuple[str, ...]):
    """The tree reading only the variables in names: the others become names[0], or Num(0.75) if names is empty."""
    if isinstance(tree, Var):
        if not names:
            return Num(0.75)
        return tree if tree.name in names else Var(names[0])
    if isinstance(tree, Num):
        return tree
    return type(tree)(*(_reading(v, names) if isinstance(v, FIELD_NODES) else v for v in vars(tree).values()))


_READS = st.sampled_from(((), ("t",), ("x",), ("t", "x")))


@st.composite
def _axis_elements(draw):
    """An element whose four fields each read t only, x only, both or neither; b is sometimes a's tree."""
    a, b, c_re, c_im = (_reading(draw(FIELD_TREES), draw(_READS)) for _ in range(4))
    return AlgebraElement(a, a if draw(st.booleans()) else b, c_re, c_im)


def _mesh_reference(el, dirac, region):
    """_cone_entries on the flattened np.meshgrid of the grid, or the node-annotated DomainError text."""
    tt, xx = np.meshgrid(
        np.linspace(region.t_min, region.t_max, region.nt),
        np.linspace(region.x_min, region.x_max, region.nx),
        indexing="ij",
    )
    t, x = tt.ravel(), xx.ravel()
    try:
        return _cone_entries(el, t, x, dirac.d1 - dirac.d2)
    except DomainError as err:
        if err.index is None:
            return str(err)
        at = f"at grid node (t={float(t[err.index])}, x={float(x[err.index])})"
        return str(DomainError(f"{err.args[0].split(' in ')[0]} {at}", err.expr))


#: a subtree that reads only t fails first in a later row, one that reads only x in a later column
_LATE_FAILURES = (
    AlgebraElement.from_sources("t", "t + log(0.4 - t)"),
    AlgebraElement.from_sources("t + sqrt(0.7 - x)", "t", "0.5*cos(t)"),
)


@settings(max_examples=60)
@given(
    _axis_elements(),
    _diracs,
    st.integers(2, 60),
    st.integers(2, 60),
    st.sampled_from((1, 7, "nx - 1", 64, 32_768)),
    st.tuples(*[st.sampled_from((-3.0, -1.25, 0.5))] * 2),
)
@example(_LATE_FAILURES[0], D_UNIT, 30, 20, 7, (-3.0, -3.0))
@example(_LATE_FAILURES[0], D_UNIT, 30, 20, 64, (-3.0, -3.0))
@example(_LATE_FAILURES[1], D_UNIT, 12, 40, "nx - 1", (-3.0, -3.0))
@example(_LATE_FAILURES[1], D_UNIT, 12, 40, 32_768, (-1.25, -3.0))
def test_row_blocks_equal_the_flat_mesh_bit_for_bit(el, dirac, nt, nx, block_nodes, lower):
    if block_nodes == 1:  # one evaluation per node: keep those grids small
        nt, nx = min(nt, 9), min(nx, 9)
    region = RegionGrid(lower[0], 3.0, lower[1], 2.25, nt, nx)
    want = _mesh_reference(el, dirac, region)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cone, "BLOCK_NODES", nx - 1 if block_nodes == "nx - 1" else block_nodes)
        try:
            blocks = list(cone._grid_blocks(el, dirac, region))
        except DomainError as err:
            assert str(err) == want
            return
    assert not isinstance(want, str), want
    starts = [start for start, _, _ in blocks]
    assert starts[0] == 0 and starts == sorted(set(starts))
    for k, (start, n, entries) in enumerate(blocks):
        end = blocks[k + 1][0] if k + 1 < len(blocks) else nt * nx
        assert n == end - start
        for got, ref in zip(entries, want):
            expected = ref if np.ndim(ref) == 0 else ref[start:end]
            got, expected = np.asarray(got), np.asarray(expected)
            assert (got.shape, got.dtype, got.tobytes()) == (expected.shape, expected.dtype, expected.tobytes())


def _shifted_lemma_element(amp: float, freq: float, t0: float, headroom: float) -> AlgebraElement:
    """_lemma_element with its wave centred at (t0, 0.5): for t0 > 0 the coupling peaks in a later block."""
    k = headroom * amp * (2.0 * math.sqrt(2.0 / math.e) + freq + 1.0)
    wave = f"{amp!r}*exp(-((t - {t0!r})^2 + (x - 0.5)^2))"
    return AlgebraElement.from_sources(f"{k!r}*t", f"{k!r}*t", f"{wave}*cos({freq!r}*t)", f"{wave}*sin({freq!r}*t)")


@st.composite
def _coupling_paths(draw):
    """An element on each path of the kernel: c = 0, constant c, c.re = 0 with varying c.im, a lemma wave."""
    kind, amp = draw(st.sampled_from(("zero", "constant", "imaginary", "lemma"))), draw(st.floats(0.05, 0.6))
    if kind == "zero":
        return AlgebraElement.from_sources(f"t + {amp!r}*tanh(t + x)", f"t - {amp!r}*sin(x)")
    if kind == "constant":
        return AlgebraElement.from_sources(f"t + {amp!r}*x^2", "t", repr(amp), repr(-0.5 * amp))
    if kind == "imaginary":
        return AlgebraElement.from_sources("t", f"t + {amp!r}*x", "0", f"{amp!r}*sin(t + x)")
    return _shifted_lemma_element(amp, draw(st.floats(0.2, 2.0)), draw(st.floats(1.0, 2.5)), draw(st.floats(0.98, 1.02)))


MULTI_BLOCK_GRID = RegionGrid(-3.0, 3.0, -3.0, 3.0, 41, 41)


@settings(max_examples=30)
@given(_coupling_paths(), _diracs, st.sampled_from((64, 500)))
def test_cone_membership_equals_reference_across_blocks_on_every_coupling_path(el, dirac, block_nodes):
    want = _reference_decisions(el, dirac, MULTI_BLOCK_GRID)
    assert _decisions(el, dirac, MULTI_BLOCK_GRID, block_nodes) == want


@pytest.mark.parametrize(
    "el, ndims",
    (
        (AlgebraElement.from_sources("t", "t"), [0] * 7),
        (AlgebraElement.from_sources("t", "t", "0.3", "-0.2"), [0] * 7),
        (AlgebraElement.from_sources("t", "t", "0", "sin(t + x)"), [0] * 4 + [1] * 3),
        (_shifted_lemma_element(0.2, 1.0, 0.0, 1.0), [0] * 4 + [1] * 3),
        (AlgebraElement.from_sources("t + 0.1*sin(x)", "t", "0.3", "-0.2"), [1, 1, 0, 0, 0, 0, 0]),
    ),
    ids=("zero", "constant", "imaginary", "lemma", "varying_a"),
)
def test_constant_coupling_stays_0d(el, ndims):
    """(ap, am, bp, bm, u, z, w): every entry that is constant over the grid stays 0-d."""
    assert [np.ndim(part) for part in _grid_entries(el, D_UNIT, BLOCK_GRID)] == ndims


#: elements whose seven cone entries are all constant over the grid
CONSTANT_ELEMENTS = (
    ("t", "t"),
    ("2*t", "t", "0.3", "-0.2"),
    ("2*t", "t", "1.2"),  # Gershgorin does not clear it, the Schur test does
    ("2*t", "t", "1.4142135623730951"),  # |w|^2 = 2 up to an ulp: only eigvalsh decides
    ("t", "t", "1.5"),  # a violation at every node
)


@pytest.mark.parametrize("block_nodes", (32_768, 64))
@pytest.mark.parametrize("sources", CONSTANT_ELEMENTS)
def test_elements_constant_over_the_grid_count_every_node(monkeypatch, sources, block_nodes):
    monkeypatch.setattr(cone, "BLOCK_NODES", block_nodes)
    el = AlgebraElement.from_sources(*sources)
    assert all(np.ndim(part) == 0 for part in _grid_entries(el, D_UNIT, BLOCK_GRID))
    report = cone_membership(el, D_UNIT, BLOCK_GRID)
    assert report.to_dict() == _reference_membership(el, D_UNIT, BLOCK_GRID).to_dict()
    assert report.n_nodes == BLOCK_GRID.nt * BLOCK_GRID.nx
    assert report.n_violations in (0, report.n_nodes)
    assert certify_grid_psd(el, D_UNIT, BLOCK_GRID) == report.member_on_grid


UNCOUPLED_GRID = RegionGrid(-1.0, 1.0, -1.0, 1.0, 9, 9)


@st.composite
def _uncoupled_edges(draw):
    """(element, tol) with c = 0, a = p*t + q*x^2 and b = r*t + s*x, whose d lies on a decision edge.

    b's entries r -+ s >= 0 set the node scale S = max(1, r + |s|) alone,
    from 0 through subnormals to near the float maximum, across LAPACK's
    rescaling thresholds (a norm below about 1e-146 or above 7e145).  p lies
    a few ulps from -tol*S, where eigvalsh decides, or from
    -tol*S -+ SCHUR_EIG_SLACK*S, where the rule decides alone; q*x^2 spreads
    the nodes' d = min(ap, am) over a few ulps of p, and +-0 are drawn.
    tol is PSD_TOL, SCHUR_EIG_SLACK, where the bulk pass of the nodes with
    d >= 0 has no margin, or 0.
    """
    tol = draw(st.sampled_from((PSD_TOL, cone.SCHUR_EIG_SLACK, 0.0)))
    r = draw(
        st.one_of(
            st.floats(-323.0, 307.5).map(lambda e: 10.0**e),
            st.sampled_from((0.0, 5e-324, 1e-146, 7e145, float(_FLOAT_MAX) / 2)),
        )
    )
    s = r * draw(st.floats(-1.0, 1.0))
    scale = max(1.0, r + abs(s))
    threshold, slack = -tol * scale, cone.SCHUR_EIG_SLACK * scale
    p = draw(st.sampled_from((threshold, threshold + slack, threshold - slack)))
    for _ in range(abs(steps := draw(st.integers(-4, 4)))):
        p = float(np.nextafter(p, math.copysign(math.inf, steps)))
    if p == 0.0:
        p = draw(st.sampled_from((0.0, -0.0)))
    q = draw(st.integers(0, 3)) * abs(float(np.spacing(p)))
    return AlgebraElement.from_sources(f"{p!r}*t + {q!r}*x^2", f"{r!r}*t + {s!r}*x"), tol


@settings(max_examples=200)
@given(_uncoupled_edges())
def test_uncoupled_nodes_are_decided_as_eigvalsh_decides_them(case):
    el, tol = case
    want = _reference_membership(el, D_UNIT, UNCOUPLED_GRID, tol).to_dict()
    for block_nodes in (32_768, 64):  # one block, and blocks of 7 rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cone, "BLOCK_NODES", block_nodes)
            assert cone_membership(el, D_UNIT, UNCOUPLED_GRID, tol).to_dict() == want
            assert certify_grid_psd(el, D_UNIT, UNCOUPLED_GRID, tol) == want["member_on_grid"]


@pytest.mark.parametrize(
    "sources, diagonalised",
    (
        (("t", "t - 2*exp(-((t - 0.3)^2 + (x + 0.2)^2)/0.5)"), 0),
        (("t + 0.99999*tanh(x)", "t"), 0),
        (("t + 1.00001*tanh(x)", "t"), 0),
        (("t + 1.000000002*tanh(x)", "t"), 1),
    ),
    ids=("bump", "near-member", "near-nonmember", "within-the-slack"),
)
def test_uncoupled_elements_need_no_schur_test_and_no_newton(monkeypatch, sources, diagonalised):
    # the x = 0 column of the near elements has smallest eigenvalue 1 - beta;
    # at 1 - 1.000000002 it lies within SCHUR_EIG_SLACK*s of -tol*s, so eigvalsh decides it.
    # Over blocks of 4 rows, the nodes with d >= 0 pass in bulk, _uncoupled_rule
    # sees only the nodes with d < 0, and eigvalsh runs once, after the walk,
    # only where the rule leaves a node open: the report reads every other value from d
    el = AlgebraElement.from_sources(*sources)
    reference = _reference_membership(el, D_UNIT, WIDE_GRID, PSD_TOL)
    ap, am, bp, bm = _grid_entries(el, D_UNIT, WIDE_GRID)[:4]
    negative = int((np.minimum(np.minimum(ap, am), np.minimum(bp, bm)) < 0.0).sum())

    def refuse(*args):
        raise AssertionError("an uncoupled node is decided by its diagonal")

    for name in ("_pd_after_shift", "_indefinite_after_shift"):
        monkeypatch.setattr(cone, name, refuse)
    ruled, psd_calls = [], []
    rule, psd_at_nodes = cone._uncoupled_rule, cone._psd_at_nodes

    def ruling(entries, tol):
        ap, am, bp, bm = entries[:4]
        ruled.append(np.minimum(np.minimum(ap, am), np.minimum(bp, bm)))
        return rule(entries, tol)

    def diagonalising(mats, tol):
        psd_calls.append(len(mats))
        return psd_at_nodes(mats, tol)

    monkeypatch.setattr(cone, "_uncoupled_rule", ruling)
    monkeypatch.setattr(cone, "_psd_at_nodes", diagonalising)
    monkeypatch.setattr(cone, "BLOCK_NODES", 4 * WIDE_GRID.nx)
    assert cone_membership(el, D_UNIT, WIDE_GRID, PSD_TOL).to_dict() == reference.to_dict()
    assert len(psd_calls) == diagonalised
    assert all((d < 0.0).all() for d in ruled)
    assert sum(d.size for d in ruled) == negative
    assert ruled or negative == 0  # near-member has no node with d < 0, and no call of the rule
    assert certify_grid_psd(el, D_UNIT, WIDE_GRID, PSD_TOL) == reference.member_on_grid


def test_cone_membership_diagonalises_few_rows_per_coupled_block(monkeypatch):
    # every node of the lemma grid is coupled, but Gershgorin passes all of
    # them and puts most above the eigvalsh value at each block's node of
    # smallest L; a and b do not read x, so the closed-form bound on the rest
    # is exact.  Each coupled block takes at most two one-row eigvalsh calls
    # (its nodes of smallest L before and after the bound), then one call
    # takes the distinct kept rows.  Both elements are members on the grid
    grid = RegionGrid(-3.0, 3.0, -3.0, 3.0, 401, 401)
    blocks = -(-grid.nt // (cone.BLOCK_NODES // grid.nx))
    double_root = AlgebraElement.from_sources("2*t + 0.1*t^2", "t", "0.5")
    rows = _count_eigvalsh_rows(monkeypatch)
    for el, most in ((_lemma_element(), 9), (double_root, 11)):
        rows.clear()
        assert cone_membership(el, D_UNIT, grid).member_on_grid
        assert rows[:-1] == [1] * (len(rows) - 1) and len(rows) - 1 <= 2 * blocks
        assert sum(rows) <= most
    diagonal = AlgebraElement.from_sources("2.1*t + 0.5*tanh(t + x)", "1.9*t + 0.4*tanh(t - x)")
    rows.clear()
    assert cone_membership(diagonal, D_UNIT, grid).member_on_grid
    assert rows == []  # with c = 0 the report reads every eigenvalue from d


def test_a_flat_minimum_reaches_no_eigvalsh(monkeypatch):
    # b_t + b_x is 1.9 in exact arithmetic at every node, so the smallest
    # entry is flat up to rounding over much of the grid; bounding the
    # minimum sent every such node to eigvalsh (13,668 distinct rows on this
    # grid), and reading it from d sends none
    el = AlgebraElement.from_sources("2.1*t + 0.5*tanh(t + x)", "1.9*t + 0.4*tanh(t - x)")
    grid = RegionGrid(-3.0, 3.0, -3.0, 3.0, 201, 201)
    reference = _reference_membership(el, D_UNIT, grid).to_dict()
    rows = _count_eigvalsh_rows(monkeypatch)
    assert cone_membership(el, D_UNIT, grid).to_dict() == reference
    assert rows == []


#: a diagonal whose eigvalsh value LAPACK rescales, and so returns an ulp off its least entry a_t + a_x
_TINY_INEXACT = ("3.6233319495135165e-150*t - 7.735967064961286e-150*x", "5.6535141258033774e-148*t")
_BUMP = ("t", "t - 2*exp(-((t - 0.3)^2 + (x + 0.2)^2)/0.5)")


@pytest.mark.parametrize(
    "sources, grid, tol, general",
    (
        (("1e-150*t", "1e-150*t"), SQUARE, PSD_TOL, True),  # |min d| below EXACT_DIAGONAL_MIN
        (_TINY_INEXACT, SQUARE, PSD_TOL, True),
        (("1e150*t", "1e150*t - 2e150*exp(-((t - 0.3)^2 + (x + 0.2)^2)/0.5)"), SQUARE, PSD_TOL, True),
        (("1e300*t", "1e300*t"), SQUARE, PSD_TOL, True),  # entries above EXACT_DIAGONAL_MAX
        (("t + x", "t"), SQUARE, PSD_TOL, True),  # a zero minimum
        (("t + x", "t"), SQUARE, 0.0, True),
        (("t + x", "t"), SQUARE, -0.5, True),
        (("0*x - 0*t", "t"), SQUARE, PSD_TOL, True),  # d = -0.0, where eigvalsh gives 0.0
        # at a negative tol the rule fails the first node, at x = 1, whose
        # entries are _TINY_INEXACT's, while min d = -2 lies at x = 2
        (tuple(f"{f} + (x - 1)^2" for f in _TINY_INEXACT), RegionGrid(-1.0, 1.0, 1.0, 2.0, 21, 21), -0.5, True),
        # at tol 0 the rule leaves the first violation's tiny d open, and eigvalsh's value is reported
        (("1e-150*(x^2 - t) - t^4",) * 2, RegionGrid(0.0, 1.0, -1.0, 1.0, 21, 21), 0.0, False),
        (_BUMP, SQUARE, 0.0, False),
        (_BUMP, SQUARE, -0.5, False),
    ),
    ids=(
        "tiny", "tiny-inexact", "huge-nonmember", "huge", "zero-minimum", "zero-minimum-tol-0",
        "zero-minimum-negative-tol", "negative-zero-minimum", "tiny-first-violation", "tiny-open-violation",
        "bump-tol-0", "bump-negative-tol",
    ),
)
def test_uncoupled_reports_leave_d_only_outside_its_exact_range(monkeypatch, sources, grid, tol, general):
    # the report reads eigenvalues from d only where eigvalsh returns d bit
    # for bit; elsewhere the general path reports the grid, and the report is
    # eigvalsh's either way, at one block and at blocks of 3 rows.  Reports
    # are compared by repr, which tells -0.0 from 0.0
    el = AlgebraElement.from_sources(*sources)
    reference = repr(_reference_membership(el, D_UNIT, grid, tol).to_dict())
    diagonal, declined = cone._diagonal_membership, []

    def reading(*args):
        report = diagonal(*args)
        declined.append(report is None)
        return report

    monkeypatch.setattr(cone, "_diagonal_membership", reading)
    for block_nodes in (32_768, 3 * grid.nx):
        monkeypatch.setattr(cone, "BLOCK_NODES", block_nodes)
        declined.clear()
        assert repr(cone_membership(el, D_UNIT, grid, tol).to_dict()) == reference
        assert declined == [general]


def test_cone_membership_takes_node_scales_only_on_part_of_a_block(monkeypatch):
    # one block-wide s_max bounds every node's s in L, so on the lemma grid,
    # where every node is coupled, node scales and coupling masks are taken
    # only on the nodes that can hold the grid minimum or that the bulk
    # Gershgorin step leaves open, never on a whole block
    grid = RegionGrid(-3.0, 3.0, -3.0, 3.0, 401, 401)
    rows = cone.BLOCK_NODES // grid.nx
    smallest_block = (grid.nt % rows or rows) * grid.nx
    sizes = []
    for name in ("_node_scales", "_coupled"):

        def spying(entries, original=getattr(cone, name)):
            sizes.append(max(np.size(part) for part in entries))
            return original(entries)

        monkeypatch.setattr(cone, name, spying)
    assert cone_membership(_lemma_element(), D_UNIT, grid).member_on_grid
    assert sizes and max(sizes) < smallest_block


def test_criterion_5_stream_certifies_without_lapack(monkeypatch):
    # both sampled families are diagonally dominant by construction, so
    # certify_grid_psd needs neither the Schur test nor eigvalsh on them
    def refuse(*args, **kwargs):
        raise AssertionError("the Gershgorin screen should clear every node of these elements")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(cone, "_pd_after_shift", refuse)
    monkeypatch.setattr(cone, "_psd_at_nodes", refuse)
    # nor any node scale: G >= 0 at every node passes each block in _block_verdicts' bulk step
    monkeypatch.setattr(cone, "_node_scales", refuse)
    monkeypatch.setattr(cone, "_uncoupled_rule", refuse)
    verdicts, returned = cone._block_verdicts, []

    def spying(entries, n, tol, bound):
        returned.append(verdicts(entries, n, tol, bound))
        return returned[-1]

    monkeypatch.setattr(cone, "_block_verdicts", spying)
    cfg = SamplerConfig(seed=50_001, n_elements=50)
    for dirac in (D_UNIT, DiracData(0.0, 2.0)):
        for k in range(cfg.n_elements):
            el = sample_causal_element(cfg, k, dirac)
            for tree in (el.a, el.b, el.c_re, el.c_im):
                assert parse(to_source(tree)) == tree
    assert returned
    assert all(np.ndim(passed) == np.ndim(failed) == 0 and passed and not failed for passed, failed in returned)


def _witness_case(dtheta, share, v, z, gap):
    """A witness element, its Dirac data and a 31^2 square around its worldline's midpoint inside its strip."""
    dt = share * dtheta / gap / math.sqrt(1.0 - v * v)
    p, q = SpacetimePoint(0.2, -0.1), SpacetimePoint(0.2 + dt, -0.1 + v * dt)
    omega = PureState(p, PureInternalState.from_parallel(z, 0.4))
    eta = PureState(q, PureInternalState.from_parallel(z, 0.4 + dtheta))
    spec = build_witness(omega, eta, DiracData(gap, 0.0))
    # every node of the square lies inside the strip 0 < Theta < pi
    theta_mid = 0.5 * share * dtheta + spec.epsilon
    half = 0.5 * min(theta_mid, math.pi - theta_mid) * math.sqrt(1.0 - v * v) / (gap * (1.0 + abs(v)))
    tm, xm = 0.5 * (p.t + q.t), 0.5 * (p.x + q.x)
    return spec.element(), spec.dirac, RegionGrid(tm - half, tm + half, xm - half, xm + half, 31, 31)


def _distinct_rows(entries, n: int) -> int:
    """How many of the n nodes' rows of entries differ bit for bit: the rows eigvalsh needs at most."""
    bits = [np.ascontiguousarray(np.broadcast_to(part, n)).view(np.int64).reshape(n, -1) for part in entries]
    return len(np.unique(np.hstack(bits), axis=0))


@pytest.mark.parametrize(
    "dtheta, share, v, z, gap",
    ((1.0, 0.5, 0.0, 0.0, 1.0), (2.5, 0.9, 0.6, 0.3, 1.5), (0.3, 0.2, -0.8, -0.7, 0.5), (3.0, 0.99, 0.3, 0.9, 4.0)),
)
def test_kernels_agree_on_witness_elements(monkeypatch, dtheta, share, v, z, gap):
    # a witness element's cone matrix has rank 2, so no screen or Schur test
    # decides its nodes: both kernels leave every one of them to eigvalsh,
    # which sees each distinct row of entries once
    el, dirac, grid = _witness_case(dtheta, share, v, z, gap)
    eigvalsh_rows = []
    psd_at_nodes = cone._psd_at_nodes

    def counting(mats, tol):
        eigvalsh_rows.append(len(mats))
        return psd_at_nodes(mats, tol)

    monkeypatch.setattr(cone, "_psd_at_nodes", counting)
    verdict = certify_grid_psd(el, dirac, grid)
    assert eigvalsh_rows == [_distinct_rows(_grid_entries(el, dirac, grid), grid.nt * grid.nx)]
    report = cone_membership(el, dirac, grid)
    assert verdict == report.member_on_grid
    assert report.to_dict() == _reference_membership(el, dirac, grid).to_dict()


def test_region_grid_validation_and_roundtrip():
    with pytest.raises(ValueError):
        RegionGrid(1.0, -1.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        RegionGrid(-1.0, 1.0, 0.0, 1.0, 1, 5)
    grid = RegionGrid(-2.0, 2.0, -1.0, 1.0, 3, 5)
    data = {"t_min": -2.0, "t_max": 2.0, "x_min": -1.0, "x_max": 1.0, "nt": 3, "nx": 5}
    assert RegionGrid.from_dict(data) == grid
    t, x = grid.axes()
    assert (len(t), len(x)) == (3, 5)
    assert grid.node(0).almost_equal(SpacetimePoint(-2.0, -1.0))
    assert grid.node(14).almost_equal(SpacetimePoint(2.0, 1.0))


@pytest.mark.parametrize(
    "bounds",
    (
        (-3.0, math.inf, -3.0, 3.0),
        (-3.0, 3.0, math.nan, 3.0),
        (-math.inf, 3.0, -3.0, 3.0),
        (-1e308, 1e308, -3.0, 3.0),  # finite bounds, span beyond the float range
        (-3.0, 3.0, -1.5e308, 1e308),
    ),
)
def test_region_grid_refuses_non_finite_bounds_and_spans(bounds):
    with pytest.raises(ValueError, match=r"grid bounds and their spans must be finite, got t in \["):
        RegionGrid(*bounds, 5, 5)


def test_region_grid_names_a_mesh_that_cannot_be_allocated(monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "linspace", refuse)  # no grid is allocated here
    grid = RegionGrid(-3.0, 3.0, -3.0, 3.0, 2, 1_000_000_000)
    for decide in (cone_membership, certify_grid_psd):
        with pytest.raises(ValueError, match=r"^a grid of 2 x 1000000000 nodes does not fit in memory$"):
            decide(AlgebraElement.from_sources("t", "t"), D_UNIT, grid)


def test_region_grid_node_is_the_mesh_node_bit_for_bit():
    # node() once recomputed t_min + span*i/(nt - 1), which differs from linspace in the last bits
    rng = np.random.default_rng(8)
    for _ in range(40):
        t_min, x_min = rng.uniform(-5.0, 5.0, 2)
        t_max, x_max = (t_min, x_min) + rng.uniform(0.1, 9.0, 2)
        grid = RegionGrid(t_min, t_max, x_min, x_max, *map(int, rng.integers(2, 402, 2)))
        tt, xx = np.meshgrid(
            np.linspace(t_min, t_max, grid.nt), np.linspace(x_min, x_max, grid.nx), indexing="ij"
        )
        t, x = tt.ravel(), xx.ravel()
        for k in rng.integers(0, t.size, 25):
            node = grid.node(int(k))
            assert (node.t, node.x) == (t[k], x[k]) and type(node.t) is type(node.x) is float


def test_region_grid_axes_are_built_once_and_read_only():
    grid = RegionGrid(-2.0, 2.0, -1.0, 1.0, 3, 5)
    fresh = RegionGrid(-2.0, 2.0, -1.0, 1.0, 3, 5)
    t, x = grid.axes()
    again = grid.axes()
    assert again[0] is t and again[1] is x
    assert not t.flags.writeable and not x.flags.writeable
    with pytest.raises(ValueError):
        t[0] = 0.0
    assert np.array_equal(t, np.linspace(-2.0, 2.0, 3)) and np.array_equal(x, np.linspace(-1.0, 1.0, 5))
    # the cached arrays take no part in equality or hashing
    assert grid == fresh and hash(grid) == hash(fresh)


def test_element_json_round_trip():
    el = AlgebraElement.from_sources("2*t", "t^2", "sin(t)", "cos(x)")
    data = el.to_dict()
    assert data["c"]["re"] == "sin(t)"
    assert AlgebraElement.from_dict(data) == el
    diag = AlgebraElement.from_dict({"a": "t", "b": "t"})
    assert diag == AlgebraElement.from_sources("t", "t")


@pytest.mark.parametrize("key", ("a", "b", "c.re", "c.im"))
def test_element_parse_error_names_its_key(key):
    data = {"a": "t", "b": "t", "c": {"re": "0", "im": "0"}}
    entry = data["c"] if key.startswith("c.") else data
    entry[key.removeprefix("c.")] = "t^700^700"
    with pytest.raises(ParseError, match=rf"^{key}: exponent too large for a float power at offset 2 ") as info:
        AlgebraElement.from_dict(data)
    assert info.value.offset == 2


# --- the closed-form characteristic polynomial -----------------------------------

_UNIT = st.floats(-1.0, 1.0)
_FLOAT_MAX = np.finfo(float).max


@st.composite
def _entry_tuples(draw):
    """A cone-matrix entry tuple of one node: generic, uncoupled, rank-deficient or witness-shaped."""
    kind = draw(st.sampled_from(("generic", "uncoupled", "rank-deficient", "witness")))
    if kind == "witness":  # the separating element's matrix: rank 2, so e3 = e4 = 0
        theta = draw(st.floats(0.01, math.pi - 0.01))
        r21, ratio = draw(st.floats(0.05, 20.0)), draw(st.floats(1e-3, 1e3))
        phase = np.exp(1j * draw(st.floats(-math.pi, math.pi)))
        diag = [r21 * ratio, ratio / r21, r21 / ratio, 1.0 / (r21 * ratio)]
        sign = draw(st.sampled_from((-1.0, 1.0)))
        coupling = [r21 * math.cos(theta), math.cos(theta) / r21, sign * math.sin(theta)]
        parts = diag + [c * phase for c in coupling]
    else:
        parts = [draw(_UNIT) for _ in range(4)] + [complex(draw(_UNIT), draw(_UNIT)) for _ in range(3)]
        if kind == "uncoupled":
            parts[4:] = [0j, 0j, 0j]
        if kind == "rank-deficient":  # shift the diagonal onto the smallest eigenvalue
            low = np.linalg.eigvalsh(_matrices([np.array([part]) for part in parts]))[0, 0]
            parts[:4] = [part - low for part in parts[:4]]
    magnitude = 10.0 ** draw(st.integers(-300, 300))
    return [np.array([part * magnitude]) for part in parts]


@settings(max_examples=300)
@given(_entry_tuples())
def test_charpoly_gives_the_elementary_symmetric_polynomials_of_the_eigenvalues(entries):
    # checked on the entries divided by s = max(1, largest |entry|): the
    # bound 1e-12 there is the bound 1e-12*s^k on the k-th coefficient
    s = max(1.0, max(float(np.abs(part[0])) for part in entries))
    scaled = [part / s for part in entries]
    eig = np.linalg.eigvalsh(_matrices(scaled))[0]
    expected = np.poly(eig)[1:] * np.array([-1.0, 1.0, -1.0, 1.0])
    got = np.array([float(e[0]) for e in _charpoly(scaled)])
    assert np.abs(got - expected).max() <= 1e-12


# --- eigvalsh on an uncoupled node -------------------------------------------

#: the smallest normal float; every positive float below it is subnormal
_TINY = float(np.finfo(float).tiny)


@st.composite
def _diagonals(draw):
    """One uncoupled node's diagonal (ap, am, bp, bm): each entry signed, and of any magnitude.

    A magnitude is 0, a subnormal, within a factor of 2 of LAPACK's
    rescaling thresholds (a norm below about 1e-146 or above 7e145 is
    scaled before eigvalsh and back after it), a power of ten, or up to the
    float maximum; the sign of 0 is drawn too.
    """
    magnitude = st.one_of(
        st.sampled_from((0.0, 5e-324, _FLOAT_MAX)),
        st.floats(5e-324, _TINY, exclude_max=True),
        st.sampled_from((1e-146, 7e145, 1e146)).flatmap(lambda edge: st.floats(edge / 2, edge * 2)),
        st.floats(-323.0, 308.0).map(lambda e: 10.0**e),
        st.floats(1e300, _FLOAT_MAX),
    )
    signed = st.tuples(magnitude, st.booleans())
    return [-m if negative else m for m, negative in draw(st.lists(signed, min_size=4, max_size=4))]


@settings(max_examples=200)
@given(_diagonals())
def test_eigvalsh_gives_an_uncoupled_nodes_d_to_within_the_slack(diagonal):
    # M is diagonal, so d = min(diagonal) is its exact smallest eigenvalue.
    # The uncoupled rule's fail side rests on eigvalsh returning d to within
    # SCHUR_EIG_SLACK*s, in exact arithmetic, and so do the bounds
    # d -+ SCHUR_EIG_SLACK*s as the kernels round them
    entries = [np.array([value]) for value in diagonal] + [np.array(0j)] * 3
    d, s = (float(part[0]) for part in cone._diagonal_min(entries))
    eig = float(np.linalg.eigvalsh(_matrices(entries))[0, 0])
    assert d == min(diagonal)
    assert s == max(1.0, *map(abs, diagonal))
    assert abs(Fraction(eig) - Fraction(d)) <= Fraction(cone.SCHUR_EIG_SLACK) * Fraction(s)
    assert d - cone.SCHUR_EIG_SLACK * s <= eig <= d + cone.SCHUR_EIG_SLACK * s


#: a magnitude log-uniform over the range cone_membership reads an uncoupled node's d in
_EXACT_MAGNITUDES = st.floats(math.log10(cone.EXACT_DIAGONAL_MIN), math.log10(cone.EXACT_DIAGONAL_MAX)).map(
    lambda e: min(max(10.0**e, cone.EXACT_DIAGONAL_MIN), cone.EXACT_DIAGONAL_MAX)
)


@st.composite
def _exact_range_diagonals(draw):
    """An uncoupled node's diagonal: each entry 0 or of a magnitude in _EXACT_MAGNITUDES, of either sign, some tied."""
    signed = st.tuples(st.one_of(st.just(0.0), _EXACT_MAGNITUDES), st.booleans())
    diagonal = [-m if negative else m for m, negative in draw(st.lists(signed, min_size=4, max_size=4))]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=2)):
        diagonal[i] = diagonal[j]
    return diagonal


@settings(max_examples=500)
@given(_exact_range_diagonals())
def test_eigvalsh_returns_an_uncoupled_nodes_d_bit_for_bit_inside_the_exact_range(diagonal):
    # cone_membership reports the least d of an element with c = 0 as its
    # eigvalsh value when every |entry| is at most EXACT_DIAGONAL_MAX and
    # |d| is at least EXACT_DIAGONAL_MIN: LAPACK does not rescale such a
    # matrix, and returns a diagonal's entries exactly
    d = min(diagonal)
    entries = [np.array([value]) for value in diagonal] + [np.array(0j)] * 3
    eig = _psd_at_nodes(_matrices(entries), PSD_TOL)[0][0]
    if d != 0.0:
        assert eig.tobytes() == np.float64(d).tobytes(), (diagonal, eig)


# --- the Gershgorin screen ----------------------------------------------------


#: the tolerances every _screen_cases property runs at: the default, the
#: smallest at which the Gershgorin step fires, and one at which it never does
SCREEN_TOLS = (PSD_TOL, cone.SCHUR_EIG_SLACK, 0.0)


@st.composite
def _screen_cases(draw, tol: float):
    """Entries of a few nodes, some rows of which sit on the screen's threshold at tol.

    Each row's diagonal entry is its off-diagonal sum plus a margin: far
    (of the order of the entries) or near, s*(k*tol + m*SCHUR_EIG_SLACK)
    with k in {-1, 0} and |m| <= 2, so the Gershgorin bound lands within a
    few slacks of -tol*s.  uncoupled: u, z and w are 0-d zeros, as
    _cone_entries gives for a constant c.  mixed: as coupled, but u, z and
    w are exactly 0 at some nodes and not at others, as a c that vanishes
    at some nodes gives.  tight: only u and z, or only w, couple and every
    row has the same near margin, so each 2x2 block has equal diagonals,
    the Gershgorin bound is the smallest eigenvalue less the slack, and the
    matrix is near rank-deficient.  pass: k = 0 and
    0 <= m <= 2 on every row, coupled or not, so the Gershgorin bound is at
    least 0 at every row up to rounding.  The magnitude runs from 1 to
    1e300, or up to the float maximum, where a coupling modulus can lie
    beyond the float range and s is inf; the entries stay finite, as
    _cone_entries gives them.
    """
    kind = draw(st.sampled_from(("coupled", "uncoupled", "mixed", "tight", "pass")))
    magnitude = draw(st.one_of(st.integers(0, 300).map(lambda e: 10.0**e), st.floats(1e300, _FLOAT_MAX)))
    n = 3

    def rows(elements):  # one draw per row of the matrix and node
        return np.array(draw(st.lists(elements, min_size=4 * n, max_size=4 * n))).reshape(4, n)

    if kind == "uncoupled" or (kind == "pass" and draw(st.booleans())):
        u = z = w = np.array(0j)
    else:
        u, z, w = (np.array([complex(draw(_UNIT), draw(_UNIT)) for _ in range(n)]) * magnitude for _ in range(3))
        if kind == "tight":
            if draw(st.booleans()):
                w = np.zeros(n, dtype=complex)
            else:
                u = z = np.zeros(n, dtype=complex)
        if kind == "mixed":
            others = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
            zero = draw(st.permutations([True, False, *others]))  # some nodes uncoupled, not all
            u, z, w = (np.where(zero, 0j, part) for part in (u, z, w))
    near = rows(st.booleans())
    if kind == "tight":
        near[:] = True
    far = rows(st.floats(0.0, 2.0))
    if kind == "pass":
        k, m = np.zeros((4, n)), rows(st.floats(0.0, 2.0))
    else:
        k, m = rows(st.sampled_from((-1.0, 0.0))), rows(st.floats(-2.0, 2.0))
    with np.errstate(over="ignore", invalid="ignore"):  # sums and scales beyond the float range
        off_u, off_z = np.abs(u) + np.abs(w), np.abs(z) + np.abs(w)
        offsums = np.broadcast_to(np.reshape([off_u, off_z, off_u, off_z], (4, -1)), (4, n))
        diag = np.clip(offsums + np.where(near, 0.0, far * magnitude), -_FLOAT_MAX, _FLOAT_MAX)
        scale = _node_scales((*diag, u, z, w))
        margin = scale * (k * tol + m * cone.SCHUR_EIG_SLACK)
        margin[~np.isfinite(margin)] = 0.0  # where s is inf
        if kind == "tight":
            margin[:] = margin[0]
        diag = np.clip(diag + np.where(near, margin, 0.0), -_FLOAT_MAX, _FLOAT_MAX)
    return (*diag, u, z, w)


@settings(max_examples=100)
@given(st.data())
def test_block_verdicts_pass_and_fail_only_where_eigvalsh_does(data):
    for tol in SCREEN_TOLS:
        entries = data.draw(_screen_cases(tol), label=f"entries at tol {tol}")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            passed, failed = _block_verdicts(entries, 3, tol, _gershgorin_bound(entries))
            eig_passed = _psd_at_nodes(_matrices(entries), tol)[1]
        passed, failed = np.broadcast_to(passed, 3), np.broadcast_to(failed, 3)
        assert eig_passed[passed].all()
        assert not eig_passed[failed].any()
        assert not (passed & failed).any()
        # _uncoupled_rule leaves an uncoupled node open only within SCHUR_EIG_SLACK*s of -tol*s
        d, s = cone._diagonal_min(entries)
        uncoupled = ~np.broadcast_to(cone._coupled(entries), 3)
        with np.errstate(over="ignore"):  # d + tol*s beyond the float range is clear of it
            clear = np.abs(d + tol * s) > 1.5 * cone.SCHUR_EIG_SLACK * s
        assert (passed | failed)[uncoupled & clear].all()


@settings(max_examples=100)
@given(st.data())
def test_gershgorin_step_passes_only_blocks_whose_every_node_each_rule_passes(data):
    # _block_verdicts passes a block in bulk on the sign of G alone, with 0-d
    # verdicts; at every node of such a block eigvalsh passes, and the rounded
    # entries make M + tol*s*I PSD in exact arithmetic.  Tried on the whole
    # case and on each node alone, at the tol the case was drawn for and at
    # the smallest tol the step accepts, where its rounding argument has
    # nothing to spare
    for drawn_tol in SCREEN_TOLS:
        entries = data.draw(_screen_cases(drawn_tol), label=f"entries at tol {drawn_tol}")
        for tol in {drawn_tol, cone.SCHUR_EIG_SLACK}:
            for nodes in ([0, 1, 2], [0], [1], [2]):
                block = cone._take(entries, nodes)
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    passed, failed = _block_verdicts(block, len(nodes), tol, _gershgorin_bound(block))
                    if np.ndim(passed) != 0:  # not the bulk return
                        continue
                    eig_passed = _psd_at_nodes(_matrices(block), tol)[1]
                    scale = np.broadcast_to(_node_scales(block), len(nodes))
                assert tol != 0.0  # the step never fires at tol = 0
                assert np.broadcast_to(passed, len(nodes)).all()
                assert not failed
                assert eig_passed.all()
                for i in range(len(nodes)):
                    node = [part if np.ndim(part) == 0 else part[i] for part in block]
                    assert _exactly_psd(node, Fraction(tol) * Fraction(float(scale[i]))), (node, tol)


def test_block_scale_bounds_every_nodes_exact_scale():
    # L = G - SCHUR_EIG_SLACK*s_max stands for G - SCHUR_EIG_SLACK*s at every
    # node of the block, so s_max must be at least each node's exact scale
    # max(1, |entry|), on coupled and uncoupled blocks alike.  G, the moduli in
    # it and the sum in s_max are rounded, which can leave s_max a few unit
    # roundoffs u = 2^-53 below a scale it bounds in exact arithmetic (up to
    # 1.5u over 12,000 drawn nodes), so each scale is held against s_max*(1 + 16u)
    seen = set()

    @settings(max_examples=200)
    @given(st.data())
    def check(data):
        tol = data.draw(st.sampled_from(SCREEN_TOLS), label="tol")
        entries = data.draw(_screen_cases(tol), label="entries")
        with np.errstate(over="ignore", invalid="ignore"):
            s_max = cone._block_scale(entries, float(np.min(_gershgorin_bound(entries))))
        seen.add(bool(np.any(cone._coupled(entries))))
        if s_max == math.inf:
            return
        top = (Fraction(s_max) * (1 + Fraction(16, 2**53))) ** 2
        for i in range(3):
            node = [complex(part if np.ndim(part) == 0 else part[i]) for part in entries]
            squares = [Fraction(v.real) ** 2 + Fraction(v.imag) ** 2 for v in node]
            assert max(1, *squares) <= top, (node, s_max)

    check()
    assert seen == {False, True}


def test_each_lower_bound_on_a_block_is_exact():
    # cone_membership keeps a node out of the final eigvalsh only when its L
    # lies above an eigvalsh value, so L must bound the node's smallest
    # eigenvalue in exact arithmetic: G - SCHUR_EIG_SLACK*s_max on every
    # block, coupled or not, and at a node of a coupled block the closed-form
    # lambda_min(M0) - SCHUR_EIG_SLACK*s where that is larger.  Uncoupled
    # blocks must be drawn, and at least one node must take the closed-form bound
    certified, uncoupled = [], []

    @settings(max_examples=100)
    @given(st.data())
    def check(data):
        tol = data.draw(st.sampled_from(SCREEN_TOLS), label="tol")
        entries = data.draw(_screen_cases(tol), label="entries")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            lower = cone._block_membership(entries, 3, tol, np.inf)[0]
            bound = _gershgorin_bound(entries)
            gershgorin = bound - cone.SCHUR_EIG_SLACK * cone._block_scale(entries, float(np.min(bound)))
        for i in np.flatnonzero(np.isfinite(lower)):
            node = [part if np.ndim(part) == 0 else part[i] for part in entries]
            assert _exactly_psd(node, -Fraction(float(lower[i]))), (node, lower[i])
        certified.extend(np.flatnonzero(np.isfinite(lower) & (lower != gershgorin)))
        uncoupled.append(not any(map(np.ndim, entries[4:])) and not cone._coupled(entries))

    check()
    assert certified and any(uncoupled)


# --- the uncoupled rule and the Schur tests, against exact arithmetic ----------


@settings(max_examples=100)
@given(_diagonals(), st.data())
def test_uncoupled_rule_passes_and_fails_only_where_exact_d_does(diagonal, data):
    # d is an uncoupled node's exact smallest eigenvalue and s its exact scale:
    # a pass needs d >= -(tol + SCHUR_EIG_SLACK)*s, a fail d < -tol*s.  Each drawn
    # diagonal is tried as it is and with its smallest entry moved to within a few
    # slacks of -tol*s, where only the slack separates the two sides
    s = max(1.0, *map(abs, diagonal))
    slack = Fraction(cone.SCHUR_EIG_SLACK)
    for tol in SCREEN_TOLS:
        near = list(diagonal)
        m = data.draw(st.floats(-2.0, 2.0), label=f"slacks past -tol*s at tol {tol}")
        near[int(np.argmin(diagonal))] = -s * (tol + m * cone.SCHUR_EIG_SLACK)
        for case in (diagonal, near):
            entries = [np.array([value]) for value in case] + [np.array(0j)] * 3
            with np.errstate(over="ignore"):  # d - slack beyond the float range
                passed, failed = (bool(verdict[0]) for verdict in cone._uncoupled_rule(entries, tol))
            d, scale = Fraction(min(case)), Fraction(max(1.0, *map(abs, case)))
            assert not passed or d >= -(Fraction(tol) + slack) * scale, (case, tol)
            assert not failed or d < -Fraction(tol) * scale, (case, tol)


@settings(max_examples=40)
@given(st.data())
def test_schur_tests_certify_only_what_exact_arithmetic_does(data):
    # at the shifts (tol -+ SCHUR_EIG_SLACK)*s where _block_verdicts runs them, a
    # true _pd_after_shift means M + shift*I is PSD in exact arithmetic on the
    # rounded entries, and a true _indefinite_after_shift that it is not.  A shift
    # that is not finite (s beyond the float range) certifies nothing.  Each tol
    # runs a _screen_cases block and one _entry_tuples node: a rank-deficient one
    # is singular to rounding at the shift 0 of tol = SCHUR_EIG_SLACK
    for tol in SCREEN_TOLS:
        for entries in (
            data.draw(_screen_cases(tol), label=f"entries at tol {tol}"),
            data.draw(_entry_tuples(), label=f"one node at tol {tol}"),
        ):
            n = max(np.size(part) for part in entries)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                scale = np.broadcast_to(_node_scales(entries), n)
                for shift in ((tol - cone.SCHUR_EIG_SLACK) * scale, (tol + cone.SCHUR_EIG_SLACK) * scale):
                    pd, indefinite = (
                        np.broadcast_to(test(entries, shift), n)
                        for test in (cone._pd_after_shift, cone._indefinite_after_shift)
                    )
                    assert not (pd | indefinite)[~np.isfinite(shift)].any()
                    for i in np.flatnonzero(pd | indefinite):
                        node = [part if np.ndim(part) == 0 else part[i] for part in entries]
                        exact = _exactly_psd(node, Fraction(float(shift[i])))
                        assert exact == bool(pd[i]), (node, shift[i])

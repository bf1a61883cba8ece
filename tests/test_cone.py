import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalnc import cone
from causalnc.cone import (
    PSD_TOL,
    AlgebraElement,
    ConeMatrix,
    EigenvalueRangeError,
    GridViolation,
    MembershipReport,
    RegionGrid,
    UnequalDiagonalError,
    _charpoly,
    _cone_entries,
    _grid_entries,
    _lambda_min_estimates,
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
from causalnc.states import DiracData
from strategies import FIELD_TREES

D_UNIT = DiracData(0.0, 1.0)
ORIGIN = SpacetimePoint(0.0, 0.0)
SQUARE = RegionGrid(-1.0, 1.0, -1.0, 1.0, 21, 21)


def _reference_membership(
    el: AlgebraElement, dirac: DiracData, region: RegionGrid, tol: float = PSD_TOL
) -> MembershipReport:
    """cone_membership by eigvalsh on every node's matrix: the report the structured kernel must equal."""
    min_eigs, passed = _psd_at_nodes(_matrices(_grid_entries(el, dirac, region)), tol)
    if not np.isfinite(min_eigs.min()):
        node = region.node(int(np.argmin(min_eigs)))
        raise EigenvalueRangeError(
            f"smallest cone matrix eigenvalue {float(min_eigs.min())} at grid node (t={node.t}, x={node.x})"
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
        assert m.min_eigenvalue() > -1e-12


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


def test_certify_grid_psd_agrees_with_cone_membership():
    elements = [
        AlgebraElement.from_sources("t", "t"),
        AlgebraElement.from_sources("x", "x"),
        _lemma_element(),
        AlgebraElement.from_sources("tanh(t + x)", "t"),
        AlgebraElement.from_sources("0", "0", "exp(-t^2 - x^2)", "0"),
    ]
    for el in elements:
        report = cone_membership(el, D_UNIT, SQUARE)
        assert certify_grid_psd(el, D_UNIT, SQUARE) == report.member_on_grid


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
    ]
    for sources, dirac, grid, message in cases:
        for decide in (cone_membership, certify_grid_psd):
            with pytest.raises(DomainError) as err:
                decide(AlgebraElement.from_sources(*sources), dirac, grid)
            assert message in str(err.value)


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
    # their eigenvalues, so the smallest is double at every node; Newton
    # converges only linearly there and stalls at the rounding floor
    el = AlgebraElement.from_sources("2*t + 0.1*t^2", "t", "0.5")
    entries = _grid_entries(el, D_UNIT, WIDE_GRID)
    all_nodes = np.arange(WIDE_GRID.nt * WIDE_GRID.nx)
    with np.errstate(all="ignore"):
        converged = _lambda_min_estimates(entries, _node_scales(entries), all_nodes)[1]
    assert not converged.all()
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
    assert sum(rows) <= 2
    rows.clear()
    assert certify_grid_psd(el, D_UNIT, WIDE_GRID) is True
    assert rows == []


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
    # one key although those two columns hold different entries
    monkeypatch.setattr(cone, "_HASH_MULTIPLIER", np.int64(0))
    el = AlgebraElement.from_sources("t + 0.5*x^2", "t + 0.5*x^2")
    reference = _reference_membership(el, D_UNIT, WIDE_GRID).to_dict()
    rows = _count_eigvalsh_rows(monkeypatch)
    assert cone_membership(el, D_UNIT, WIDE_GRID).to_dict() == reference
    assert sum(rows) > 100  # one column deduplicated, the other node by node


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
        assert [start for start, _ in blocks] == starts
        for part, whole_part in zip(zip(*(entries for _, entries in blocks)), whole):
            assert np.array_equal(np.concatenate(part), whole_part)


def _counting_nodes(monkeypatch) -> list:
    """Record the number of nodes each _cone_entries call evaluates."""
    sizes = []
    entries = cone._cone_entries

    def sized(el, t, x, delta):
        sizes.append(np.broadcast(t, x).size)
        return entries(el, t, x, delta)

    monkeypatch.setattr(cone, "_cone_entries", sized)
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
    starts = [start for start, _ in blocks]
    assert starts[0] == 0 and starts == sorted(set(starts))
    for k, (start, entries) in enumerate(blocks):
        end = blocks[k + 1][0] if k + 1 < len(blocks) else nt * nx
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
    "sources, constant",
    ((("t", "t"), True), (("t", "t", "0.3", "-0.2"), True), (("t", "t", "0", "sin(t + x)"), False)),
    ids=("zero", "constant", "imaginary"),
)
def test_constant_coupling_stays_0d(sources, constant):
    entries = _grid_entries(AlgebraElement.from_sources(*sources), D_UNIT, BLOCK_GRID)
    assert [np.ndim(part) for part in entries] == [1] * 4 + [0 if constant else 1] * 3


def test_newton_runs_only_where_the_grid_minimum_can_lie(monkeypatch):
    # every node of the lemma grid is coupled, but Gershgorin passes all of them
    # and puts most above the interlacing bound on the grid minimum
    newton_nodes = []
    estimates = cone._lambda_min_estimates

    def counting(entries, scale, nodes):
        newton_nodes.append(len(nodes))
        return estimates(entries, scale, nodes)

    monkeypatch.setattr(cone, "_lambda_min_estimates", counting)
    grid = RegionGrid(-3.0, 3.0, -3.0, 3.0, 401, 401)
    report = cone_membership(_lemma_element(), D_UNIT, grid)
    assert report.member_on_grid
    assert 0 < sum(newton_nodes) < 0.15 * report.n_nodes
    newton_nodes.clear()
    diagonal = AlgebraElement.from_sources("2.1*t + 0.5*tanh(t + x)", "1.9*t + 0.4*tanh(t - x)")
    assert cone_membership(diagonal, D_UNIT, grid).member_on_grid
    assert newton_nodes and sum(newton_nodes) == 0


def test_criterion_5_stream_certifies_without_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Schur test should clear every node of these elements")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    cfg = SamplerConfig(seed=50_001, n_elements=50)
    for k in range(cfg.n_elements):
        el = sample_causal_element(cfg, k, D_UNIT)
        for tree in (el.a, el.b, el.c_re, el.c_im):
            assert parse(to_source(tree)) == tree


def test_region_grid_validation_and_roundtrip():
    with pytest.raises(ValueError):
        RegionGrid(1.0, -1.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        RegionGrid(-1.0, 1.0, 0.0, 1.0, 1, 5)
    grid = RegionGrid(-2.0, 2.0, -1.0, 1.0, 3, 5)
    assert RegionGrid.from_dict(grid.to_dict()) == grid
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
    # the cached arrays take no part in equality, hashing or serialisation
    assert grid == fresh and hash(grid) == hash(fresh)
    assert grid.to_dict() == fresh.to_dict() == RegionGrid.from_dict(grid.to_dict()).to_dict()
    assert set(grid.to_dict()) == {"t_min", "t_max", "x_min", "x_max", "nt", "nx"}


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

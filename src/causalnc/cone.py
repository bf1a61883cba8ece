"""Causal-cone membership for Hermitian field-valued 2x2 elements.

An algebra element is the Hermitian matrix of fields [[a, -c], [-c*, b]]
with a, b real and c complex.  It belongs to the causal cone exactly when a
specific 4x4 Hermitian matrix, built pointwise from the first partials of
the fields and the Dirac gap, is positive semi-definite at every event.
With the derivative shorthand f0 = df/dt, f1 = df/dx and delta = d1 - d2,
that matrix is

    [ a0+a1        0          -(c0+c1)    -delta*c  ]
    [ 0            a0-a1      delta*c     -(c0-c1)  ]
    [ conj sym     conj sym   b0+b1       0         ]
    [ conj sym     conj sym   0           b0-b1     ]

Grid membership is a semi-decision: a violation at a node is exact, while
membership is certified only up to the sampling resolution.

A node's verdict is eigvalsh's (_psd_at_nodes): it passes iff its smallest
eigenvalue is at least -tol*s, with s = max(1, largest |entry|) the node
scale.  Both grid kernels work on the seven distinct entries of the matrix
(_cone_entries; where c = 0 cone_membership needs only the diagonal, see
below) and take every verdict short of eigvalsh from the rules of one
function, _block_verdicts, each applied to the nodes the one before leaves
open:

- Gershgorin: a node passes when its Gershgorin bound G (_gershgorin_bound)
  less SCHUR_EIG_SLACK*s is at least -tol*s and s is finite.  So when
  tol >= SCHUR_EIG_SLACK, G >= 0 alone passes the node: rounding is
  monotone, so fl(G - fl(SCHUR_EIG_SLACK*s)) is at least
  -fl(SCHUR_EIG_SLACK*s) >= -fl(tol*s), and s is finite wherever G is
  (every entry is finite, and a finite G makes |u|, |z| and |w| finite).
  On every block, coupled or not, _block_verdicts first takes that bulk
  step, before any s: the nodes with G >= 0 pass, and a block where all
  do needs no other test;
- uncoupled: at a node with u = z = w = 0 the matrix is diagonal, and its
  smallest diagonal entry d is both its smallest eigenvalue and G.
  _uncoupled_rule passes it when d - SCHUR_EIG_SLACK*s >= -tol*s, the
  Gershgorin rule, and fails it when d + SCHUR_EIG_SLACK*s < -tol*s;
- Schur: with Da = diag(a0+a1, a0-a1), Db = diag(b0+b1, b0-b1) and C the
  upper right 2x2 block, M + shift*I is positive definite iff Da + shift > 0
  and the 2x2 Schur complement Db + shift - C* (Da + shift)^-1 C is.
  _pd_after_shift tests that with a relative band on every rounded
  quantity, so it can answer "positive definite" but never wrongly, and
  passes a coupled node at shift (tol - SCHUR_EIG_SLACK)*s;
  _indefinite_after_shift, its mirror, fails one at (tol + SCHUR_EIG_SLACK)*s.

Each rule is one-sided with SCHUR_EIG_SLACK*s to spare, far more than
eigvalsh's rounding, so it passes only nodes eigvalsh passes and fails only
nodes eigvalsh fails; both kernels send the nodes no rule decides to
_psd_at_distinct_nodes, their one eigvalsh path.  On a block where c is
constant 0, G is d at every node, so the bulk step and _uncoupled_rule
leave open only the nodes within SCHUR_EIG_SLACK*s of -tol*s, and a block
whose every node G passes runs no other test.  The two families oracle.py
samples are diagonally dominant by construction, so G passes every node of
theirs.

certify_grid_psd needs only the verdict.  cone_membership also reports the
smallest eigenvalue on the grid and its node.  Where c.re and c.im are both
the literal 0, every node's matrix is diagonal and its smallest eigenvalue
is d = min(a_t - |a_x|, b_t - |b_x|).  cone_membership then walks the
blocks taking only the jets of a and b (_diagonal_jets), and d at their
own broadcast shape, with no entry array: the rules above give the
verdicts, and min_eigenvalue, its node and the first violation's
eigenvalue are read from d (_diagonal_membership).  eigvalsh returns a
diagonal's entries exactly when it does not rescale the matrix, so this
holds when every |entry| is at most EXACT_DIAGONAL_MAX and every d read is
at least EXACT_DIAGONAL_MIN in magnitude; otherwise the general path
below reports the grid.

On the general path cone_membership keeps U, an upper bound on the grid
minimum: the least eigvalsh value taken so far, as any node's eigvalsh
value is at least that minimum.  It keeps a lower bound L per node,
L = G - SCHUR_EIG_SLACK*s_max, with s_max = max(1, max(D, 0) +
max(-min G, 0)) one scale for the block, D its largest diagonal entry.  G
is at most every diagonal entry, and |u|, |z| and |w| are at most D - G,
so s_max bounds every node's s (_block_scale) from two reductions, with no
per-node scale; where an entry is so large that s_max overflows, L is -inf
and every node of the block goes to eigvalsh.  Each block takes eigvalsh at
its node of smallest L, before and after it raises L at the nodes whose L
is not above U to lambda_min(M0) - SCHUR_EIG_SLACK*s where that is larger,
with M0 = [[alpha I, C], [C*, beta I]], alpha = min(ap, am) and
beta = min(bp, bm): M - M0 is a non-negative diagonal, so
lambda_min(M) >= lambda_min(M0), which is in closed form (exact where a and
b do not read x).  eigvalsh runs only on the undecided nodes, the first
violation and the nodes with L <= U, where the minimum can lie.

Every value and partial of the four fields, and every entry, must be
finite.  _cone_entries walks a, b (not again when it is a's tree), c.re and
c.im, writes each part of u, z and w straight into its complex entry, and
tests one sum of per-entry sums over the nodes: of the seven entries, which
every partial and the values of c reach, and of the values of a and b.  Only
where it is not finite does the exact check run, in the order of jet on
each field and then a check of each entry: each field's fields._root_check,
then each entry's; a DomainError inside a later field's walk first runs the
root checks of the fields walked before it.  So every DomainError keeps the
text, field and index of that order, and finite entries whose sum merely
overflows pass.

Both grid kernels walk the grid in row-major blocks of about BLOCK_NODES
nodes (_grid_blocks): runs of whole rows, or slices of one row when a row
is longer than BLOCK_NODES.  The grid is a tensor product, so each block
evaluates the fields on a column of t and a row of x, and a subtree that
reads one coordinate is evaluated on that axis only; the entries are then
flattened to the block's node vector.  The fields, the entries and every
kernel temporary live for one block, small enough to stay in cache.  Only
per-node verdicts and the entries of the few nodes that may need eigvalsh
outlive it, and eigvalsh runs on those once, after the walk.  The walk
where c = 0 is the same, with _diagonal_jets in place of _cone_entries.  A
grid of at most BLOCK_NODES nodes is one block, and only there do the
fields read RegionGrid.memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import DomainError, FieldExpr, Num, ParseError, _eval, _root_check, parse, to_source
from .minkowski import SpacetimePoint
from .states import DiracData

#: Default relative eigenvalue tolerance for the PSD tests.
PSD_TOL = 1e-9
HERMITIAN_TOL = 1e-12
LEMMA_SLACK = 1e-12
#: Margin, relative to the node scale, that every rule short of eigvalsh
#: keeps from -tol*scale: some 10^4 ulps of the scale, far more than the
#: rounding of a 4x4 eigvalsh (a few hundred ulps of ||M||_F <= 4*scale).
SCHUR_EIG_SLACK = 1e-12
#: Relative band each rounded Schur quantity must clear: S11 and S22 against
#: the sum of the magnitudes they combine, det S against S11*S22 + |S12|^2.
#: Rounding moves S11 and S22 by about 8 unit roundoffs (u = 2^-53) of that
#: sum, so by at most 8u/band of their own size, and det S by about 22u/band
#: of its sum, some 10^-9: far inside the band.
SCHUR_BAND = 1e-6
#: Grid nodes per block of _grid_blocks: a block is BLOCK_NODES // nx whole
#: rows, or a slice of BLOCK_NODES nodes of one row when nx is larger.  It
#: bounds the memory of a block's entries and of the kernel temporaries over
#: it to a few MB, whatever the grid size.
BLOCK_NODES = 32_768
#: eigvalsh (LAPACK zheevd) rescales a matrix whose largest |entry| lies
#: below about 1.0e-146 or above about 1.0e146 before it diagonalises it;
#: between, it returns a diagonal matrix's entries exactly.  cone_membership
#: reads an eigenvalue from a diagonal only where every |entry| on the grid is
#: at most EXACT_DIAGONAL_MAX and the value read is at least EXACT_DIAGONAL_MIN
#: in magnitude, a factor of 10 inside each end.
EXACT_DIAGONAL_MIN = 2e-145
EXACT_DIAGONAL_MAX = 1e145
#: Odd multiplier of the row hash in _psd_at_distinct_nodes (2^64 / golden ratio).
_HASH_MULTIPLIER = np.int64(-7046029254386353131)


class UnequalDiagonalError(ValueError):
    """The sufficient membership test needs structurally identical diagonal fields."""


class EigenvalueRangeError(ValueError):
    """A cone matrix with finite entries whose smallest eigenvalue is not a finite float."""


@dataclass(frozen=True)
class AlgebraElement:
    """Field-valued Hermitian element [[a, -c], [-c*, b]] of the algebra."""

    a: FieldExpr
    b: FieldExpr
    c_re: FieldExpr
    c_im: FieldExpr

    @classmethod
    def from_sources(cls, a: str, b: str, c_re: str = "0", c_im: str = "0") -> "AlgebraElement":
        return cls(parse(a), parse(b), parse(c_re), parse(c_im))

    def to_dict(self) -> dict:
        return {
            "a": to_source(self.a),
            "b": to_source(self.b),
            "c": {"re": to_source(self.c_re), "im": to_source(self.c_im)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AlgebraElement":
        """Parse {"a", "b", "c": {"re", "im"}}; a ParseError names its key (a, b, c.re or c.im)."""
        c = data.get("c", {"re": "0", "im": "0"})
        trees = []
        for key, src in (("a", data["a"]), ("b", data["b"]), ("c.re", c["re"]), ("c.im", c["im"])):
            try:
                trees.append(parse(str(src)))
            except ParseError as err:
                err.args = (f"{key}: {err}",)
                raise
        return cls(*trees)


@dataclass(frozen=True)
class ConeMatrix:
    """The pointwise 4x4 Hermitian matrix whose PSD-ness decides membership."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > HERMITIAN_TOL * scale:
            raise ValueError("matrix is not Hermitian")
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class RegionGrid:
    """A rectangular sampling grid on the (t, x) plane, traversed row-major in t."""

    t_min: float
    t_max: float
    x_min: float
    x_max: float
    nt: int
    nx: int
    _axes: Optional[tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _views: Optional[tuple[np.ndarray, np.ndarray]] = field(default=None, init=False, repr=False, compare=False)
    #: fields.jet memo entries at views(), filled by the owner of the subtrees (oracle)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spans = (self.t_max - self.t_min, self.x_max - self.x_min)
        if not all(map(math.isfinite, (self.t_min, self.t_max, self.x_min, self.x_max, *spans))):
            raise ValueError(
                f"grid bounds and their spans must be finite, got t in [{self.t_min}, {self.t_max}]"
                f" and x in [{self.x_min}, {self.x_max}]"
            )
        if not (self.t_min < self.t_max and self.x_min < self.x_max):
            raise ValueError("grid bounds must be ordered")
        if self.nt < 2 or self.nx < 2:
            raise ValueError("grid needs at least 2 nodes per axis")

    def _too_large(self) -> ValueError:
        """The error that refuses this grid when its axes or a node-sized array cannot be allocated."""
        return ValueError(f"a grid of {self.nt} x {self.nx} nodes does not fit in memory")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The nt node coordinates in t and the nx in x; built once per grid, read-only.

        Node k, row-major in t, is (t[k // nx], x[k % nx]).  Raises ValueError
        naming nt x nx when the axes cannot be allocated.
        """
        if self._axes is None:
            try:
                t = np.linspace(self.t_min, self.t_max, self.nt)
                x = np.linspace(self.x_min, self.x_max, self.nx)
            except (MemoryError, ValueError) as err:  # numpy refuses a size beyond its index range
                raise self._too_large() from err
            t.flags.writeable = x.flags.writeable = False
            object.__setattr__(self, "_axes", (t, x))
            object.__setattr__(self, "_views", (t[:, None], x[None, :]))
        return self._axes

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole grid's coordinates (t[:, None], x[None, :]), built with the axes: memo's arrays."""
        self.axes()
        return self._views

    def node(self, flat_index: int) -> SpacetimePoint:
        """The event at a flat node index: the axis coordinates, so the one the grid paths evaluate."""
        t, x = self.axes()
        row, col = divmod(flat_index, self.nx)
        return SpacetimePoint(float(t[row]), float(x[col]))

    @classmethod
    def from_dict(cls, data: dict) -> "RegionGrid":
        """The grid of keys t_min, t_max, x_min, x_max, nt and nx; a ValueError names an nt or nx not an int."""
        bounds = [float(data[key]) for key in ("t_min", "t_max", "x_min", "x_max")]
        for key in ("nt", "nx"):
            if isinstance(data[key], bool) or not isinstance(data[key], int):
                raise ValueError(f'"{key}" must be an integer, got {data[key]!r}')
        return cls(*bounds, data["nt"], data["nx"])


def _cone_entries(el: AlgebraElement, t, x, delta: float, memo=None):
    """The seven distinct entries of the cone matrix at the nodes of the coordinates' broadcast shape.

    Returns (ap, am, bp, bm, u, z, w) = (a_t + a_x, a_t - a_x, b_t + b_x,
    b_t - b_x, c_t + c_x, c_t - c_x, delta*c); C = [[-u, -w], [w, -z]].
    t and x broadcast against each other (the grid paths pass a column of t
    and a row of x), and the partials are summed at the shapes of the
    coordinates they read.  Each entry is then flattened, row-major, to a
    vector over the nodes, except that an entry constant over the
    coordinates stays 0-d: a constant c (c = 0 above all) builds no per-node
    complex array, a diagonal k*t no copies of k, and _take and the kernels
    broadcast them.  Each real and imaginary part of u, z and w is one real
    sum, difference or product, written straight into the complex entry, so
    a zero part has the sign that operation gives it.  When b is the same
    tree as a (the lemma elements) its walk is a's.  memo is handed to every
    walk (fields.jet).  Every value, partial and entry is checked finite as
    the module docstring says: by one sum of per-entry np.add.reduce sums.
    """
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    shape = np.broadcast(t, x).shape
    av = bv = rv = None  # each walk's value once it returns
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            av, (adt, adx) = _eval(el.a, t, x, shape, memo)
            bv, (bdt, bdx) = (av, (adt, adx)) if el.b == el.a else _eval(el.b, t, x, shape, memo)
            rv, (rdt, rdx) = _eval(el.c_re, t, x, shape, memo)
            iv, (idt, idx) = _eval(el.c_im, t, x, shape, memo)
    except DomainError:
        # jet would have run the root checks of the fields walked before the failing one
        if av is not None:
            _root_check(el.a, av, (adt, adx), shape)
        if bv is not None:
            _root_check(el.b, bv, (bdt, bdx), shape)
        if rv is not None:
            _root_check(el.c_re, rv, (rdt, rdx), shape)
        raise
    parts = (adt, adx, bdt, bdx, rv, rdt, rdx, iv, idt, idx)
    parts = (np.asarray(0.0 if part is None else part, dtype=float) for part in parts)
    adt, adx, bdt, bdx, rv, rdt, rdx, iv, idt, idx = parts
    u = np.empty(np.broadcast(rdt, rdx, idt, idx).shape, dtype=complex)
    z = np.empty(u.shape, dtype=complex)
    w = np.empty(np.broadcast(rv, iv).shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        ap, am, bp, bm = adt + adx, adt - adx, bdt + bdx, bdt - bdx
        np.add(rdt, rdx, out=u.real)
        np.add(idt, idx, out=u.imag)
        np.subtract(rdt, rdx, out=z.real)
        np.subtract(idt, idx, out=z.imag)
        np.multiply(delta, rv, out=w.real)
        np.multiply(delta, iv, out=w.imag)
        # each sum at its own shape, so a value over every node never widens a row of entries
        total = sum(np.add.reduce(part, None) for part in (ap, am, bp, bm, av, bv, u, z, w))
        total = total.real + total.imag
    # an inf or NaN anywhere makes the sum inf or NaN; a sum that only overflows gets the checks below
    if not math.isfinite(total):
        for expr, v, d in (
            (el.a, av, (adt, adx)),
            (el.b, bv, (bdt, bdx)),
            (el.c_re, rv, (rdt, rdx)),
            (el.c_im, iv, (idt, idx)),
        ):
            _root_check(expr, v, d, shape)
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
        part if part.ndim == 0 else (part if part.shape == shape else np.broadcast_to(part, shape)).reshape(n)
        for part in (ap, am, bp, bm, u, z, w)
    )


def _diagonal_jets(el: AlgebraElement, t, x, delta: float, memo=None):
    """What cone_membership reads of an element with c = 0 at the nodes of the coordinates' broadcast shape.

    Returns (shape, jets, d, d_min, top).  jets = (a_t, a_x, b_t, b_x), each
    at the shape of the coordinates it reads (0-d where it reads neither).
    d = min(a_t - |a_x|, b_t - |b_x|) at the jets' broadcast shape, so a d
    that reads one coordinate stays a row or a column; it is min(ap, am,
    bp, bm) of _cone_entries up to the sign of a zero, as ap and am are
    a_t -+ |a_x| in some order.  d_min is its minimum, and top =
    max(max a_t + max |a_x|, max b_t + max |b_x|, -d_min) is at least every
    |entry|.  The walks are _cone_entries' (b's is a's when b is a's tree),
    with its root checks when a walk fails.  Every entry is finite iff d_min
    and top are, so where they or the sum of the values of a and b are not,
    _cone_entries on the same nodes raises its DomainError, or returns where
    finite parts merely overflowed that sum.
    """
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    shape = np.broadcast(t, x).shape
    av = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            av, (adt, adx) = _eval(el.a, t, x, shape, memo)
            bv, (bdt, bdx) = (av, (adt, adx)) if el.b == el.a else _eval(el.b, t, x, shape, memo)
    except DomainError:
        if av is not None:
            _root_check(el.a, av, (adt, adx), shape)
        raise
    jets = tuple(np.float64(0.0) if part is None else part for part in (adt, adx, bdt, bdx))
    with np.errstate(over="ignore", invalid="ignore"):
        d, top = None, -math.inf
        for dt, dx in (jets[:2],) if bv is av else (jets[:2], jets[2:]):
            magnitude = np.abs(dx)
            side = dt - magnitude
            d = side if d is None else np.minimum(d, side)
            top = np.maximum(top, np.maximum.reduce(dt, None) + np.maximum.reduce(magnitude, None))
        d_min = float(np.minimum.reduce(d, None))
        top = float(np.maximum(top, -d_min))
        values = np.add.reduce(av, None) + (0.0 if bv is av else np.add.reduce(bv, None))
    if not (math.isfinite(d_min) and math.isfinite(top) and math.isfinite(values)):
        _cone_entries(el, t, x, delta, memo)
    return shape, jets, d, d_min, top


def _matrices(entries) -> np.ndarray:
    """Stack of 4x4 cone matrices from the entries of _cone_entries; Hermitian by construction.

    One per node of the entries' broadcast shape: one in all where every entry is 0-d."""
    ap, am, bp, bm, u, z, w = entries
    n = np.broadcast(*entries).size
    m = np.zeros((n, 4, 4), dtype=complex)
    m[:, 0, 0] = ap
    m[:, 1, 1] = am
    m[:, 2, 2] = bp
    m[:, 3, 3] = bm
    m[:, 0, 2] = -u
    m[:, 1, 3] = -z
    m[:, 0, 3] = -w
    m[:, 1, 2] = w
    m[:, 2, 0] = np.conj(m[:, 0, 2])
    m[:, 3, 1] = np.conj(m[:, 1, 3])
    m[:, 3, 0] = np.conj(m[:, 0, 3])
    m[:, 2, 1] = np.conj(m[:, 1, 2])
    return m


def cone_matrix_at(el: AlgebraElement, dirac: DiracData, p: SpacetimePoint) -> ConeMatrix:
    """The membership matrix of the element at a single event."""
    entries = _cone_entries(el, np.atleast_1d(p.t), np.atleast_1d(p.x), dirac.d1 - dirac.d2)
    return ConeMatrix(_matrices(entries)[0])


def _psd_at_nodes(mats: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The one per-node PSD rule: (smallest eigenvalues, passed) for a stack of matrices.

    A node passes iff its smallest eigenvalue is >= -tol * scale, where
    scale = max(1, largest absolute entry); a NaN eigenvalue fails.  A
    threshold beyond the float range (tol near 1e308) is -inf and passes all.
    """
    min_eigs = np.linalg.eigvalsh(mats)[:, 0]
    scales = np.maximum(1.0, np.abs(mats).reshape(mats.shape[0], -1).max(axis=1))
    with np.errstate(over="ignore"):
        return min_eigs, min_eigs >= -tol * scales


def _finite_tol(tol: float) -> None:
    """Refuse a PSD tolerance that is not a finite number with a ValueError naming it."""
    if not math.isfinite(tol):
        raise ValueError(f"PSD tolerance must be a finite number, got {tol}")


def is_psd(matrix: ConeMatrix | np.ndarray, tol: float = PSD_TOL) -> bool:
    """PSD test with a relative eigenvalue bound: the per-node rule of _psd_at_nodes."""
    _finite_tol(tol)
    m = matrix.m if isinstance(matrix, ConeMatrix) else np.asarray(matrix, dtype=complex)
    return bool(_psd_at_nodes(m[None], tol)[1][0])


def conformal_rescale_matrix(matrix: ConeMatrix, omega: float) -> ConeMatrix:
    """Pointwise effect of a conformal factor: the matrix scales by omega^2.

    Positive scaling preserves the signs of all eigenvalues, so the PSD
    verdict is unchanged; omega must be positive.
    """
    if not omega > 0.0:
        raise ValueError(f"conformal factor must be positive, got {omega}")
    return ConeMatrix(omega * omega * matrix.m)


def lemma_sufficient_check(el: AlgebraElement, dirac: DiracData, p: SpacetimePoint) -> bool:
    """Sufficient membership test for elements with equal diagonal fields.

    Requires a and b to be structurally identical expressions and checks
    a_t - |a_x| >= |c_t| + |c_x| + gap * |c| at the event (with a small
    slack for roundoff).  Passing implies the PSD condition holds there.
    On the cone entries the sides read min(ap, am) and
    (|u + z| + |u - z|)/2 + |w|.  Raises the DomainError of _cone_entries
    when an entry is not finite.
    """
    if el.a != el.b:
        raise UnequalDiagonalError("a and b must be the same expression")
    t, x = np.atleast_1d(p.t), np.atleast_1d(p.x)
    ap, am, _, _, u, z, w = _take(_cone_entries(el, t, x, dirac.d1 - dirac.d2), 0)
    rhs = 0.5 * (abs(u + z) + abs(u - z)) + abs(w)
    return bool(min(ap, am) >= rhs - LEMMA_SLACK)


@dataclass(frozen=True)
class GridViolation:
    point: SpacetimePoint
    min_eigenvalue: float

    def to_dict(self) -> dict:
        return {"point": [self.point.t, self.point.x], "min_eigenvalue": self.min_eigenvalue}


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the sampled membership test.

    member_on_grid certifies membership only up to the grid resolution; a
    recorded violation is exact at its node.  min_eigenvalue is the smallest
    (scaled-tolerance-free) eigenvalue seen anywhere on the grid and
    min_eigenvalue_point the first node, row-major in t, that attains it, so
    callers can refine near-boundary cases.
    """

    member_on_grid: bool
    first_violation: Optional[GridViolation]
    min_eigenvalue: float
    min_eigenvalue_point: SpacetimePoint
    n_nodes: int
    n_violations: int

    def to_dict(self) -> dict:
        return {
            "member_on_grid": self.member_on_grid,
            "first_violation": None if self.first_violation is None else self.first_violation.to_dict(),
            "min_eigenvalue": self.min_eigenvalue,
            "min_eigenvalue_point": [self.min_eigenvalue_point.t, self.min_eigenvalue_point.x],
            "n_nodes": self.n_nodes,
            "n_violations": self.n_violations,
        }


def _grid_entries(el: AlgebraElement, dirac: DiracData, region: RegionGrid, row: int = 0, evaluate=None):
    """Cone matrix entries (see _cone_entries) at the region's nodes from the given row on, row-major in t.

    A DomainError raised at a known node is re-raised naming that grid node.
    The fields read the region's views() and memo; the memo's entries match only from row 0.
    evaluate, if given, takes the place of _cone_entries and must raise as it does.
    """
    t, x = region.views()
    try:
        return (evaluate or _cone_entries)(el, t[row:] if row else t, x, dirac.d1 - dirac.d2, region.memo or None)
    except DomainError as err:
        if err.index is None:
            raise
        node = region.node(row * region.nx + err.index)
        raise DomainError(
            f"{err.args[0].split(' in ')[0]} at grid node (t={node.t}, x={node.x})", err.expr
        ) from err


def _grid_blocks(el: AlgebraElement, dirac: DiracData, region: RegionGrid, evaluate=None):
    """Yield (start, n, entries) for the region's row-major blocks of about BLOCK_NODES nodes.

    entries are _cone_entries at the n nodes start, start + 1, ... of the
    block, an entry constant over it 0-d, or evaluate's result where it is
    given (it takes _cone_entries' arguments and raises as it does).  A
    DomainError in a block is re-raised by _grid_entries on the nodes from
    that block's first row on.  Every check passed on the nodes before the
    block, so the first check that fails there, and its first node, are the
    whole grid's: the message does not depend on the blocking.  A grid of
    one block is that call.
    """
    t, x = region.axes()
    nx, delta = region.nx, dirac.d1 - dirac.d2
    if region.nt * nx <= BLOCK_NODES:
        yield 0, region.nt * nx, _grid_entries(el, dirac, region, 0, evaluate)
        return
    rows, width = max(1, BLOCK_NODES // nx), min(nx, BLOCK_NODES)
    for row in range(0, region.nt, rows):
        for col in range(0, nx, width):
            t_block, x_block = t[row : row + rows, None], x[None, col : col + width]
            try:
                entries = (evaluate or _cone_entries)(el, t_block, x_block, delta)
            except DomainError:
                _grid_entries(el, dirac, region, row, evaluate)
                raise
            yield row * nx + col, t_block.size * x_block.size, entries


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _take(entries, nodes):
    """The entries at the given nodes; a 0-d entry is the same at every node and stays as it is."""
    return [part if np.ndim(part) == 0 else part[nodes] for part in entries]


def _node_scales(entries) -> np.ndarray:
    """s = max(1, largest |entry|) at each node: the unit of every relative shift and band."""
    ap, am, bp, bm, u, z, w = entries
    scale = np.maximum(np.maximum(np.abs(ap), np.abs(am)), np.maximum(np.abs(bp), np.abs(bm)))
    coupling = np.sqrt(np.maximum(np.maximum(_abs2(u), _abs2(z)), _abs2(w)))
    over = np.isinf(coupling)  # a square above the float range: take the modulus unsquared
    if over.any():
        coupling = np.where(over, np.maximum(np.maximum(np.abs(u), np.abs(z)), np.abs(w)), coupling)
    return np.maximum(scale, np.maximum(coupling, 1.0))


def _schur_terms(entries, shift):
    """Schur complement S of M + shift*I on its Da block, with the band each term must clear.

    Returns (p, q, s11, s22, band11, band22, prod, s12sq): p, q = Da + shift,
    the diagonal of S with its bands, prod = S11*S22 and s12sq = |S12|^2.
    Where the terms the tests add up are not finite (products of two
    entries beyond about 1e154 overflow), the node's terms come from its
    entries and shift times 2^-k, with 2^k at its largest magnitude.  That
    scaling is exact, and each test on the terms has the same sign after it.
    """
    terms = _schur_terms_unscaled(entries, shift)
    _, _, _, _, band11, band22, prod, s12sq = terms
    finite = np.isfinite(band11 + band22 + prod + s12sq)
    if not finite.all():
        redo = np.flatnonzero(~finite)
        part, part_shift = _take(entries, redo), shift[redo]
        factor = np.ldexp(1.0, -np.frexp(np.maximum(_node_scales(part), np.abs(part_shift)))[1])
        rescaled = _schur_terms_unscaled([v * factor for v in part], part_shift * factor)
        for term, fixed in zip(terms, rescaled):
            term[redo] = fixed
    return terms


def _schur_terms_unscaled(entries, shift):
    ap, am, bp, bm, u, z, w = entries  # C = [[-u, -w], [w, -z]], as _matrices builds it
    uu, zz, ww = _abs2(u), _abs2(z), _abs2(w)
    p, q = ap + shift, am + shift
    g1, g2 = uu / p, ww / q  # diagonal of C* diag(p, q)^-1 C
    h1, h2 = ww / p, zz / q
    s11 = bp + shift - g1 - g2
    s22 = bm + shift - h1 - h2
    s12sq = _abs2(np.conj(u) * w / p - np.conj(w) * z / q)
    shift_mag = np.abs(shift)
    band11 = SCHUR_BAND * (np.abs(bp) + shift_mag + g1 + g2)
    band22 = SCHUR_BAND * (np.abs(bm) + shift_mag + h1 + h2)
    return p, q, s11, s22, band11, band22, s11 * s22, s12sq


def _pd_after_shift(entries, shift) -> np.ndarray:
    """Nodes where M + shift*I is certainly positive definite, by the banded Schur test.

    p, q = Da + shift are single rounded sums, so their signs are exact.
    S11, S22 and det S of the Schur complement S are not: each must exceed
    SCHUR_BAND times the sum of the magnitudes it combines (det S against
    S11*S22 + |S12|^2), so rounding and cancellation can never make a node
    that is not positive definite look like one.  Non-finite intermediates
    compare False and never clear.
    """
    p, q, s11, s22, band11, band22, prod, s12sq = _schur_terms(entries, shift)
    return (
        (p > 0.0)
        & (q > 0.0)
        & (s11 > band11)
        & (s22 > band22)
        & (prod - s12sq > SCHUR_BAND * (prod + s12sq))
    )


def _indefinite_after_shift(entries, shift) -> np.ndarray:
    """Nodes where M + shift*I is certainly not positive semi-definite.

    The mirror of _pd_after_shift with the same bands: a diagonal entry of
    M + shift*I is negative, or Da + shift > 0 and S11 or S22 lies below
    minus its band, or both clear their bands and det S lies below minus its
    band.  A non-finite shift (the scale s overflowed) refutes nothing.
    """
    ap, am, bp, bm = entries[:4]
    diag_min = np.minimum(np.minimum(ap, am), np.minimum(bp, bm))
    p, q, s11, s22, band11, band22, prod, s12sq = _schur_terms(entries, shift)
    s_clear = (s11 > band11) & (s22 > band22)
    return np.isfinite(shift) & (
        (diag_min + shift < 0.0)
        | (
            (p > 0.0)
            & (q > 0.0)
            & (
                (s11 < -band11)
                | (s22 < -band22)
                | (s_clear & (prod - s12sq < -SCHUR_BAND * (prod + s12sq)))
            )
        )
    )


def _charpoly(entries):
    """Coefficients (e1, e2, e3, e4) of det(M - lam) = lam^4 - e1 lam^3 + e2 lam^2 - e3 lam + e4.

    e_k is the sum of the k x k principal minors of the cone matrix M, the
    k-th elementary symmetric polynomial of its eigenvalues, in real
    arithmetic on the seven entries of _cone_entries.  The block structure
    gives the whole polynomial in closed form: with p, q, r, s = ap - lam,
    am - lam, bp - lam, bm - lam,

        det(M - lam) = pqrs - r(q|w|^2 + p|z|^2) - s(q|u|^2 + p|w|^2) + |uz + w^2|^2.
    """
    ap, am, bp, bm, u, z, w = entries
    uu, zz, ww = _abs2(u), _abs2(z), _abs2(w)
    apm, bpm, a_sum, b_sum = ap * am, bp * bm, ap + am, bp + bm
    e1 = ap + am + bp + bm
    e2 = apm + bpm + a_sum * b_sum - 2.0 * ww - zz - uu
    e3 = apm * b_sum + bpm * a_sum - zz * (ap + bp) - uu * (am + bm) - ww * e1
    e4 = apm * bpm - ww * (am * bp + ap * bm) - zz * (ap * bp) - uu * (am * bm) + _abs2(u * z + w * w)
    return e1, e2, e3, e4


def _coupled(entries) -> np.ndarray:
    """Nodes where C is not 0 (some of u, z, w is not 0); 0-d where c is constant over the block."""
    u, z, w = entries[4:]
    return (u != 0.0) | (z != 0.0) | (w != 0.0)


def _diagonal_min(entries):
    """(d, s) at uncoupled nodes: the smallest diagonal entry and s = max(largest entry, -d, 1).

    M is diagonal there, so d is its smallest eigenvalue and s the largest
    |entry| with one max.  eigvalsh returns d to within a few ulps of s:
    bit for bit when the largest |entry| lies in LAPACK's unscaled range,
    which [EXACT_DIAGONAL_MIN, EXACT_DIAGONAL_MAX] lies inside, and through
    one multiplication and one division by the same factor outside it.
    Meaningless at a coupled node.
    """
    ap, am, bp, bm = entries[:4]
    d = np.minimum(np.minimum(ap, am), np.minimum(bp, bm))
    return d, np.maximum(np.maximum(np.maximum(ap, am), np.maximum(bp, bm)), np.maximum(-d, 1.0))


def _uncoupled_rule(entries, tol: float):
    """_block_verdicts at uncoupled nodes (u = z = w = 0): (passed, failed).

    With (d, s) of _diagonal_min, a node passes when d - SCHUR_EIG_SLACK*s,
    its Gershgorin bound, is at least -tol*s, and fails when
    d + SCHUR_EIG_SLACK*s is below it.  So at tol >= SCHUR_EIG_SLACK it
    passes every node with d >= 0, as the module docstring's bulk step does.
    """
    d, scale = _diagonal_min(entries)
    slack, threshold = SCHUR_EIG_SLACK * scale, -tol * scale
    return d - slack >= threshold, d + slack < threshold


def _block_verdicts(entries, n: int, tol: float, bound, bound_min=None):
    """The verdict short of eigvalsh at a block's n nodes: (passed, failed).

    bound is the Gershgorin bound G at each node, and bound_min, where the
    caller has taken it, G's minimum over the block.  The rules of the
    module docstring, in its order: at tol >= SCHUR_EIG_SLACK the nodes
    with G >= 0 pass in bulk, and a block where all do, by one min
    reduction that a NaN fails, returns 0-d True and False at once.  Of the
    nodes left open, _uncoupled_rule decides the
    uncoupled ones; at the coupled ones the Gershgorin rule passes, then the
    Schur tests pass and fail.  No node is both, and the nodes neither are
    left to eigvalsh.  A block with c constant 0 where more nodes are open
    than passed gets the rule on all of them, which is cheaper than
    indexing the open ones.
    """
    bulk = tol >= SCHUR_EIG_SLACK
    if bulk and (np.minimum.reduce(bound, None) if bound_min is None else bound_min) >= 0.0:  # NaN fails
        return np.True_, np.False_
    passed = bound >= 0.0 if bulk else np.False_
    if np.ndim(passed) == 0:  # False at every node
        passed = np.zeros(n, dtype=bool)
    failed = ~passed  # the open nodes, until a rule passes one or leaves it open
    open_nodes = np.flatnonzero(failed)
    uncoupled = not any(map(np.ndim, entries[4:])) and not _coupled(entries)  # c is constant 0
    if uncoupled and 2 * open_nodes.size > n:
        return _uncoupled_rule(entries, tol)
    part = _take(entries, open_nodes)
    rule_passed, rule_failed = _uncoupled_rule(part, tol)
    if not uncoupled:  # the rule decides only the nodes with u = z = w = 0
        coupled = np.broadcast_to(_coupled(part), open_nodes.shape)
        rule_passed, rule_failed = rule_passed & ~coupled, rule_failed & ~coupled
    # at tol >= SCHUR_EIG_SLACK an open uncoupled node has d < 0 and nearly always fails: correct the rest
    passed[open_nodes[rule_passed]] = True
    failed[open_nodes[~rule_failed]] = False
    if uncoupled:
        return passed, failed
    open_nodes = open_nodes[coupled]
    if open_nodes.size:
        part = _take(entries, open_nodes)
        scale = np.broadcast_to(_node_scales(part), open_nodes.shape)
        lower = np.broadcast_to(bound, n)[open_nodes] - SCHUR_EIG_SLACK * scale
        # where s overflowed, lower and -tol*s are both -inf: such a node is left open
        left = ~(np.isfinite(scale) & (lower >= -tol * scale))
        passed[open_nodes] = ~left
        open_nodes, part, scale = open_nodes[left], _take(part, left), scale[left]
        passed[open_nodes] = _pd_after_shift(part, (tol - SCHUR_EIG_SLACK) * scale)
        failed[open_nodes] = _indefinite_after_shift(part, (tol + SCHUR_EIG_SLACK) * scale)
    return passed, failed


def _gershgorin_bound(entries) -> np.ndarray:
    """Gershgorin: each eigenvalue lies within a row's off-diagonal sum of that row's diagonal entry.

    Rows 0 and 2 carry |u| + |w| off the diagonal, rows 1 and 3 |z| + |w|;
    this is the smallest of the four row bounds, with no slack.
    """
    ap, am, bp, bm, u, z, w = entries
    return np.minimum(np.minimum(ap, bp) - np.abs(u), np.minimum(am, bm) - np.abs(z)) - np.abs(w)


def _psd_at_distinct_nodes(parts, tol: float):
    """_psd_at_nodes on the given nodes' entries; nodes with identical entries are diagonalised once.

    The one eigvalsh path of both grid kernels.  A 0-d part (as _take
    leaves it) is the same at every node and stays out of the hash; where
    every part is, the nodes are one row.  The nodes are grouped by a hash
    of the bits of their entries, and each node is compared bit for bit
    with its group's first node, whose eigenvalue it then shares.  A node
    that differs from that one (two distinct rows with one hash) is
    diagonalised on its own.
    """
    n = np.broadcast(*parts).size
    # the bits of each entry that varies; a complex entry gives two columns
    columns = [column for part in parts if np.ndim(part) for column in part.view(np.int64).reshape(n, -1).T]
    key = np.zeros(n, dtype=np.int64)
    for column in columns:
        key = key * _HASH_MULTIPLIER + column  # wraps modulo 2^64
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    rep = first[group]
    same = np.ones(n, dtype=bool)
    for column in columns:
        same &= column == column[rep]
    lone = np.flatnonzero(~same)
    index = group
    index[lone] = len(first) + np.arange(lone.size)
    min_eigs, passed = _psd_at_nodes(_matrices(_take(parts, np.concatenate((first, lone)))), tol)
    return min_eigs[index], passed[index]


def _block_scale(entries, bound_min: float) -> float:
    """s_max = max(1, max(D, 0) + max(-min G, 0)) for a block, D its largest diagonal entry.

    It is at least every node's s: G is at most each diagonal entry, and
    |u|, |z| and |w| are at most D - G, by Gershgorin's row sums.  The
    rounding of G, of the moduli in it and of the sum can leave s_max short
    of s by a few unit roundoffs of s (fewer than 16), far inside
    SCHUR_EIG_SLACK.
    """
    diagonal_max = max(float(np.maximum.reduce(part, None)) for part in entries[:4])
    return max(1.0, max(diagonal_max, 0.0) + max(-bound_min, 0.0))


def _block_membership(entries, n: int, tol: float, upper: float):
    """cone_membership's general path on one block of n nodes: (bound, passed, failed, upper).

    passed and failed are _block_verdicts', and bound is each node's lower
    bound L.  upper bounds the grid minimum from above (a bound on some
    earlier node's eigvalsh value) and comes back lowered by this block's.
    L = G - SCHUR_EIG_SLACK*s_max, with G the Gershgorin bound, whose
    minimum over the block the bulk step and s_max share, and s_max the
    block-wide bound on every node's s of _block_scale, so no node's own s
    is taken.  Where an entry is so large that s_max overflows, L is -inf
    and every node of the block goes to eigvalsh.  eigvalsh at the node of
    smallest L lowers upper.  The nodes whose L is not above it, the only
    ones that can hold the grid minimum, raise L to
    lambda_min(M0) - SCHUR_EIG_SLACK*s where that is larger, with M0 of the
    module docstring: M - M0 = diag(ap - alpha, am - alpha, bp - beta,
    bm - beta) is PSD, so lambda_min(M) >= lambda_min(M0) =
    (alpha + beta)/2 - sqrt(((alpha - beta)/2)^2 + sigma^2), with sigma^2
    the largest eigenvalue of C*C.  It is taken on the entries over their
    node's s and then times s, a few dozen ulps of s off.  eigvalsh at the
    refined node of smallest L lowers upper last.
    """
    bound = _gershgorin_bound(entries)
    bound_min = float(np.minimum.reduce(bound, None))
    passed, failed = _block_verdicts(entries, n, tol, bound, bound_min)
    slack = SCHUR_EIG_SLACK * _block_scale(entries, bound_min)
    # from G to L, in place where G is per node: one array fewer lives through the block
    lower = np.subtract(bound, slack, out=bound if np.ndim(bound) else None)
    if np.ndim(lower) == 0:  # every entry is constant over the block
        lower = np.full(n, lower)
    # any node's eigvalsh value is at least the grid minimum: take it where L is least
    upper = np.minimum(upper, _psd_at_nodes(_matrices(_take(entries, [np.argmin(lower)])), tol)[0][0])
    refine = np.flatnonzero(~(lower > upper))
    if refine.size:
        part = _take(entries, refine)
        s = _node_scales(part)
        ap, am, bp, bm, u, z, w = (entry / s for entry in part)
        alpha, beta = np.minimum(ap, am), np.minimum(bp, bm)
        uu, zz = _abs2(u), _abs2(z)
        sigma2 = 0.5 * (uu + zz) + _abs2(w) + np.hypot(0.5 * (uu - zz), np.abs(np.conj(u) * w - np.conj(w) * z))
        half = 0.5 * (alpha - beta)
        closed = (0.5 * (alpha + beta) - np.sqrt(half * half + sigma2)) * s
        bound = lower[refine] = np.fmax(lower[refine], closed - SCHUR_EIG_SLACK * s)
        lowest = _take(entries, [refine[np.argmin(bound)]])
        upper = np.minimum(upper, _psd_at_nodes(_matrices(lowest), tol)[0][0])
    return lower, passed, failed, upper


def _at(part, nodes, width: int):
    """A block part, at a shape that broadcasts to the block's rows of the given width, at the block's flat nodes.

    A 0-d part is the same at every node and stays as it is."""
    if np.ndim(part) == 0:
        return part
    rows, cols = part.shape
    flat = part.reshape(-1)
    if rows > 1:
        return flat[nodes if cols > 1 else nodes // width]
    return flat[nodes % width if cols > 1 else 0]


def _diagonal_membership(
    el: AlgebraElement, dirac: DiracData, region: RegionGrid, tol: float
) -> Optional[MembershipReport]:
    """cone_membership of an element with c = 0 from d alone; None where an eigenvalue it reads may be inexact.

    Every node's matrix is diagonal, so its smallest eigenvalue is d =
    min(a_t - |a_x|, b_t - |b_x|).  The walk is _grid_blocks' with
    _diagonal_jets for _cone_entries, so it evaluates each block, and raises
    and re-walks at a DomainError, as the general path does, but builds no
    entry array and keeps no node for a bound.  The verdicts are
    _block_verdicts': at tol >= SCHUR_EIG_SLACK the nodes with d >= 0 pass
    in bulk, _uncoupled_rule takes the others' four diagonal entries, and
    the nodes it leaves open go to _psd_at_distinct_nodes after the walk.
    min_eigenvalue is the grid's least d, at the first node that holds it,
    and the first violation's eigenvalue is its d, or eigvalsh's value where
    eigvalsh decided the node.  Those d are eigvalsh's values, bit for bit,
    when every |entry| on the grid is at most EXACT_DIAGONAL_MAX and each d
    read is at least EXACT_DIAGONAL_MIN in magnitude: their matrices then
    lie in LAPACK's unscaled range, and no node's eigvalsh value can tie
    with or undercut the least d.  It returns None as soon as a block shows
    that one of these fails; the general path then walks the grid again
    and raises any DomainError the rest of this walk would have raised.
    """
    bulk = tol >= SCHUR_EIG_SLACK
    low, low_node = math.inf, 0  # the least d so far and its first node
    n_failed, first_failed, failed_d = 0, -1, 0.0
    kept = []  # per block: (nodes, ap, am, bp, bm) of the nodes _uncoupled_rule leaves open
    for start, n_block, (shape, jets, d, d_min, top) in _grid_blocks(el, dirac, region, _diagonal_jets):
        if top > EXACT_DIAGONAL_MAX:
            return None
        if d_min < low:
            # d one row high holds every row's values, one column wide every column's: the first least
            # entry of its own shape is at the block's first node where d is least
            row, col = np.unravel_index(np.argmin(d), d.shape) if np.ndim(d) else (0, 0)
            low, low_node = d_min, start + int(row) * shape[1] + int(col)
        if bulk and d_min >= 0.0:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = np.flatnonzero(np.broadcast_to(d < 0.0, shape)) if bulk else None
            if nodes is None or 2 * nodes.size > n_block:  # as _block_verdicts: the rule on every node
                nodes, at = np.arange(n_block), shape
            else:
                jets, at = [_at(part, nodes, shape[1]) for part in jets], nodes.shape
            adt, adx, bdt, bdx = jets
            diagonal = [
                np.broadcast_to(part, at).reshape(nodes.shape) for part in (adt + adx, adt - adx, bdt + bdx, bdt - bdx)
            ]
            passed, failed = (np.broadcast_to(verdict, nodes.shape) for verdict in _uncoupled_rule(diagonal, tol))
        if failed.any():
            if first_failed < 0:
                k = int(np.argmax(failed))
                first_failed, failed_d = start + int(nodes[k]), float(min(part[k] for part in diagonal))
                if abs(failed_d) < EXACT_DIAGONAL_MIN:
                    return None
            n_failed += int(np.count_nonzero(failed))
        left = ~(passed | failed)
        if left.any():
            kept.append((start + nodes[left], *(part[left] for part in diagonal)))
    if abs(low) < EXACT_DIAGONAL_MIN:
        return None
    first, value, n_violations = first_failed, failed_d, n_failed
    if kept:
        nodes, *diagonal = (np.concatenate(column) for column in zip(*kept))
        delta = dirac.d1 - dirac.d2
        # u, z and w as _cone_entries builds them from c = 0
        coupling = (np.array(0j), np.array(0j), np.array(complex(delta * el.c_re.value, delta * el.c_im.value)))
        min_eigs, node_passed = _psd_at_distinct_nodes((*diagonal, *coupling), tol)
        if not node_passed.all():
            n_violations += int(np.count_nonzero(~node_passed))
            k = int(np.argmin(node_passed))
            if first < 0 or nodes[k] < first:
                first, value = int(nodes[k]), float(min_eigs[k])
    return MembershipReport(
        member_on_grid=n_violations == 0,
        first_violation=None if first < 0 else GridViolation(region.node(first), value),
        min_eigenvalue=low,
        min_eigenvalue_point=region.node(low_node),
        n_nodes=region.nt * region.nx,
        n_violations=n_violations,
    )


def cone_membership(
    el: AlgebraElement, dirac: DiracData, region: RegionGrid, tol: float = PSD_TOL
) -> MembershipReport:
    """Test the PSD condition at every grid node, row-major in t.

    The report equals the one eigvalsh on every node's matrix would give:
    each node's verdict is _psd_at_nodes's, min_eigenvalue and the first
    violation's eigenvalue are eigvalsh values, and min_eigenvalue_point is
    the first node, row-major, where eigvalsh gives min_eigenvalue.  Where
    c.re and c.im are the literal 0, _diagonal_membership reads the report
    from d, if every value it reads lies in the range where eigvalsh returns
    d exactly.  Otherwise, on the general path, each block gets
    _block_membership, which lowers U.  After the walk eigvalsh runs once on
    the nodes left undecided, the first certain violation and the nodes
    whose L is at most the final U, among which is every node that attains
    the minimum.

    Raises DomainError annotated with the offending node when a field, one
    of its partials, or an entry of the matrix cannot be evaluated to a
    finite number somewhere on the grid, and EigenvalueRangeError naming
    the first node of the grid minimum when that minimum is not finite (an
    eigenvalue below -1.8e308 overflows, although every entry is finite).
    A tol that is not a finite number is a ValueError.
    """
    _finite_tol(tol)
    region.axes()  # the axes first: they refuse a grid too large to allocate
    n = region.nt * region.nx
    try:  # the general path's node flags, taken first on either path: they refuse a grid too large to walk
        passed = np.empty(n, dtype=bool)
    except (MemoryError, ValueError) as err:
        raise region._too_large() from err
    if all(isinstance(part, Num) and part.value == 0.0 for part in (el.c_re, el.c_im)):
        report = _diagonal_membership(el, dirac, region, tol)
        if report is not None:
            return report
    upper = np.inf  # U: an eigvalsh value at some node, so at least the grid minimum
    first_failed = -1
    kept = []  # per block: (nodes, bounds, undecided flags, entries) of the nodes eigvalsh may need
    for start, n_block, entries in _grid_blocks(el, dirac, region):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            bound, block_passed, failed, upper = _block_membership(entries, n_block, tol, upper)
        passed[start : start + n_block] = block_passed
        need = ~(bound > upper)
        if block_passed is np.True_:  # passed in bulk: no numpy-scalar work, which costs microseconds a call
            nodes = np.flatnonzero(need)
            undecided = np.zeros(nodes.size, dtype=bool)
        else:
            undecided = np.broadcast_to(~(block_passed | failed), n_block)
            need |= undecided
            if first_failed < 0 and failed.any():
                first_failed = start + int(np.argmax(failed))
                need[first_failed - start] = True
            nodes = np.flatnonzero(need)
            undecided = undecided[nodes]
        parts = (np.full(nodes.shape, part) if np.ndim(part) == 0 else part for part in _take(entries, nodes))
        kept.append((start + nodes, bound[nodes], undecided, *parts))
    nodes, bound, undecided, *parts = (np.concatenate(column) for column in zip(*kept))
    need = undecided | ~(bound > upper) | (nodes == first_failed)
    nodes, undecided, parts = nodes[need], undecided[need], _take(parts, need)
    min_eigs, node_passed = _psd_at_distinct_nodes(parts, tol)
    passed[nodes[undecided]] = node_passed[undecided]
    min_eigenvalue = float(min_eigs.min())
    # every node that attains the minimum is kept, in row-major order, so this is the grid's first
    low = region.node(int(nodes[np.argmin(min_eigs)]))
    if not math.isfinite(min_eigenvalue):
        raise EigenvalueRangeError(
            f"smallest cone matrix eigenvalue {min_eigenvalue} at grid node (t={low.t}, x={low.x})"
        )
    n_violations = int((~passed).sum())
    first: Optional[GridViolation] = None
    if n_violations:
        idx = int(np.argmin(passed))
        first = GridViolation(region.node(idx), float(min_eigs[np.searchsorted(nodes, idx)]))
    return MembershipReport(
        member_on_grid=n_violations == 0,
        first_violation=first,
        min_eigenvalue=min_eigenvalue,
        min_eigenvalue_point=low,
        n_nodes=n,
        n_violations=n_violations,
    )


def certify_grid_psd(
    el: AlgebraElement, dirac: DiracData, region: RegionGrid, tol: float = PSD_TOL
) -> bool:
    """Membership decision over the grid, equal to cone_membership(...).member_on_grid.

    The verdict is eigvalsh's (_psd_at_nodes) at every node: False also
    where cone_membership raises EigenvalueRangeError.  It walks the same
    blocks as cone_membership and, after a violation, only evaluates the
    remaining ones, so it raises the same node-annotated DomainError, and
    the same ValueError for a tol that is not finite.  The nodes left open
    go to _psd_at_distinct_nodes, as cone_membership's do.
    """
    _finite_tol(tol)
    verdict = True
    for _, n, entries in _grid_blocks(el, dirac, region):
        if not verdict:
            continue
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            passed, failed = _block_verdicts(entries, n, tol, _gershgorin_bound(entries))
        if passed is np.True_:  # every node passed; a reduction over a numpy scalar costs microseconds
            continue
        if failed.any():
            verdict = False
        elif not passed.all():
            open_nodes = np.flatnonzero(~np.broadcast_to(passed, n))
            verdict = bool(_psd_at_distinct_nodes(_take(entries, open_nodes), tol)[1].all())
    return verdict

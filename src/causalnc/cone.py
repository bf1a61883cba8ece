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

Both grid paths work on the seven distinct entries of that matrix and use
its block structure instead of diagonalising every node.  With
Da = diag(a0+a1, a0-a1), Db = diag(b0+b1, b0-b1) and C the upper right 2x2
block, M + shift*I is positive definite iff Da + shift > 0 and the 2x2
Schur complement Db + shift - C* (Da + shift)^-1 C is.  _pd_after_shift
tests that with a relative band on every rounded quantity, so it can
answer "positive definite" but never wrongly; _indefinite_after_shift is
its mirror.  A node neither test decides gets the one per-node eigvalsh
rule, _psd_at_nodes, so every verdict is the one eigvalsh would give.

certify_grid_psd needs only the verdict.  cone_membership also reports the
smallest eigenvalue on the grid: closed-form Gershgorin and interlacing
bounds screen out the coupled nodes that pass and cannot hold the grid
minimum; at the rest it estimates the smallest eigenvalue by Newton on the
closed-form characteristic polynomial (_charpoly, which also certifies the
separating witness of witness.py), certifies a lower bound from each
estimate with the Schur test, and runs eigvalsh only where the grid
minimum can lie, where no test decides, and at the first violation.  A
constant coupling c stays 0-d (_cone_entries), so an element with c = 0
builds no coupling entries over the grid and sends no node to Newton.

Every step up to that choice is per node, so both grid paths walk the grid
in row-major blocks of about BLOCK_NODES nodes (_grid_blocks): runs of
whole rows, or slices of one row when a row is longer than BLOCK_NODES.
The grid is a tensor product, so each block evaluates the fields on a
column of t and a row of x, and a subtree that reads one coordinate is
evaluated on that axis only; the entries are then flattened to the block's
node vector.  The fields, the entries and every kernel temporary live for
one block, small enough to stay in cache.  Only per-node verdicts and the
entries of the few nodes that may need eigvalsh outlive it, and eigvalsh
runs on those once, after the walk.  A grid of at most BLOCK_NODES nodes is
one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import DomainError, FieldExpr, ParseError, jet, parse, to_source
from .minkowski import SpacetimePoint
from .states import DiracData

#: Default relative eigenvalue tolerance for the PSD tests.
PSD_TOL = 1e-9
HERMITIAN_TOL = 1e-12
LEMMA_SLACK = 1e-12
#: Part of the tolerance shift, relative to the node scale, that the Schur
#: test gives up: a cleared node's smallest eigenvalue lies this far inside
#: -tol*scale, which is some 10^4 ulps of the scale and far more than the
#: rounding of a 4x4 eigvalsh (a few hundred ulps of ||M||_F <= 4*scale).
SCHUR_EIG_SLACK = 1e-12
#: Relative band each rounded Schur quantity must clear: S11 and S22 against
#: the sum of the magnitudes they combine, det S against S11*S22 + |S12|^2.
#: Rounding moves S11 and S22 by about 8 unit roundoffs (u = 2^-53) of that
#: sum, so by at most 8u/band of their own size, and det S by about 22u/band
#: of its sum, some 10^-9: far inside the band.
SCHUR_BAND = 1e-6
#: Gap, relative to the node scale, between a node's estimate of its smallest
#: eigenvalue and the lower bound cone_membership certifies there.  Wide enough
#: for the banded Schur test to clear M - bound*I, narrow enough that only
#: the nodes near the grid minimum keep a bound below it.
BOUND_GAP = 1e-5
#: Newton on the characteristic polynomial stops once a step is at most this
#: fraction of the node scale (far below BOUND_GAP), or after NEWTON_MAX_STEPS.
NEWTON_STEP_TOL = 1e-9
NEWTON_MAX_STEPS = 30
#: Grid nodes per block of _grid_blocks: a block is BLOCK_NODES // nx whole
#: rows, or a slice of BLOCK_NODES nodes of one row when nx is larger.  A
#: block's entries and the kernel temporaries over it take a few MB; of
#: 4,096 to 65,536 nodes this size ran cone_membership fastest on 101^2 to
#: 401^2 grids.
BLOCK_NODES = 32_768
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

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.m)[0])


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
        return self._axes

    def node(self, flat_index: int) -> SpacetimePoint:
        """The event at a flat node index: the axis coordinates, so the one the grid paths evaluate."""
        t, x = self.axes()
        row, col = divmod(flat_index, self.nx)
        return SpacetimePoint(float(t[row]), float(x[col]))

    def to_dict(self) -> dict:
        return {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "x_min": self.x_min,
            "x_max": self.x_max,
            "nt": self.nt,
            "nx": self.nx,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegionGrid":
        return cls(
            float(data["t_min"]),
            float(data["t_max"]),
            float(data["x_min"]),
            float(data["x_max"]),
            int(data["nt"]),
            int(data["nx"]),
        )


def _cone_entries(el: AlgebraElement, t, x, delta: float):
    """The seven distinct entries of the cone matrix at the nodes of the coordinates' broadcast shape.

    Returns (ap, am, bp, bm, u, z, w) = (a_t + a_x, a_t - a_x, b_t + b_x,
    b_t - b_x, c_t + c_x, c_t - c_x, delta*c); C = [[-u, -w], [w, -z]].
    t and x broadcast against each other (the grid paths pass a column of t
    and a row of x), and the partials are summed at the shapes of the
    coordinates they read.  Each entry is then flattened, row-major, to a
    vector over the nodes, except that a coupling entry u, z or w that is
    constant over the coordinates stays 0-d: a constant c (c = 0 above all)
    builds no complex array, and _take and the kernels broadcast it.  When
    b is the same tree as a (the lemma elements) its jet is a's.
    These sums and products of finite partials can overflow: DomainError
    then names the field and carries the index of its first such node.
    """
    shape = np.broadcast_shapes(np.shape(t), np.shape(x))
    _, adt, adx = jet(el.a, t, x)
    _, bdt, bdx = (None, adt, adx) if el.b == el.a else jet(el.b, t, x)
    rv, rdt, rdx = jet(el.c_re, t, x)
    iv, idt, idx = jet(el.c_im, t, x)
    rv, rdt, rdx, iv, idt, idx = (np.asarray(part, dtype=float) for part in (rv, rdt, rdx, iv, idt, idx))
    with np.errstate(over="ignore", invalid="ignore"):
        c0, c1 = rdt + 1j * idt, rdx + 1j * idx
        ap, am, bp, bm = adt + adx, adt - adx, bdt + bdx, bdt - bdx
        u, z, w = c0 + c1, c0 - c1, delta * (rv + 1j * iv)
        coupling = u + z + w
        total = (ap + am) + (bp + bm) + (coupling.real + coupling.imag)
    # any inf or NaN entry makes the sum inf or NaN; a sum that only overflows gets the check below
    if not np.isfinite(total).all():
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
    flat = [np.broadcast_to(part, shape).reshape(n) for part in (ap, am, bp, bm)]
    flat += [part if part.ndim == 0 else np.broadcast_to(part, shape).reshape(n) for part in (u, z, w)]
    return tuple(flat)


def _matrices(entries) -> np.ndarray:
    """Stack of 4x4 cone matrices from the entries of _cone_entries; Hermitian by construction."""
    ap, am, bp, bm, u, z, w = entries
    n = ap.shape[0]
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


def is_psd(matrix: ConeMatrix | np.ndarray, tol: float = PSD_TOL) -> bool:
    """PSD test with a relative eigenvalue bound: the per-node rule of _psd_at_nodes."""
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
    (scaled-tolerance-free) eigenvalue seen anywhere on the grid, so callers
    can refine near-boundary cases.
    """

    member_on_grid: bool
    first_violation: Optional[GridViolation]
    min_eigenvalue: float
    n_nodes: int
    n_violations: int

    def to_dict(self) -> dict:
        return {
            "member_on_grid": self.member_on_grid,
            "first_violation": None if self.first_violation is None else self.first_violation.to_dict(),
            "min_eigenvalue": self.min_eigenvalue,
            "n_nodes": self.n_nodes,
            "n_violations": self.n_violations,
        }


def _grid_entries(el: AlgebraElement, dirac: DiracData, region: RegionGrid, row: int = 0):
    """Cone matrix entries (see _cone_entries) at the region's nodes from the given row on, row-major in t.

    A DomainError raised at a known node is re-raised naming that grid node.
    """
    t, x = region.axes()
    try:
        return _cone_entries(el, t[row:, None], x[None, :], dirac.d1 - dirac.d2)
    except DomainError as err:
        if err.index is None:
            raise
        node = region.node(row * region.nx + err.index)
        raise DomainError(
            f"{err.args[0].split(' in ')[0]} at grid node (t={node.t}, x={node.x})", err.expr
        ) from err


def _grid_blocks(el: AlgebraElement, dirac: DiracData, region: RegionGrid):
    """Yield (start, entries) for the region's row-major blocks of about BLOCK_NODES nodes.

    A block is a run of BLOCK_NODES // nx whole rows, or, when a row is
    longer than BLOCK_NODES, a slice of BLOCK_NODES nodes of one row; its
    fields are evaluated on a column of t and a row of x.  entries are
    _cone_entries at the nodes start, start + 1, ... of the block.  A
    DomainError in a block is re-raised by _grid_entries on the nodes from
    that block's first row on.  Every check of the evaluation passed on the
    nodes before the block, so the first check that fails there, and the
    first node where it fails, are those of the whole grid: the message does
    not depend on the blocking.  A grid of one block is that call.
    """
    t, x = region.axes()
    nx, delta = region.nx, dirac.d1 - dirac.d2
    if region.nt * nx <= BLOCK_NODES:
        yield 0, _grid_entries(el, dirac, region)
        return
    rows, width = max(1, BLOCK_NODES // nx), min(nx, BLOCK_NODES)
    for row in range(0, region.nt, rows):
        for col in range(0, nx, width):
            try:
                entries = _cone_entries(el, t[row : row + rows, None], x[None, col : col + width], delta)
            except DomainError:
                _grid_entries(el, dirac, region, row)
                raise
            yield row * nx + col, entries


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

    M + shift*I is positive definite iff p, q = Da + shift > 0 and the Schur
    complement S = Db + shift - C* diag(p, q)^-1 C has S11, S22 and det S
    positive.  p and q are single rounded sums, so their signs are exact.
    S11, S22 and det S are not: each must exceed SCHUR_BAND times the sum of
    the magnitudes it combines (det S against S11*S22 + |S12|^2), so rounding
    and cancellation can never make a node that is not positive definite
    look like one.  Non-finite intermediates compare False and never clear.

    Callers give up SCHUR_EIG_SLACK*s of the shift they want: a node cleared
    at shift = -(bound + SCHUR_EIG_SLACK*s) has an eigvalsh smallest
    eigenvalue above bound, which eigvalsh's own rounding cannot undo.
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
    band.  With shift = (tol + SCHUR_EIG_SLACK)*s such a node's eigvalsh
    smallest eigenvalue is below -tol*s.  A non-finite shift (the scale s
    overflowed) refutes nothing.
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


# Closed-form bounds on a node's eigvalsh smallest eigenvalue.  Both move
# SCHUR_EIG_SLACK*s outward, far more than their own rounding and that of
# eigvalsh (a few hundred ulps of s), so the lower one never exceeds the upper.


def _gershgorin_lower(entries, scale) -> np.ndarray:
    """Gershgorin: each eigenvalue lies within a row's off-diagonal sum of that row's diagonal entry.

    Rows 0 and 2 carry |u| + |w| off the diagonal, rows 1 and 3 |z| + |w|.
    """
    ap, am, bp, bm, u, z, w = entries
    lower = np.minimum(np.minimum(ap, bp) - np.abs(u), np.minimum(am, bm) - np.abs(z)) - np.abs(w)
    return lower - SCHUR_EIG_SLACK * scale


def _interlacing_upper(entries, scale) -> np.ndarray:
    """Cauchy interlacing: the smallest eigenvalue is at most that of each principal submatrix.

    Here the 2x2 blocks on rows (0, 2), (1, 3), (0, 3) and (1, 2), each
    [[x, -v], [-v*, y]] with smallest eigenvalue (x + y)/2 - hypot((x - y)/2, |v|).
    """
    ap, am, bp, bm, u, z, w = entries
    au, az, aw = np.abs(u), np.abs(z), np.abs(w)

    def pair_min(x, y, v):  # on quarters of the entries, so only a value below -1.8e308 overflows
        return 2.0 * ((0.25 * x + 0.25 * y) - np.hypot(0.25 * x - 0.25 * y, 0.5 * v))

    upper = np.minimum(
        np.minimum(pair_min(ap, bp, au), pair_min(am, bm, az)),
        np.minimum(pair_min(ap, bm, aw), pair_min(am, bp, aw)),
    )
    return upper + SCHUR_EIG_SLACK * scale


def _lambda_min_estimates(entries, scale, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimate of each node's smallest eigenvalue, and whether it converged.

    A node outside the index array nodes gets its smallest diagonal entry,
    which is exact where it is uncoupled (u = z = w = 0): the matrix is
    diagonal there.  A node in nodes runs Newton on the characteristic
    polynomial of M/s less its mean, with s
    the node scale, so that no coefficient overflows (e4 grows as the fourth
    power of the entries): from _charpoly, its expansion in mu = lam -
    (ap + am + bp + bm)/(4s), det(M/s - lam) = mu^4 + e2 mu^2 - e3 mu + e4,
    has no cubic term.  The four roots are real, so Newton started at the
    Gershgorin lower bound rises to the smallest one without overshooting
    it (up to rounding); the estimate is s times it.  A node converges
    once a step is at most NEWTON_STEP_TOL (of M/s); a node that
    does not within NEWTON_MAX_STEPS (linear convergence at a multiple
    root), or whose step is not finite, is reported as not converged.
    """
    ap, am, bp, bm = entries[:4]
    estimate = np.minimum(np.minimum(ap, am), np.minimum(bp, bm))
    converged = np.ones(estimate.shape, dtype=bool)
    if nodes.size == 0:
        return estimate, converged
    s = scale[nodes]
    ap, am, bp, bm, u, z, w = (part / s for part in _take(entries, nodes))
    center = 0.25 * (ap + am + bp + bm)
    ap, am, bp, bm = ap - center, am - center, bp - center, bm - center
    _, c2, e3, c0 = _charpoly((ap, am, bp, bm, u, z, w))
    c1 = -e3  # det(M/s - lam) = mu^4 + c2 mu^2 + c1 mu + c0
    mu = _gershgorin_lower((ap, am, bp, bm, u, z, w), 0.0)  # a start needs no slack
    converged[nodes] = False
    for _ in range(NEWTON_MAX_STEPS):
        mu2 = mu * mu
        step = (((mu2 + c2) * mu + c1) * mu + c0) / ((4.0 * mu2 + 2.0 * c2) * mu + c1)
        finite = np.isfinite(step)
        mu = np.where(finite, mu - step, mu)
        small = np.abs(step) <= NEWTON_STEP_TOL
        finished = small | ~finite
        if finished.any():
            estimate[nodes[finished]] = (center[finished] + mu[finished]) * s[finished]
            converged[nodes[small]] = True
            keep = ~finished
            nodes, mu, center, s, c2, c1, c0 = (v[keep] for v in (nodes, mu, center, s, c2, c1, c0))
            if nodes.size == 0:
                break
    estimate[nodes] = (center + mu) * s
    return estimate, converged


def _psd_at_distinct_nodes(parts, tol: float):
    """_psd_at_nodes on the given nodes' entries; nodes with identical entries are diagonalised once.

    The nodes are grouped by a hash of the bits of their entries, and each
    node is compared bit for bit with its group's first node, whose
    eigenvalue it then shares.  A node that differs from that one (two
    distinct rows with one hash) is diagonalised on its own.
    """
    n = len(parts[0])
    # the bits of each entry; a complex entry gives two columns
    columns = [column for part in parts for column in part.view(np.int64).reshape(n, -1).T]
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


def _block_membership(entries, tol: float, upper: float):
    """The per-node part of cone_membership on one block: screen, then Newton, then Schur.

    upper bounds the grid minimum from above (an eigvalsh value or an
    interlacing bound at an earlier node).  Returns (estimate, bound,
    passed, failed, upper), with upper lowered by this block's interlacing
    bounds.  An uncoupled node's estimate is its smallest diagonal entry,
    exact.  A coupled node whose Gershgorin bound G passes it (G >= -tol*s)
    and lies above upper keeps G as estimate and bound: its eigvalsh value
    is at least G, so it passes, and upper is at least the grid minimum, so
    the node cannot hold it.  Only the other coupled nodes run Newton and
    the Schur certificate of their bound.  The Schur tests then decide the
    nodes whose bound is below -tol*s; the rest are left to eigvalsh.
    """
    scale = _node_scales(entries)
    u, z, w = entries[4:]
    coupled = (u != 0.0) | (z != 0.0) | (w != 0.0)  # 0-d where c is constant on the block
    refine = screened = np.flatnonzero(())
    if coupled.any():
        lower = _gershgorin_lower(entries, scale)
        # a node's interlacing bound is at least its Gershgorin bound, so only
        # nodes with lower <= upper can lower upper; the lowest one seeds it.
        # fmin: a NaN bound lowers nothing
        seed = [np.argmin(lower)]
        upper = np.fmin(upper, _interlacing_upper(_take(entries, seed), scale[seed])[0])
        near = np.flatnonzero(lower <= upper)
        upper = np.fmin.reduce(_interlacing_upper(_take(entries, near), scale[near]), initial=upper)
        skip = (lower >= -tol * scale) & (lower > upper)
        refine, screened = np.flatnonzero(coupled & ~skip), np.flatnonzero(coupled & skip)
    estimate, converged = _lambda_min_estimates(entries, scale, refine)
    bound = estimate - BOUND_GAP * scale
    # an uncoupled node's estimate is exact, so only refined bounds need the test
    bounded = converged
    if refine.size:
        shift = -bound[refine] - SCHUR_EIG_SLACK * scale[refine]
        bounded[refine] &= _pd_after_shift(_take(entries, refine), shift)
    bound[~bounded] = -np.inf
    if screened.size:
        estimate[screened] = bound[screened] = lower[screened]
    passed = bounded & (bound >= -tol * scale)
    failed = np.zeros_like(passed)
    open_nodes = np.flatnonzero(~passed)
    if open_nodes.size:
        part, part_scale = _take(entries, open_nodes), scale[open_nodes]
        passed[open_nodes] = _pd_after_shift(part, (tol - SCHUR_EIG_SLACK) * part_scale)
        failed[open_nodes] = _indefinite_after_shift(part, (tol + SCHUR_EIG_SLACK) * part_scale)
    return estimate, bound, passed, failed, upper


def cone_membership(
    el: AlgebraElement, dirac: DiracData, region: RegionGrid, tol: float = PSD_TOL
) -> MembershipReport:
    """Test the PSD condition at every grid node, row-major in t.

    The report equals the one eigvalsh on every node's matrix would give:
    each node's verdict is _psd_at_nodes's, and min_eigenvalue and the
    first violation's eigenvalue are eigvalsh values.  But eigvalsh runs on
    few nodes.  Working on the seven entries of _cone_entries, one block of
    _grid_blocks at a time, each stage runs only on the nodes whose verdict
    or report it can change (the first three steps are _block_membership):

    - screen: an uncoupled node (u = z = w = 0) is diagonal, and its
      smallest diagonal entry is its eigenvalue.  At the coupled nodes the
      Gershgorin bound G (_gershgorin_lower) is a lower bound, and the least
      interlacing bound (_interlacing_upper) lowers U, an upper bound on
      the grid minimum.  A coupled node with G >= -tol*s and G > U skips
      the next step with L = G;
    - Newton: every other coupled node gets an estimate of its smallest
      eigenvalue from _lambda_min_estimates, and _pd_after_shift must
      certify the lower bound L = estimate - BOUND_GAP*s (at an uncoupled
      node L needs no certificate); L = -inf where that or Newton fails;
    - Schur: a node passes when L >= -tol*s or when _pd_after_shift clears
      it at shift (tol - SCHUR_EIG_SLACK)*s, and fails when
      _indefinite_after_shift refutes it at (tol + SCHUR_EIG_SLACK)*s; the
      rest are undecided;
    - eigvalsh at the block's node with the smallest estimate lowers U
      further.  The minimum lies among the nodes with L <= U, so the block
      keeps the entries of those, of its undecided nodes and of the first
      certain violation of the grid.

    After the walk, eigvalsh runs once on the kept nodes whose L is at most
    the final U, the undecided ones and the first certain violation; nodes
    with identical entries are diagonalised once.

    The screen is sound: every L is a rigorous lower bound on its node's
    eigvalsh value and U a rigorous upper bound on the grid minimum, both
    with SCHUR_EIG_SLACK*s to spare for rounding.  A skipped node's
    eigenvalue is at least G >= -tol*s, so it passes, and G is above U,
    so the node cannot hold the grid minimum, and its L = G keeps it out of
    the final eigvalsh.

    Raises DomainError annotated with the offending node when a field, one
    of its partials, or an entry of the matrix cannot be evaluated to a
    finite number somewhere on the grid, and EigenvalueRangeError naming
    the first node of the grid minimum when that minimum is not finite (an
    eigenvalue below -1.8e308 overflows, although every entry is finite).
    """
    region.axes()  # the axes first: they refuse a grid too large to allocate
    n = region.nt * region.nx
    try:
        passed = np.empty(n, dtype=bool)
    except (MemoryError, ValueError) as err:
        raise region._too_large() from err
    upper = np.inf  # an eigvalsh or interlacing bound at some node, so the grid minimum is at most this
    first_failed = -1
    kept = []  # per block: (nodes, bounds, undecided flags, entries) of the nodes eigvalsh may need
    for start, entries in _grid_blocks(el, dirac, region):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            estimate, bound, block_passed, failed, upper = _block_membership(entries, tol, upper)
        passed[start : start + len(bound)] = block_passed
        lowest = _take(entries, [np.argmin(estimate)])
        upper = np.minimum(upper, _psd_at_nodes(_matrices(lowest), tol)[0][0])
        undecided = ~(block_passed | failed)
        need = undecided | ~(bound > upper)
        if first_failed < 0 and failed.any():
            first_failed = start + int(np.argmax(failed))
            need[first_failed - start] = True
        nodes = np.flatnonzero(need)
        parts = (np.full(nodes.shape, part) if np.ndim(part) == 0 else part for part in _take(entries, nodes))
        kept.append((start + nodes, bound[nodes], undecided[nodes], *parts))
    nodes, bound, undecided, *parts = (np.concatenate(column) for column in zip(*kept))
    need = undecided | ~(bound > upper) | (nodes == first_failed)
    nodes, undecided, parts = nodes[need], undecided[need], _take(parts, need)
    min_eigs, node_passed = _psd_at_distinct_nodes(parts, tol)
    passed[nodes[undecided]] = node_passed[undecided]
    min_eigenvalue = float(min_eigs.min())
    if not math.isfinite(min_eigenvalue):
        node = region.node(int(nodes[np.argmin(min_eigs)]))
        raise EigenvalueRangeError(
            f"smallest cone matrix eigenvalue {min_eigenvalue} at grid node (t={node.t}, x={node.x})"
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
        n_nodes=n,
        n_violations=n_violations,
    )


def certify_grid_psd(
    el: AlgebraElement, dirac: DiracData, region: RegionGrid, tol: float = PSD_TOL
) -> bool:
    """Fast membership decision over the grid, equal to cone_membership's verdict.

    Needs only the verdict, not the smallest eigenvalue, so it runs only the
    pass side of cone_membership: _pd_after_shift at shift
    (tol - SCHUR_EIG_SLACK)*s clears nodes on the entry arrays, building no
    4x4 matrices.  The test is one-sided: it never clears a node eigvalsh
    would reject, and a node it does not clear is not thereby a violation.
    Those nodes alone are assembled and get the per-node rule _psd_at_nodes,
    so True and False both match cone_membership(...).member_on_grid (False
    where cone_membership raises EigenvalueRangeError).  It walks the same
    blocks as cone_membership, and after a violation it only evaluates the
    remaining blocks, so it raises the same node-annotated DomainError.
    """
    verdict = True
    for _, entries in _grid_blocks(el, dirac, region):
        if not verdict:
            continue
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cleared = _pd_after_shift(entries, (tol - SCHUR_EIG_SLACK) * _node_scales(entries))
        open_nodes = np.flatnonzero(~cleared)
        if open_nodes.size:
            verdict = bool(_psd_at_nodes(_matrices(_take(entries, open_nodes)), tol)[1].all())
    return verdict

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

Two paths decide it.  cone_membership runs eigvalsh on every node's matrix,
because its report gives the smallest eigenvalue on the grid.
certify_grid_psd needs only the verdict, so it uses the block structure
instead: with Da = diag(a0+a1, a0-a1), Db = diag(b0+b1, b0-b1) and C the
upper right 2x2 block, the matrix is positive definite iff Da > 0 and the
2x2 Schur complement Db - C* Da^-1 C is.  That test works on the field
partials directly.  It is one-sided: it clears a node only when every
rounded quantity clears a relative band and the margin also covers
eigvalsh's own rounding, so it can answer "member" but never "violation".
A node it cannot clear goes to the same per-node eigvalsh test as
cone_membership, so both paths give the same verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fields
from .fields import DomainError, FieldExpr, eval_grid, parse, to_source
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


class UnequalDiagonalError(ValueError):
    """The sufficient membership test needs structurally identical diagonal fields."""


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
        c = data.get("c", {"re": "0", "im": "0"})
        return cls.from_sources(str(data["a"]), str(data["b"]), str(c["re"]), str(c["im"]))


def add_elements(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """Entrywise sum of two elements (the cone is convex under it)."""
    plus = lambda u, v: fields.BinOp("+", u, v)
    return AlgebraElement(
        plus(e1.a, e2.a), plus(e1.b, e2.b), plus(e1.c_re, e2.c_re), plus(e1.c_im, e2.c_im)
    )


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

    def __post_init__(self) -> None:
        if not (self.t_min < self.t_max and self.x_min < self.x_max):
            raise ValueError("grid bounds must be ordered")
        if self.nt < 2 or self.nx < 2:
            raise ValueError("grid needs at least 2 nodes per axis")

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened node coordinates, t-major then x."""
        t = np.linspace(self.t_min, self.t_max, self.nt)
        x = np.linspace(self.x_min, self.x_max, self.nx)
        tt, xx = np.meshgrid(t, x, indexing="ij")
        return tt.ravel(), xx.ravel()

    def node(self, flat_index: int) -> SpacetimePoint:
        i, j = divmod(flat_index, self.nx)
        t = self.t_min + (self.t_max - self.t_min) * i / (self.nt - 1)
        x = self.x_min + (self.x_max - self.x_min) * j / (self.nx - 1)
        return SpacetimePoint(t, x)

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


def _element_jets(el: AlgebraElement, t, x):
    """Derivative data of all four fields at the given coordinates.

    Returns (a0p, a0m, b0p, b0m, c, c0, c1) where a0p = a_t + a_x etc. and
    the c entries are complex (value, d/dt, d/dx).
    """
    av, adt, adx = eval_grid(el.a, t, x)
    bv, bdt, bdx = eval_grid(el.b, t, x)
    rv, rdt, rdx = eval_grid(el.c_re, t, x)
    iv, idt, idx = eval_grid(el.c_im, t, x)
    c = rv + 1j * iv
    c0 = rdt + 1j * idt
    c1 = rdx + 1j * idx
    return adt + adx, adt - adx, bdt + bdx, bdt - bdx, c, c0, c1


def _cone_entries(el: AlgebraElement, t, x, delta: float):
    """The seven distinct entries of the cone matrix at the given coordinates.

    Returns (ap, am, bp, bm, u, z, w) = (a_t + a_x, a_t - a_x, b_t + b_x,
    b_t - b_x, c_t + c_x, c_t - c_x, delta*c); C = [[-u, -w], [w, -z]].
    These sums and products of finite partials can overflow: DomainError
    then names the field and carries the index of its first such node.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ap, am, bp, bm, c, c0, c1 = _element_jets(el, t, x)
        u, z, w = c0 + c1, c0 - c1, delta * c
    for expr, parts in (
        (el.a, (ap, am)),
        (el.b, (bp, bm)),
        (el.c_re, (u.real, z.real, w.real)),
        (el.c_im, (u.imag, z.imag, w.imag)),
    ):
        finite = np.logical_and.reduce([np.isfinite(part) for part in parts])
        if not finite.all():
            raise DomainError("non-finite cone matrix entry", expr, int(np.argmin(finite)))
    return ap, am, bp, bm, u, z, w


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
    scale = max(1, largest absolute entry); a NaN eigenvalue fails.
    """
    min_eigs = np.linalg.eigvalsh(mats)[:, 0]
    scales = np.maximum(1.0, np.abs(mats).reshape(mats.shape[0], -1).max(axis=1))
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
    """
    if el.a != el.b:
        raise UnequalDiagonalError("a and b must be the same expression")
    ap, am, _, _, c, c0, c1 = _element_jets(el, np.atleast_1d(p.t), np.atleast_1d(p.x))
    a_t = 0.5 * (ap[0] + am[0])
    a_x = 0.5 * (ap[0] - am[0])
    lhs = a_t - abs(a_x)
    rhs = abs(c0[0]) + abs(c1[0]) + dirac.gap * abs(c[0])
    return bool(lhs >= rhs - LEMMA_SLACK)


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


def _grid_entries(el: AlgebraElement, dirac: DiracData, region: RegionGrid):
    """Cone matrix entries (see _cone_entries) at every node of the region, row-major in t.

    A DomainError raised at a known node is re-raised naming that grid node.
    """
    t, x = region.mesh()
    try:
        return _cone_entries(el, t, x, dirac.d1 - dirac.d2)
    except DomainError as err:
        if err.index is None:
            raise
        node = region.node(err.index)
        raise DomainError(
            f"{err.args[0].split(' in ')[0]} at grid node (t={node.t}, x={node.x})", err.expr
        ) from err


def cone_membership(
    el: AlgebraElement, dirac: DiracData, region: RegionGrid, tol: float = PSD_TOL
) -> MembershipReport:
    """Test the PSD condition at every grid node, row-major in t.

    Runs eigvalsh on every node's matrix, not the Schur test of
    certify_grid_psd, because the report promises the smallest eigenvalue
    anywhere on the grid, which only the eigenvalues give.

    Raises DomainError annotated with the offending node when a field, one
    of its partials, or an entry of the matrix cannot be evaluated to a
    finite number somewhere on the grid.
    """
    mats = _matrices(_grid_entries(el, dirac, region))
    min_eigs, passed = _psd_at_nodes(mats, tol)
    n_violations = int((~passed).sum())
    first: Optional[GridViolation] = None
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


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _schur_clears(entries, tol: float) -> np.ndarray:
    """Nodes whose matrix M is certainly PSD up to tol, by the Schur test.

    With s = max(1, largest |entry|) per node, tests M + shift*I positive
    definite for shift = (tol - SCHUR_EIG_SLACK)*s: p, q = Da + shift > 0 and
    the Schur complement S = Db + shift - C* diag(p, q)^-1 C has S11, S22 and
    det S positive.  A cleared node therefore has lambda_min(M) >= -tol*s +
    SCHUR_EIG_SLACK*s, which eigvalsh's rounding cannot push below -tol*s.

    p and q are single rounded sums, so their signs are exact.  S11, S22 and
    det S are not: each must exceed SCHUR_BAND times the sum of the
    magnitudes it combines (det S against S11*S22 + |S12|^2), so rounding
    and cancellation can never make a node that is not positive definite
    look like one.  Non-finite intermediates compare False and never clear.
    """
    ap, am, bp, bm, u, z, w = entries  # C = [[-u, -w], [w, -z]], as _matrices builds it
    uu, zz, ww = _abs2(u), _abs2(z), _abs2(w)
    scale = np.maximum(np.maximum(np.abs(ap), np.abs(am)), np.maximum(np.abs(bp), np.abs(bm)))
    scale = np.maximum(np.maximum(scale, 1.0), np.sqrt(np.maximum(np.maximum(uu, zz), ww)))
    shift = (tol - SCHUR_EIG_SLACK) * scale
    p, q = ap + shift, am + shift
    g1, g2 = uu / p, ww / q  # diagonal of C* diag(p, q)^-1 C
    h1, h2 = ww / p, zz / q
    s11 = bp + shift - g1 - g2
    s22 = bm + shift - h1 - h2
    s12sq = _abs2(np.conj(u) * w / p - np.conj(w) * z / q)
    shift_mag = np.abs(shift)
    prod = s11 * s22
    return (
        (p > 0.0)
        & (q > 0.0)
        & (s11 > SCHUR_BAND * (np.abs(bp) + shift_mag + g1 + g2))
        & (s22 > SCHUR_BAND * (np.abs(bm) + shift_mag + h1 + h2))
        & (prod - s12sq > SCHUR_BAND * (prod + s12sq))
    )


def certify_grid_psd(
    el: AlgebraElement, dirac: DiracData, region: RegionGrid, tol: float = PSD_TOL
) -> bool:
    """Fast membership decision over the grid, equal to cone_membership's verdict.

    Clears nodes with the closed-form Schur test of _schur_clears, which
    works on the entry arrays and builds no 4x4 matrices.  The test is
    one-sided: it clears a node only with a margin (a shift tol*s less
    SCHUR_EIG_SLACK*s, and a relative band on every rounded quantity), so
    it never clears a node eigvalsh would reject.  A node it does not clear
    is not thereby a violation: those nodes alone are assembled and get
    cone_membership's own per-node rule, _psd_at_nodes, so
    True and False both match cone_membership(...).member_on_grid.
    Raises the same node-annotated DomainError as cone_membership.
    """
    entries = _grid_entries(el, dirac, region)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        open_nodes = np.flatnonzero(~_schur_clears(entries, tol))
    if open_nodes.size == 0:
        return True
    return bool(_psd_at_nodes(_matrices([part[open_nodes] for part in entries]), tol)[1].all())

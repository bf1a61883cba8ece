"""Hypothesis strategies and exact references shared by the test modules."""

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from causalnc.cone import (
    PSD_TOL,
    AlgebraElement,
    EigenvalueRangeError,
    GridViolation,
    MembershipReport,
    RegionGrid,
    _grid_entries,
    _matrices,
    _psd_at_nodes,
)
from causalnc.fields import FUNCTIONS, BinOp, Call, Neg, Num, Pow, Var
from causalnc.states import DiracData


def field_trees(literals=()):
    """Random field expressions in parser normal form: literals are non-negative
    and minus lives in Neg nodes.  Exponents up to 700 reach float overflow;
    the given literals join the leaves."""
    numbers = st.integers(0, 12).map(lambda k: Num(k / 4))
    if literals:
        numbers = st.one_of(numbers, st.sampled_from([Num(value) for value in literals]))
    return st.recursive(
        st.one_of(st.sampled_from((Var("t"), Var("x"))), numbers),
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
            st.builds(Pow, sub, st.sampled_from((-1, 0, 2, 3, 700))),
            st.builds(Call, st.sampled_from(FUNCTIONS), sub),
        ),
        max_leaves=6,
    )


FIELD_TREES = field_trees()


def exact_proper_time(p, q) -> Decimal:
    """sqrt((q.t - p.t)^2 - (q.x - p.x)^2) in decimal at 60 digits, on the coordinates as exact binary values.

    The separation and the difference of its squares are exact Fractions;
    only the quotient and the square root round, each to 60 digits.
    """
    dt, dx = Fraction(q.t) - Fraction(p.t), Fraction(q.x) - Fraction(p.x)
    square = dt * dt - dx * dx
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()


#: a column of t and a row of x; 2.74 and 2.75 lie where t^700 is finite and 700 t^699 is not
EXACT_T = np.array([-3.0, -1.25, 0.0, 0.5, 2.74, 2.75, 3.0])[:, None]
EXACT_X = np.array([-2.75, -0.75, 0.0, 1.0, 2.8])[None, :]


#: (sign, permutation) pairs of Leibniz's rule for k x k determinants, k = 1..4
_LEIBNIZ = {
    k: [
        ((-1) ** sum(perm[a] > perm[b] for a, b in itertools.combinations(range(k), 2)), perm)
        for perm in itertools.permutations(range(k))
    ]
    for k in range(1, 5)
}


def _exactly_psd(entries, shift: Fraction) -> bool:
    """Whether the cone matrix of one node's rounded entries, plus shift*I, is PSD in exact arithmetic.

    A Hermitian matrix is PSD iff every elementary symmetric polynomial of
    its eigenvalues, the sum of its k x k principal minors, is >= 0.  Each
    minor is expanded by Leibniz's rule over (real, imaginary) pairs.  The
    real and imaginary parts are Fractions with power-of-two denominators,
    so all of them are taken to the largest one as integers: that scales
    the k-th polynomial by a positive factor, and no sign changes.
    """
    ap, am, bp, bm, u, z, w = (complex(part) for part in entries)
    upper = [[ap, 0j, -u, -w], [0j, am, w, -z], [0j, 0j, bp, 0j], [0j, 0j, 0j, bm]]
    parts = {}
    for i, j in itertools.combinations_with_replacement(range(4), 2):
        parts[i, j] = (Fraction(upper[i][j].real) + (shift if i == j else 0), Fraction(upper[i][j].imag))
    denominator = max(f.denominator for pair in parts.values() for f in pair)
    m = [[None] * 4 for _ in range(4)]
    for (i, j), (re, im) in parts.items():
        re, im = (f.numerator * (denominator // f.denominator) for f in (re, im))
        m[i][j], m[j][i] = (re, im), (re, -im)
    for k in range(1, 5):
        e_re = e_im = 0
        for rows in itertools.combinations(range(4), k):
            for sign, perm in _LEIBNIZ[k]:
                re, im = sign, 0
                for row, col in zip(rows, perm):
                    x_re, x_im = m[row][rows[col]]
                    re, im = re * x_re - im * x_im, re * x_im + im * x_re
                    if not (re or im):
                        break
                e_re, e_im = e_re + re, e_im + im
        assert e_im == 0  # principal minors of a Hermitian matrix are real
        if e_re < 0:
            return False
    return True


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

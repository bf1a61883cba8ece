"""Which field-valued matrices generate the causal order?

A Hermitian element [[a, -c], [-c*, b]] of the algebra is causal exactly
when a 4x4 matrix built from the field derivatives and the Dirac gap is
positive semi-definite at every event.  The membership test samples that
condition on a grid: a violation at a node is an exact disproof, membership
holds up to the grid resolution.
"""

from causalnc import (
    AlgebraElement,
    DiracData,
    RegionGrid,
    SpacetimePoint,
    cone_matrix_at,
    cone_membership,
    conformal_rescale_matrix,
    is_psd,
    lemma_sufficient_check,
)

dirac = DiracData(0.0, 1.0)
grid = RegionGrid(-3.0, 3.0, -3.0, 3.0, 41, 41)

candidates = {
    "diag(t, t)  — time itself": AlgebraElement.from_sources("t", "t"),
    "diag(x, x)  — a spatial gradient": AlgebraElement.from_sources("x", "x"),
    "diag(tanh(t+x) + tanh(t-x), t)": AlgebraElement.from_sources(
        "tanh(t + x) + tanh(t - x)", "t"
    ),
    "sloped diagonal + Gaussian wave": AlgebraElement.from_sources(
        "3.0*t",
        "3.0*t",
        "0.2*exp(-(t^2 + x^2))*cos(t)",
        "0.2*exp(-(t^2 + x^2))*sin(t)",
    ),
}

for label, element in candidates.items():
    report = cone_membership(element, dirac, grid)
    line = f"member: {str(report.member_on_grid):>5}  min eigenvalue {report.min_eigenvalue:+.3e}"
    if report.first_violation is not None:
        p = report.first_violation.point
        line += f"  first violation at (t={p.t}, x={p.x})"
    print(f"{label:45s} {line}")

print("\nThe equal-diagonal sufficient bound certifies the last element pointwise:")
wave = candidates["sloped diagonal + Gaussian wave"]
for t, x in [(0.0, 0.0), (0.5, -1.0), (2.0, 2.0)]:
    print(f"  at ({t}, {x}): {lemma_sufficient_check(wave, dirac, SpacetimePoint(t, x))}")

print("\nConformal rescaling never changes a verdict (it scales the matrix by omega^2):")
matrix = cone_matrix_at(candidates["diag(x, x)  — a spatial gradient"], dirac, SpacetimePoint(0, 0))
for omega in (0.001, 0.5, 2.0, 1000.0):
    print(f"  omega = {omega:>7}: PSD = {is_psd(conformal_rescale_matrix(matrix, omega))}")

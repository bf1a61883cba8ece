"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion k is check k of the verification battery in causalnc.selftest, run
here at full scale (fixed seeds, full counts, grids and tolerances); the
CLI's selftest runs the same checks at reduced scale.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines; the
whole battery is sized for well under a minute on a laptop.
"""

from causalnc.selftest import BATTERY, run_check

DESCRIPTIONS = (
    "pure-state oracle matches sqrt(T^2-dx^2) >= dtheta/gap on the 20x20x20x5 grid",
    "latitude, degeneracy and spacetime-order necessary conditions (3 x 1000 pairs)",
    "lightlike separation forbids internal motion (100 pairs)",
    "witness certificates for 100 non-related pairs: strict margin, coefficients, element lhs",
    "10^4 certified causal elements never separate 100 related pairs",
    "reflexivity, antisymmetry and transitivity on 1000 same-latitude triples",
    "mixed oracle agrees with the pure oracle on 1000 unit-Bloch pairs",
    "verdicts invariant under 100 unitaries x 100 pairs",
    "PSD verdict invariant under conformal rescaling on 1000 matrices x 5 factors",
    "dual-number partials match central differences on 50 expressions x 100 points",
    "every path prefix is itself causally related (100 pairs, n=32)",
)


def _report(number: int) -> None:
    description = DESCRIPTIONS[number - 1]
    result = run_check(BATTERY[number - 1].name)
    status = "PASS" if result["passed"] else "FAIL"
    suffix = f" ({result['detail']})" if result["detail"] else ""
    print(f"{status}: criterion {number} - {description}{suffix}")
    assert result["passed"], f"criterion {number}: {description}{suffix}"


def test_criterion_1_pure_oracle_exactness():
    _report(1)


def test_criterion_2_necessary_condition_suites():
    _report(2)


def test_criterion_3_null_geodesic_lockout():
    _report(3)


def test_criterion_4_witness_refutation_completeness():
    _report(4)


def test_criterion_5_oracle_never_separates_related_pairs():
    _report(5)


def test_criterion_6_order_axioms():
    _report(6)


def test_criterion_7_mixed_pure_consistency():
    _report(7)


def test_criterion_8_unitary_equivariance():
    _report(8)


def test_criterion_9_conformal_invariance():
    _report(9)


def test_criterion_10_dsl_derivative_fidelity():
    _report(10)


def test_criterion_11_path_planner_feasibility():
    _report(11)

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalnc.fields import (
    MAX_DEPTH,
    BinOp,
    DomainError,
    Neg,
    Num,
    ParseError,
    Pow,
    Var,
    _check,
    jet,
    memo_entry,
    parse,
    to_source,
)
from strategies import EXACT_T, EXACT_X, FIELD_TREES


def test_parse_example_tree():
    assert parse("t + 2*x") == BinOp("+", Var("t"), BinOp("*", Num(2.0), Var("x")))


def test_parse_round_trip_examples():
    for src in (
        "sin(t)*exp(-x^2)",
        "t + 2*x",
        "-t^2",
        "(-t)^2",
        "1 - 2 - 3",
        "t/(x + 3)/2",
        "csc(t + 2)",
        "atan(t*x) + tanh(x)",
        "2.5e-3*t",
        "t^-2 + x^3",
    ):
        tree = parse(src)
        assert parse(to_source(tree)) == tree


def test_malformed_input_offset():
    with pytest.raises(ParseError) as err:
        parse("t + * x")
    assert err.value.offset == 4

    with pytest.raises(ParseError):
        parse("t + (x")
    with pytest.raises(ParseError):
        parse("")


@pytest.mark.parametrize(
    "src, message",
    [
        ("t $ x", "unexpected character '$' at offset 2"),
        # '²' is a digit to str.isdigit but not to float()
        ("t + 2²", "unexpected character '²' at offset 5"),
        ("t x", "unexpected token 'x' at offset 2 (expected one of: operator, end of input)"),
        ("sin(t))", "unexpected token ')' at offset 6 (expected one of: operator, end of input)"),
        ("t^2^-1", "chained exponent must stay integral at offset 3 (expected one of: integer)"),
    ],
)
def test_refusals_name_their_cause_and_offset(src, message):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == message


@settings(max_examples=500)
@given(st.text())
def test_parse_returns_a_tree_or_raises_parse_error(src):
    try:
        parse(src)
    except ParseError:
        pass


@pytest.mark.parametrize(
    "src, offset",
    [
        ("-" * 1200 + "t", MAX_DEPTH),
        ("(" * 1200 + "t" + ")" * 1200, MAX_DEPTH),
        ("sin(" * 1200 + "t" + ")" * 1200, 4 * MAX_DEPTH),
        ("t" + "^1" * 1200, 2 * MAX_DEPTH + 1),
        ("t" + "+t" * 5000, 2 * MAX_DEPTH - 1),
        ("-" * MAX_DEPTH + "t", 0),  # nesting at the bound, tree one level taller
    ],
    ids=("minus", "parentheses", "calls", "exponents", "sum", "tree"),
)
def test_nesting_or_tree_height_beyond_max_depth_is_refused(src, offset):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == f"expression nested deeper than {MAX_DEPTH} levels at offset {offset}"


def test_the_deepest_trees_parse_print_evaluate_and_compare_within_half_the_recursion_limit():
    limit = sys.getrecursionlimit()
    sources = (
        "(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
        "-" * (MAX_DEPTH - 1) + "t",
        "t" + "+t" * (MAX_DEPTH - 1),
        "t" + "-(t" * (MAX_DEPTH - 1) + ")" * (MAX_DEPTH - 1),
        "sin(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
    )
    sys.setrecursionlimit(limit // 2)
    try:
        for src in sources:
            tree = parse(src)
            assert parse(to_source(tree)) == tree
            assert np.isfinite(jet(tree, 0.5, 0.25)).all()
    finally:
        sys.setrecursionlimit(limit)


def test_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("t + y")
    assert "y" in str(err.value)
    with pytest.raises(ParseError):
        parse("sinh(t)")


def test_exponent_must_be_integer_literal():
    with pytest.raises(ParseError):
        parse("t^x")
    with pytest.raises(ParseError):
        parse("t^2.5")
    with pytest.raises(ParseError):
        parse("t^(2)")
    assert parse("t^-2") == Pow(Var("t"), -2)
    # right-associative literal chain folds: 2^(3^2)
    assert parse("x^2^3") == Pow(Var("x"), 8)


def test_exponent_beyond_any_float_is_refused():
    assert parse("t^2^1023") == Pow(Var("t"), 2**1023)  # still a float: evaluation decides
    for src in ("t^700^700", "t^2^1024", "t^-2^1024", "t^" + "9" * 400, "t^" + "9" * 5000):
        with pytest.raises(ParseError, match="exponent too large for a float power"):
            parse(src)


def test_precedence_and_associativity():
    assert parse("-t^2") == Neg(Pow(Var("t"), 2))
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))
    assert parse("2*t + x") == BinOp("+", BinOp("*", Num(2.0), Var("t")), Var("x"))
    assert parse("2 * -t") == BinOp("*", Num(2.0), Neg(Var("t")))


def test_whitespace_insensitive():
    assert parse(" t+2 * x ") == parse("t + 2*x")


def test_eval_variable_and_product_rule():
    assert jet(parse("t"), 3, 5) == (3.0, 1.0, 0.0)
    assert jet(parse("t*x"), 2, 7) == (14.0, 7.0, 2.0)


def _central_difference(expr, t, x, h=1e-5):
    f = lambda tt, xx: jet(expr, tt, xx)[0]
    return (
        (f(t + h, x) - f(t - h, x)) / (2 * h),
        (f(t, x + h) - f(t, x - h)) / (2 * h),
    )


def test_example_expression_matches_finite_differences():
    expr = parse("sin(t)*exp(-x^2)")
    value, d_dt, d_dx = jet(expr, 1.0, 0.5)
    fd_t, fd_x = _central_difference(expr, 1.0, 0.5)
    assert d_dt == pytest.approx(fd_t, rel=1e-6)
    assert d_dx == pytest.approx(fd_x, rel=1e-6)
    # sanity against the closed form
    assert value == pytest.approx(math.sin(1.0) * math.exp(-0.25))
    assert d_dt == pytest.approx(math.cos(1.0) * math.exp(-0.25))
    assert d_dx == pytest.approx(-2 * 0.5 * math.sin(1.0) * math.exp(-0.25))


SAFE_SOURCES = [
    "t^2 - 3*x + 1",
    "sin(2*t) * cos(x)",
    "tanh(t + x) + tanh(t - x)",
    "exp(-(t^2 + x^2)) * sin(3*t)",
    "atan(t*x)",
    "sqrt(4 + t^2)",
    "log(2.5 + sin(x))",
    "csc(2 + cos(t))",
    "(t + x)^3 / (5 + x^2)",
    "1/(2 + t^2) - x^-2",
]


def test_dual_partials_agree_with_finite_differences():
    rng = np.random.default_rng(101)
    for src in SAFE_SOURCES:
        expr = parse(src)
        for _ in range(100):
            t = rng.uniform(-1.5, 1.5)
            x = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
            _, d_dt, d_dx = jet(expr, t, x)
            fd_t, fd_x = _central_difference(expr, t, x)
            for ad, fd in ((d_dt, fd_t), (d_dx, fd_x)):
                assert abs(ad - fd) <= max(1e-6 * max(abs(ad), abs(fd)), 1e-8), (src, t, x)


def test_grid_eval_matches_scalar_eval():
    expr = parse("sin(t)*exp(-x^2) + t*x")
    t = np.linspace(-1, 1, 7)
    x = np.linspace(-2, 2, 7)
    values, d_dt, d_dx = jet(expr, t, x)
    for i in range(7):
        single = jet(expr, t[i], x[i])
        assert values[i] == pytest.approx(single[0], abs=1e-15)
        assert d_dt[i] == pytest.approx(single[1], abs=1e-15)
        assert d_dx[i] == pytest.approx(single[2], abs=1e-15)


def test_constant_parts_stay_0d():
    t = np.linspace(-1.0, 1.0, 5)
    x = np.zeros(5)
    parts = jet(parse("3.5"), t, x)
    assert parts == (3.5, 0.0, 0.0)
    assert all(np.ndim(part) == 0 for part in parts)  # not copied out to the full size
    values, d_dt, d_dx = jet(parse("t*x + sin(t)"), t, x)
    assert values.shape == d_dt.shape == d_dx.shape == (5,)
    assert jet(parse("t"), t, x)[0].tolist() == t.tolist()
    assert t.flags.writeable and x.flags.writeable  # the inputs themselves stay writable


def test_domain_errors_name_subexpression():
    with pytest.raises(DomainError) as err:
        jet(parse("log(t)"), -1.0, 0.0)
    assert "log(t)" in str(err.value)

    with pytest.raises(DomainError):
        jet(parse("sqrt(x)"), 0.0, -2.0)
    with pytest.raises(DomainError):
        jet(parse("1/x"), 0.0, 0.0)
    with pytest.raises(DomainError):
        jet(parse("csc(t)"), 0.0, 1.0)
    with pytest.raises(DomainError):
        jet(parse("t^-1"), 0.0, 1.0)


def test_domain_error_reports_first_bad_grid_index():
    t = np.array([1.0, 2.0, -3.0, 4.0])
    with pytest.raises(DomainError) as err:
        jet(parse("log(t)"), t, np.zeros(4))
    assert err.value.index == 2


def test_integer_power_semantics():
    value, _, d_dx = jet(parse("x^-2"), 0.0, 2.0)
    assert value == pytest.approx(0.25)
    assert d_dx == pytest.approx(-2 * 2.0**-3)
    assert jet(parse("x^0"), 0.0, 3.0)[0] == 1.0
    # negative bases stay exact for integer exponents
    assert jet(parse("x^3"), 0.0, -2.0)[0] == -8.0


def test_evaluation_is_deterministic():
    expr = parse("sin(t)*exp(-x^2) + csc(2 + cos(t))")
    assert jet(expr, 0.3, -0.7) == jet(expr, 0.3, -0.7)


@settings(max_examples=200)
@given(FIELD_TREES)
def test_print_parse_identity_on_random_trees(tree):
    assert parse(to_source(tree)) == tree


def _reference_eval(e, t, x, shape):
    """The dual-number walk with every partial built: the results jet must equal."""
    if isinstance(e, Num):
        return np.float64(e.value), 0.0, 0.0
    if isinstance(e, Var):
        if e.name == "t":
            return t, 1.0, 0.0
        return x, 0.0, 1.0
    if isinstance(e, Neg):
        v, dt, dx = _reference_eval(e.arg, t, x, shape)
        return -v, -dt, -dx
    if isinstance(e, BinOp):
        av, adt, adx = _reference_eval(e.lhs, t, x, shape)
        bv, bdt, bdx = _reference_eval(e.rhs, t, x, shape)
        if e.op == "+":
            return av + bv, adt + bdt, adx + bdx
        if e.op == "-":
            return av - bv, adt - bdt, adx - bdx
        if e.op == "*":
            return av * bv, adt * bv + av * bdt, adx * bv + av * bdx
        _check(np.asarray(bv) != 0.0, "division by zero", e, shape)
        inv = 1.0 / bv
        v = av * inv
        return v, (adt - v * bdt) * inv, (adx - v * bdx) * inv
    if isinstance(e, Pow):
        bv, bdt, bdx = _reference_eval(e.base, t, x, shape)
        n = e.exponent
        if n == 0:
            return bv * 0.0 + 1.0, 0.0, 0.0
        if n < 0:
            _check(np.asarray(bv) != 0.0, "zero base with negative exponent", e, shape)
        v = bv ** float(n)
        g = float(n) * bv ** float(n - 1)
        return v, g * bdt, g * bdx
    av, adt, adx = _reference_eval(e.arg, t, x, shape)
    if e.func == "sin":
        v, g = np.sin(av), np.cos(av)
    elif e.func == "cos":
        v, g = np.cos(av), -np.sin(av)
    elif e.func == "tan":
        v = np.tan(av)
        g = 1.0 + v * v
    elif e.func == "exp":
        v = np.exp(av)
        g = v
    elif e.func == "log":
        _check(np.asarray(av) > 0.0, "log of a non-positive value", e, shape)
        v, g = np.log(av), 1.0 / av
    elif e.func == "sqrt":
        _check(np.asarray(av) > 0.0, "sqrt of a non-positive value", e, shape)
        v = np.sqrt(av)
        g = 0.5 / v
    elif e.func == "tanh":
        v = np.tanh(av)
        g = 1.0 - v * v
    elif e.func == "atan":
        v = np.arctan(av)
        g = 1.0 / (1.0 + av * av)
    else:
        s = np.sin(av)
        _check(np.asarray(s) != 0.0, "csc at a zero of sin", e, shape)
        v = 1.0 / s
        g = -v * v * np.cos(av)
    _check(np.isfinite(np.asarray(v)), "non-finite value", e, shape)
    return v, g * adt, g * adx


def _reference_jet(e, t, x):
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(t.shape, x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        jet = _reference_eval(e, t, x, shape)
    finite = np.isfinite(jet[0]) & np.isfinite(jet[1]) & np.isfinite(jet[2])
    if not finite.all():
        _check(np.broadcast_to(finite, shape), "non-finite value or partial", e, shape)
    return jet


def _walk(walk, tree, t=EXACT_T, x=EXACT_X):
    try:
        v, dt, dx = walk(tree, t, x)
    except DomainError as err:
        return str(err), err.index
    shape = np.broadcast_shapes(np.shape(t), np.shape(x))
    return tuple(np.broadcast_to(np.asarray(part, dtype=float), shape) for part in (v, dt, dx))


def _assert_same_walk(tree, t=EXACT_T, x=EXACT_X):
    got, want = _walk(jet, tree, t, x), _walk(_reference_jet, tree, t, x)
    if isinstance(want[0], str) or isinstance(got[0], str):
        assert got == want, to_source(tree)
        return
    assert got[0].tobytes() == want[0].tobytes(), to_source(tree)  # values bit for bit
    for mine, ref in zip(got[1:], want[1:]):
        assert np.array_equal(mine, ref, equal_nan=True), to_source(tree)  # up to the sign of zero


@settings(max_examples=300, deadline=None)
@given(FIELD_TREES)
def test_walk_equals_the_reference_walk(tree):
    _assert_same_walk(tree)


@pytest.mark.parametrize(
    "src, t, x, index",
    (
        # a constant whose value is finite and whose partial overflows: 0*inf is NaN
        ("2.75^700", EXACT_T, EXACT_X, 0),
        ("-atan(x) / 3.0^700", EXACT_T, EXACT_X, 0),
        # t^0 reads t, so its partials stay real and 700*2.75^699 meets them
        ("(t^0*2.75)^700", EXACT_T, EXACT_X, 0),
        # a constant times a coordinate's value that is not finite everywhere
        ("atan(2*(t + (2.5^700)^2))", EXACT_T, EXACT_X, 0),
        ("atan(2*t)", np.array([1.0, np.inf]), np.zeros(2), 1),
        ("atan(x/2)", np.zeros(3), np.array([0.0, -np.inf, 1.0]), 1),
        # the benchmark's overflow input: 700 t^699 first overflows on the row t = 2.74
        ("t + 0*t^700", np.array([[2.0], [2.7], [2.74], [2.76]]), np.zeros((1, 3)), 6),
    ),
)
def test_structural_zeros_keep_the_nan_of_a_non_finite_factor(src, t, x, index):
    with pytest.raises(DomainError, match="non-finite value or partial") as err:
        jet(parse(src), t, x)
    assert err.value.index == index
    _assert_same_walk(parse(src), t, x)


#: t + x is 2.74 at node (2, 1) alone, where (t + x)^700 is finite and its partial 700 (t + x)^699 is not
INTERIOR_T = np.array([0.0, 1.0, 2.0])[:, None]
INTERIOR_X = np.array([0.5, 0.74, 0.5])[None, :]


@pytest.mark.parametrize(
    "src, t, x, index",
    (
        # finite value and partials whose sum, the root check's one test, overflows: no error
        ("1e308*t", np.array([0.5, 0.75, 1.0])[:, None], EXACT_X, None),
        ("1.5e308 + 1e308*t", np.array([-1.0, -0.75, -0.5]), np.zeros(3), None),
        ("-1e308*t - 1e308*x", np.array([0.25, 0.5])[:, None], np.array([0.5, 1.0])[None, :], None),
        # a partial that is inf at one interior node only
        ("(t + x)^700", INTERIOR_T, INTERIOR_X, 7),
        # a NaN partial beside a finite value: 0 times that infinite partial
        ("0*(t + x)^700", INTERIOR_T, INTERIOR_X, 7),
    ),
)
def test_root_check_falls_back_to_the_per_part_check(src, t, x, index):
    if index is None:
        jet(parse(src), t, x)
    else:
        with pytest.raises(DomainError, match="non-finite value or partial") as err:
            jet(parse(src), t, x)
        assert err.value.index == index
    _assert_same_walk(parse(src), t, x)


def test_partials_a_field_cannot_have_are_not_built():
    t, x = EXACT_T, EXACT_X
    v, dt, dx = jet(parse("2*tanh(t)"), t, x)
    assert dt.shape == t.shape and dx == 0.0  # no column of zeros on the x axis
    assert jet(parse("3"), t, x) == (3.0, 0.0, 0.0)
    # the unit partial of t is folded: tanh(t + x)'s partials are its g, bit for bit
    v, dt, dx = jet(parse("tanh(t + x)"), t, x)
    assert dt is dx and dt.tobytes() == (1.0 - v * v).tobytes()
    # and one object for both partials stays one: g*0.74 is formed once, not once per partial
    v, dt, dx = jet(parse("0.74*tanh(t + x) - tanh(t + x)"), t, x)
    assert dt is dx


def test_memo_entry_is_the_walk_made_read_only():
    t, x = np.linspace(-1.0, 1.0, 5)[:, None], np.linspace(-2.0, 2.0, 4)[None, :]
    node = parse("tanh(t + x)")
    stored, stored_t, stored_x, (v, (dt, dx)) = memo_entry(node, t, x)
    assert stored is node and stored_t is t and stored_x is x and dt is dx
    assert all(got.tobytes() == want.tobytes() for got, want in zip((v, dt, dx), jet(node, t, x)))
    assert not (v.flags.writeable or dt.flags.writeable)
    with pytest.raises(ValueError):
        v[0, 0] = 0.0


def test_memo_returns_an_entry_only_for_its_node_on_its_coordinates():
    t, x = np.linspace(-1.0, 1.0, 5)[:, None], np.linspace(-2.0, 2.0, 4)[None, :]
    node = parse("tanh(t + x)")
    # an entry that is not the walk's own result shows where the walk reads it
    poisoned = (node, t, x, (np.full((5, 4), 7.0), (np.ones((5, 4)), np.zeros((5, 4)))))
    memo = {id(node): poisoned}
    v, dt, dx = jet(node, t, x, memo)
    assert v is poisoned[3][0] and dt is poisoned[3][1][0] and dx is poisoned[3][1][1]
    assert jet(BinOp("*", Num(2.0), node), t, x, memo)[0].tolist() == [[14.0] * 4] * 5
    twin = parse("tanh(t + x)")
    assert twin == node and twin is not node
    fresh = jet(node, t, x)
    for misses in (jet(twin, t, x, memo), jet(node, t.copy(), x, memo), jet(node, t[0:], x, memo)):
        assert all(got.tobytes() == want.tobytes() for got, want in zip(misses, fresh))
    assert list(memo) == [id(node)] and memo[id(node)] is poisoned  # never written

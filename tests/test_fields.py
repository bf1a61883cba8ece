import math

import numpy as np
import pytest
from hypothesis import given, settings

from causalnc.fields import (
    BinOp,
    DomainError,
    Neg,
    Num,
    ParseError,
    Pow,
    Var,
    eval_grid,
    eval_with_derivatives,
    parse,
    to_source,
)
from causalnc.minkowski import SpacetimePoint
from strategies import FIELD_TREES


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
    got = eval_with_derivatives(parse("t"), SpacetimePoint(3, 5))
    assert (got.value, got.d_dt, got.d_dx) == (3.0, 1.0, 0.0)

    got = eval_with_derivatives(parse("t*x"), SpacetimePoint(2, 7))
    assert (got.value, got.d_dt, got.d_dx) == (14.0, 7.0, 2.0)


def _central_difference(expr, t, x, h=1e-5):
    f = lambda tt, xx: eval_with_derivatives(expr, SpacetimePoint(tt, xx)).value
    return (
        (f(t + h, x) - f(t - h, x)) / (2 * h),
        (f(t, x + h) - f(t, x - h)) / (2 * h),
    )


def test_example_expression_matches_finite_differences():
    expr = parse("sin(t)*exp(-x^2)")
    got = eval_with_derivatives(expr, SpacetimePoint(1.0, 0.5))
    fd_t, fd_x = _central_difference(expr, 1.0, 0.5)
    assert got.d_dt == pytest.approx(fd_t, rel=1e-6)
    assert got.d_dx == pytest.approx(fd_x, rel=1e-6)
    # sanity against the closed form
    assert got.value == pytest.approx(math.sin(1.0) * math.exp(-0.25))
    assert got.d_dt == pytest.approx(math.cos(1.0) * math.exp(-0.25))
    assert got.d_dx == pytest.approx(-2 * 0.5 * math.sin(1.0) * math.exp(-0.25))


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
            got = eval_with_derivatives(expr, SpacetimePoint(t, x))
            fd_t, fd_x = _central_difference(expr, t, x)
            for ad, fd in ((got.d_dt, fd_t), (got.d_dx, fd_x)):
                assert abs(ad - fd) <= max(1e-6 * max(abs(ad), abs(fd)), 1e-8), (src, t, x)


def test_grid_eval_matches_scalar_eval():
    expr = parse("sin(t)*exp(-x^2) + t*x")
    t = np.linspace(-1, 1, 7)
    x = np.linspace(-2, 2, 7)
    values, d_dt, d_dx = eval_grid(expr, t, x)
    for i in range(7):
        single = eval_with_derivatives(expr, SpacetimePoint(t[i], x[i]))
        assert values[i] == pytest.approx(single.value, abs=1e-15)
        assert d_dt[i] == pytest.approx(single.d_dt, abs=1e-15)
        assert d_dx[i] == pytest.approx(single.d_dx, abs=1e-15)


def test_constant_expression_broadcasts():
    values, d_dt, d_dx = eval_grid(parse("3.5"), np.zeros(4), np.ones(4))
    assert values.shape == (4,)
    assert (values == 3.5).all() and (d_dt == 0).all() and (d_dx == 0).all()
    # constant parts are read-only broadcast views, not copies at full size
    assert values.strides == d_dt.strides == d_dx.strides == (0,)


def test_grid_eval_returns_read_only_views():
    t = np.linspace(-1.0, 1.0, 5)
    x = np.zeros(5)
    for src in ("3.5", "t", "t*x + sin(t)"):
        for part in eval_grid(parse(src), t, x):
            assert part.shape == (5,) and not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 1.0
    assert eval_grid(parse("t"), t, x)[0].tolist() == t.tolist()
    assert t.flags.writeable  # the inputs themselves stay writable


def test_domain_errors_name_subexpression():
    with pytest.raises(DomainError) as err:
        eval_with_derivatives(parse("log(t)"), SpacetimePoint(-1.0, 0.0))
    assert "log(t)" in str(err.value)

    with pytest.raises(DomainError):
        eval_with_derivatives(parse("sqrt(x)"), SpacetimePoint(0.0, -2.0))
    with pytest.raises(DomainError):
        eval_with_derivatives(parse("1/x"), SpacetimePoint(0.0, 0.0))
    with pytest.raises(DomainError):
        eval_with_derivatives(parse("csc(t)"), SpacetimePoint(0.0, 1.0))
    with pytest.raises(DomainError):
        eval_with_derivatives(parse("t^-1"), SpacetimePoint(0.0, 1.0))


def test_domain_error_reports_first_bad_grid_index():
    t = np.array([1.0, 2.0, -3.0, 4.0])
    with pytest.raises(DomainError) as err:
        eval_grid(parse("log(t)"), t, np.zeros(4))
    assert err.value.index == 2


def test_integer_power_semantics():
    got = eval_with_derivatives(parse("x^-2"), SpacetimePoint(0.0, 2.0))
    assert got.value == pytest.approx(0.25)
    assert got.d_dx == pytest.approx(-2 * 2.0**-3)
    assert eval_with_derivatives(parse("x^0"), SpacetimePoint(0.0, 3.0)).value == 1.0
    # negative bases stay exact for integer exponents
    assert eval_with_derivatives(parse("x^3"), SpacetimePoint(0.0, -2.0)).value == -8.0


def test_evaluation_is_deterministic():
    expr = parse("sin(t)*exp(-x^2) + csc(2 + cos(t))")
    a = eval_with_derivatives(expr, SpacetimePoint(0.3, -0.7))
    b = eval_with_derivatives(expr, SpacetimePoint(0.3, -0.7))
    assert (a.value, a.d_dt, a.d_dx) == (b.value, b.d_dt, b.d_dx)


@settings(max_examples=200)
@given(FIELD_TREES)
def test_print_parse_identity_on_random_trees(tree):
    assert parse(to_source(tree)) == tree

"""A small expression language for scalar fields on the (t, x) plane.

Expressions are built from the variables t and x, real literals, the binary
operators + - * / ^ (the exponent must be an integer literal), unary minus,
and the functions sin, cos, tan, exp, log, sqrt, tanh, atan and csc.
Precedence is ^ > unary minus > * / > + -, with the usual left associativity
for + - * / and right associativity for ^ (chained literal exponents are
folded; an exponent beyond the largest float is a ParseError).  A digit is
a Unicode decimal digit (Nd), as float() and the regex digit class read it;
a literal is digits with an optional fraction and exponent, and a name starts
with a letter or _.  Nesting (parentheses, unary minus, calls, ^ chains) and
the tree's height may not pass MAX_DEPTH levels: _eval, to_source and == recurse.

jet, the one evaluator, propagates forward-mode dual numbers with a
two-component derivative part, so the value and both first partials d/dt
and d/dx come out exact (no truncation error beyond rounding) in one pass.
It accepts scalars or numpy arrays of coordinates that broadcast against
each other; the grid-based cone checks pass a column of t and a row of x,
so a subtree that reads one coordinate is evaluated on that axis only.
Likewise the walk never builds a partial that a subtree cannot have: where
it does not read a coordinate, that partial is a structural zero that is
never multiplied, added or negated, a product with a coordinate's unit
partial is folded, and two partials that are one object (tanh(t + x)'s)
stay one.  The results are those of the full product rule, bit for bit in
the values and up to the sign of zero in the partials.
A value or partial that is not finite raises DomainError, as does leaving a
function's real domain; its index is the first failing node, row-major in
the broadcast shape of the coordinates.  At the root that is one test, of
the sum of all three parts over all nodes; only if it is not finite does
the exact per-part check (_root_check) run.  A function call's value is
tested the same way inside the walk: one sum over its nodes, and the exact
node-by-node test only where that sum is not finite.  cone._cone_entries
walks an element's four fields without the root test and makes one test for
all of them (see the cone module docstring).

jet takes an optional identity memo, {id(node): memo_entry(node, t, x)}.
The walk returns an entry's stored (value, (d/dt, d/dx)) for a node only
when the entry's node is that node object and its t and x are the very
coordinate arrays given, so a structurally equal tree, a slice or a copy
misses it.  The walk never writes to the memo, and its arrays are read-only.

There is deliberately no abs(): the cone tests need differentiable fields.
A modulus can be composed as sqrt(re^2 + im^2) where the argument stays
positive, at the caller's own risk near zeros.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

# --- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # 't' or 'x'


@dataclass(frozen=True)
class Neg:
    arg: "FieldExpr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of '+', '-', '*', '/'
    lhs: "FieldExpr"
    rhs: "FieldExpr"


@dataclass(frozen=True)
class Pow:
    base: "FieldExpr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "FieldExpr"


FieldExpr = Union[Num, Var, Neg, BinOp, Pow, Call]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh", "atan", "csc")
VARIABLES = ("t", "x")
_EXPONENT_TOO_LARGE = "exponent too large for a float power"
MAX_DEPTH = 50


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{suffix}")


class DomainError(ValueError):
    """Evaluation outside a function's real domain, pointing at the subexpression.

    index is the first failing node, row-major in the broadcast shape of the
    coordinates, or None where the failing subexpression reads neither.
    """

    def __init__(self, message: str, expr: FieldExpr, index: int | None = None):
        self.expr = expr
        self.index = index
        super().__init__(f"{message} in '{to_source(expr)}'")


# --- tokenizer ---------------------------------------------------------------

_OPS = set("+-*/^()")
#: A number or a name, tried where a letter, "_", "." or a decimal digit starts one.
_LEXEME = re.compile(r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[^\W\d]\w*)")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kind in {num, ident, op, end}."""
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
        else:
            match = _LEXEME.match(src, i) if ch.isalpha() or ch.isdecimal() or ch in "_." else None
            if match is None:
                raise ParseError(f"unexpected character {ch!r}", i)
            tokens.append((match.lastgroup, match.group(), i))
            i = match.end()
    tokens.append(("end", "", n))
    return tokens


# --- parser ------------------------------------------------------------------


def _bounded(depth: int, off: int) -> int:
    if depth > MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", off)
    return depth


class _Parser:
    """Recursive descent; each rule but exponent returns its tree and the tree's height."""

    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str) -> tuple[str, int] | None:
        """The next token's text and offset, consumed, if it is one of the operators ops."""
        kind, text, off = self.tokens[self.pos]
        if kind == "op" and text in ops:
            self.pos += 1
            return text, off
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept(op):
            _, text, off = self.peek()
            raise ParseError(f"unexpected token {text or 'end of input'!r}", off, (repr(op),))

    def nested(self, off: int, rule):
        self.nesting = _bounded(self.nesting + 1, off)
        result = rule()
        self.nesting -= 1
        return result

    def parse(self) -> FieldExpr:
        node, _ = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", off, ("operator", "end of input"))
        return node

    def expr(self) -> tuple[FieldExpr, int]:
        return self.chain("+-", lambda: self.chain("*/", self.unary))

    def chain(self, ops: str, operand) -> tuple[FieldExpr, int]:
        """operand (op operand)* for op in ops, folded to the left."""
        node, height = operand()
        while tok := self.accept(ops):
            rhs, rhs_height = operand()
            node, height = BinOp(tok[0], node, rhs), _bounded(max(height, rhs_height) + 1, tok[1])
        return node, height

    def unary(self) -> tuple[FieldExpr, int]:
        """A negated unary, or an atom with an optional ^ exponent."""
        if tok := self.accept("-"):
            arg, height = self.nested(tok[1], self.unary)
            return Neg(arg), _bounded(height + 1, tok[1])
        base, height = self.atom()
        if tok := self.accept("^"):
            return Pow(base, self.nested(tok[1], self.exponent)), _bounded(height + 1, tok[1])
        return base, height

    def exponent(self) -> int:
        """An optionally negated integer literal; chains fold right-associatively."""
        sign = -1 if self.accept("-") else 1
        kind, text, off = self.peek()
        if kind != "num" or any(c in text for c in ".eE"):
            raise ParseError(
                f"exponent must be an integer literal, got {text or 'end of input'!r}",
                off,
                ("integer",),
            )
        self.advance()
        if float(text) > sys.float_info.max:  # before int(), which refuses very long digit strings
            raise ParseError(_EXPONENT_TOO_LARGE, off, ("integer",))
        value = sign * int(text)
        if tok := self.accept("^"):
            nested = self.nested(tok[1], self.exponent)
            if nested < 0:
                raise ParseError("chained exponent must stay integral", tok[1], ("integer",))
            # bound the fold by its logarithm before Python builds the integer
            if abs(value) > 1 and nested * math.log2(abs(value)) > sys.float_info.max_exp:
                raise ParseError(_EXPONENT_TOO_LARGE, off, ("integer",))
            value = value**nested
            if abs(value) > sys.float_info.max:
                raise ParseError(_EXPONENT_TOO_LARGE, off, ("integer",))
        return value

    def atom(self) -> tuple[FieldExpr, int]:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text)), 1
        if kind == "ident":
            if self.accept("("):
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", off, FUNCTIONS)
                arg, height = self.nested(off, self.expr)
                self.expect_op(")")
                return Call(text, arg), _bounded(height + 1, off)
            if text not in VARIABLES:
                raise ParseError(f"unknown identifier {text!r}", off, VARIABLES + FUNCTIONS)
            return Var(text), 1
        if kind == "op" and text == "(":
            node = self.nested(off, self.expr)
            self.expect_op(")")
            return node
        raise ParseError(
            f"unexpected token {text or 'end of input'!r}",
            off,
            ("number", "identifier", "'('", "'-'"),
        )


def parse(src: str) -> FieldExpr:
    """Parse an expression source string into its syntax tree."""
    return _Parser(src).parse()


# --- printer -----------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _render(e: FieldExpr, context_level: int) -> str:
    if isinstance(e, Num):
        text, level = repr(e.value), _LEVEL_ATOM
    elif isinstance(e, Var):
        text, level = e.name, _LEVEL_ATOM
    elif isinstance(e, Call):
        text, level = f"{e.func}({_render(e.arg, 0)})", _LEVEL_ATOM
    elif isinstance(e, Neg):
        text, level = f"-{_render(e.arg, _LEVEL_UNARY)}", _LEVEL_UNARY
    elif isinstance(e, Pow):
        text, level = f"{_render(e.base, _LEVEL_ATOM)}^{e.exponent}", _LEVEL_POW
    elif isinstance(e, BinOp):
        if e.op in "+-":
            level = _LEVEL_ADD
        else:
            level = _LEVEL_MUL
        text = f"{_render(e.lhs, level)} {e.op} {_render(e.rhs, level + 1)}"
    else:
        raise TypeError(f"not a field expression: {e!r}")
    if level < context_level:
        return f"({text})"
    return text


def to_source(e: FieldExpr) -> str:
    """Render the tree back to source; parse(to_source(e)) == e for parsed trees."""
    return _render(e, 0)


# --- dual-number evaluation ---------------------------------------------------

# Each node evaluates to its value and the pair (d/dt, d/dx) of its partials,
# floats or arrays.  A partial is None (a structural zero) where the subtree
# does not read that coordinate, and a coordinate's own partial is the Python
# float 1.0; jet says how the walk stays exact.  tests/test_fields.py::_reference_jet
# is the walk with every partial built, and the two are held equal.


def _check(ok, message: str, node: FieldExpr, shape: tuple) -> None:
    """Raise DomainError unless ok holds everywhere; its index is row-major in the coordinates' shape.

    ok may have any shape that broadcasts to shape (a subtree that reads only
    t is a column); a 0-d ok reads no coordinate and carries no index.
    """
    ok = np.asarray(ok)
    if not ok.all():
        bad = int(np.argmin(np.broadcast_to(ok, shape))) if ok.ndim else None
        raise DomainError(message, node, index=bad)


def _zeros_meeting(d, factor, checked: bool = False):
    """The partials d = (dt, dx) of a subtree about to be multiplied by factor.

    A subtree with a real partial keeps its structural zeros: where the
    factor is not finite, that partial's product is not finite either, at
    the same node.  A subtree that reads no coordinate has no such partial,
    so its zeros become the real 0.0 when the factor is not finite
    everywhere, and 0*factor then carries the NaN.  checked says the factor
    is a value the walk has already found finite.
    """
    if d[0] is None and d[1] is None and not checked and not np.isfinite(factor).all():
        return 0.0, 0.0
    return d


def _known_finite(e: FieldExpr) -> bool:
    """Whether the walk checks e's value finite: a function call's, up to sign."""
    while isinstance(e, Neg):
        e = e.arg
    return isinstance(e, Call)


def _times(d, factor):
    """d*factor for a partial d; the unit partial is folded, as x*1.0 is x bit for bit."""
    if d is None:
        return None
    if isinstance(d, float) and d == 1.0:
        return factor
    return d * factor


def _plus(a, b):
    if a is None:
        return b
    return a if b is None else a + b


def _minus(a, b):
    if b is None:
        return a
    return -b if a is None else a - b


def _both(rule, a, b):
    """(rule(a_t, b_t), rule(a_x, b_x)) for the pairs of partials a and b.

    Where each pair holds one object twice (tanh(t + x) holds its g), the
    result is formed once and shared, exactly, as the operands are the same.
    """
    dt = rule(a[0], b[0])
    return dt, dt if a[0] is a[1] and b[0] is b[1] else rule(a[1], b[1])


def _eval(e: FieldExpr, t, x, shape: tuple, memo=None):
    if memo is not None:
        hit = memo.get(id(e))
        if hit is not None and hit[0] is e and hit[1] is t and hit[2] is x:
            return hit[3]
    if isinstance(e, Num):
        return np.float64(e.value), (None, None)  # numpy arithmetic overflows to inf, never raises
    if isinstance(e, Var):
        if e.name == "t":
            return t, (1.0, None)
        return x, (None, 1.0)
    if isinstance(e, Neg):
        v, d = _eval(e.arg, t, x, shape, memo)
        return -v, _both(_minus, (None, None), d)
    if isinstance(e, BinOp):
        av, ad = _eval(e.lhs, t, x, shape, memo)
        bv, bd = _eval(e.rhs, t, x, shape, memo)
        if e.op == "+":
            return av + bv, _both(_plus, ad, bd)
        if e.op == "-":
            return av - bv, _both(_minus, ad, bd)
        if e.op == "*":
            ad = _both(_times, _zeros_meeting(ad, bv, _known_finite(e.rhs)), (bv, bv))
            bd = _both(_times, _zeros_meeting(bd, av, _known_finite(e.lhs)), (av, av))
            return av * bv, _both(_plus, ad, bd)
        _check(np.asarray(bv) != 0.0, "division by zero", e, shape)
        inv = 1.0 / bv
        v = av * inv
        bd = _both(_times, _zeros_meeting(bd, v), (v, v))
        d = _zeros_meeting(_both(_minus, ad, bd), inv)
        return v, _both(_times, d, (inv, inv))
    if isinstance(e, Pow):
        bv, d = _eval(e.base, t, x, shape, memo)
        n = e.exponent
        if n == 0:
            return bv * 0.0 + 1.0, (None, None)
        if n < 0:
            _check(np.asarray(bv) != 0.0, "zero base with negative exponent", e, shape)
        v = bv ** float(n)
        g = float(n) * bv ** float(n - 1)
        return v, _both(_times, _zeros_meeting(d, g), (g, g))
    if isinstance(e, Call):
        av, d = _eval(e.arg, t, x, shape, memo)
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
        elif e.func == "csc":
            s = np.sin(av)
            _check(np.asarray(s) != 0.0, "csc at a zero of sin", e, shape)
            v = 1.0 / s
            g = -v * v * np.cos(av)
        else:  # unreachable for parsed trees
            raise DomainError(f"unknown function {e.func!r}", e)
        # an inf or NaN anywhere makes the sum inf or NaN; a sum that only overflows gets the exact test
        if not math.isfinite(np.add.reduce(v, None)) and not np.isfinite(v).all():
            _check(np.isfinite(v), "non-finite value", e, shape)
        return v, _both(_times, _zeros_meeting(d, g), (g, g))
    raise TypeError(f"not a field expression: {e!r}")


def _root_check(e: FieldExpr, v, d, shape: tuple) -> None:
    """The exact root check of e's walk (v, d): DomainError at its first node where a part is not finite."""
    finite = np.isfinite(v)
    for part in d:
        if part is not None:
            finite = finite & np.isfinite(part)
    _check(np.broadcast_to(finite, shape), "non-finite value or partial", e, shape)


def _walk(e: FieldExpr, t, x, memo):
    """e's (value, (d/dt, d/dx)) at the float coordinates t and x, checked finite as jet says."""
    shape = np.broadcast(t, x).shape
    with np.errstate(over="ignore", invalid="ignore"):
        v, (dt, dx) = _eval(e, t, x, shape, memo)
        # an inf or NaN anywhere makes the sum inf or NaN; a sum that only overflows gets the check below
        total = sum(np.add.reduce(part, None) for part in (v, dt, dx) if part is not None)
    if not math.isfinite(total):
        _root_check(e, v, (dt, dx), shape)
    return v, (dt, dx)


def jet(e: FieldExpr, t, x, memo=None):
    """The field's value and its exact first partials, (value, d/dt, d/dx).

    t and x are scalars or arrays that broadcast against each other.  Each
    part keeps the shape of the coordinates it reads: given a column of t
    and a row of x, a part that reads only t is a column, and a constant
    part comes back 0-d rather than copied out to the full shape.  Besides
    the per-function domain checks inside the walk, the value and both
    partials must be finite everywhere; otherwise DomainError carries the
    first index, row-major in the coordinates' broadcast shape, where one
    of them is not.  The sum of all three over all nodes is finite only if
    every part is, so only if it is not does the check run part by part: it
    raises, or passes where finite parts merely overflowed in the sum.  A partial along a coordinate
    that the field does not read is 0.0.  The walk builds no array for such
    a partial of any subtree (a structural zero), and stays exact where one
    meets a factor that is not finite, which the full product rule turns
    into NaN: a subtree with a real partial shows that NaN at the same node,
    and one that reads no coordinate gets real zeros (_zeros_meeting), so
    2.75^700, whose partial overflows, fails at node 0.  memo, if given, is
    an identity memo of memo_entry entries (see the module docstring).
    """
    v, (dt, dx) = _walk(e, np.asarray(t, dtype=float), np.asarray(x, dtype=float), memo)
    return v, 0.0 if dt is None else dt, 0.0 if dx is None else dx


def memo_entry(e: FieldExpr, t: np.ndarray, x: np.ndarray) -> tuple:
    """e's walk at the float arrays t and x as a memo entry, checked as jet checks it and made read-only.

    t and x must not change while the entry is kept; RegionGrid.views() are read-only."""
    v, d = _walk(e, t, x, None)
    for part in (v, *d):
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    return e, t, x, (v, d)

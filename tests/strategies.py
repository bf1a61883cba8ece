"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from causalnc.fields import FUNCTIONS, BinOp, Call, Neg, Num, Pow, Var


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

#: a column of t and a row of x; 2.74 and 2.75 lie where t^700 is finite and 700 t^699 is not
EXACT_T = np.array([-3.0, -1.25, 0.0, 0.5, 2.74, 2.75, 3.0])[:, None]
EXACT_X = np.array([-2.75, -0.75, 0.0, 1.0, 2.8])[None, :]

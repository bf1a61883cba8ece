"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from causalnc.fields import FUNCTIONS, BinOp, Call, Neg, Num, Pow, Var

#: Random field expressions in parser normal form: literals are non-negative
#: and minus lives in Neg nodes.  Exponents up to 700 reach float overflow.
FIELD_TREES = st.recursive(
    st.one_of(st.sampled_from((Var("t"), Var("x"))), st.integers(0, 12).map(lambda k: Num(k / 4))),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(Pow, sub, st.sampled_from((-1, 0, 2, 3, 700))),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub),
    ),
    max_leaves=6,
)

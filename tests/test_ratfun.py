"""Polynomial matrices over F_p: Bareiss rank against the rank at u = 1."""

from hypothesis import given, settings, strategies as st

from smith_tate.fp_core import FpMatrix, rank
from smith_tate.ratfun import (
    bareiss_rank,
    pdivmod,
    pmul,
    psub,
    pupow,
)

from oracles import padd

U = (0, 1)  # the variable u as a coefficient tuple


def test_poly_primitives():
    p = 5
    assert pupow(2, 3, p) == (0, 0, 3)
    assert padd((1, 2), (4, 3), p) == ()  # (1+4, 2+3) = 0
    assert psub((1,), (1,), p) == ()
    assert pmul((1, 1), (1, 4), p) == (1, 0, 4)  # (1+u)(1+4u) = 1 + 4u^2


def test_pdivmod():
    p = 7
    a = pmul((1, 1), (2, 0, 1), p)
    q, r = pdivmod(a, (1, 1), p)
    assert q == (2, 0, 1) and r == ()


def test_bareiss_rank_oracles():
    p = 3
    diag = [[U, ()], [(), pmul(U, U, p)]]
    assert bareiss_rank(diag, p) == 2
    # [[u, 1], [u^2, u]] has zero determinant
    dep = [[U, (1,)], [pmul(U, U, p), U]]
    assert bareiss_rank(dep, p) == 1
    assert bareiss_rank([[(), ()], [(), ()]], p) == 0


@st.composite
def homogeneous_blocks(draw):
    """A polynomial matrix whose entry (r, c) is a_rc * u^((w_r - w_c - 1) / 2)
    for integer weights w, zero where that exponent is negative; odd row
    and even column weights keep every exponent whole, as in a parity
    block of the Tate differential."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    rows = draw(st.lists(st.integers(-2, 4).map(lambda a: 2 * a + 1), min_size=1, max_size=5))
    cols = draw(st.lists(st.integers(-2, 4).map(lambda b: 2 * b), min_size=1, max_size=5))
    mat = []
    for w_r in rows:
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(cols), max_size=len(cols)))
        mat.append(
            [pupow((w_r - w_c - 1) // 2, a, p) if w_r > w_c else () for w_c, a in zip(cols, coeffs)]
        )
    return mat, p


@given(homogeneous_blocks())
@settings(max_examples=200, deadline=None)
def test_homogeneous_rank_is_rank_at_one(case):
    """A homogeneous block is diag(u^a) M(1) diag(u^-b), so fraction-free
    elimination over F_p(u) and one F_p elimination at u = 1 agree."""
    mat, p = case
    at_one = FpMatrix([[sum(e) % p for e in row] for row in mat], p)
    assert bareiss_rank(mat, p) == rank(at_one)

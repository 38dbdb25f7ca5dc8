"""Polynomial matrices over F_p: Bareiss rank against the entry-by-entry
route and against the rank at u = 1."""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smith_tate.errors import TooLarge
from smith_tate.fp_core import FpMatrix
from smith_tate.ratfun import MAX_BAREISS_CELLS, MAX_BAREISS_WORK, _divide_exact, _shift_matrices, bareiss_rank, pnorm, pupow

from oracles import bareiss_rank_by_entries, padd, pdivmod, pmul, psub, rank

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


# ---------------------------------------------------------------------------
# the coefficient-array route against the entry-by-entry oracle

PRIMES = (2, 3, 5, 7, 16777213)


def _random_poly(rng, p, deg):
    return pnorm([rng.randrange(p) for _ in range(rng.randint(0, deg) + 1)], p)


def _combination(rows, rng, p, deg):
    """sum_k c_k(u) rows[k] for random polynomials c_k of degree <= deg."""
    out = [() for _ in rows[0]]
    for row in rows:
        c = _random_poly(rng, p, deg)
        out = [padd(x, pmul(c, y, p), p) for x, y in zip(out, row)]
    return out


def _random_matrix(rng, p, rows, cols, deg):
    """A random non-homogeneous polynomial matrix with entries of degree
    <= deg, then one planted feature: a row that is an F_p[u]-combination
    of others (rank deficiency), a zero column, a zero top-left entry (the
    first pivot needs a row swap), or one or every entry times a power of u
    (pivots with a zero constant term, v > 0)."""
    density = rng.choice((0.3, 0.7, 1.0))
    mat = [[_random_poly(rng, p, deg) if rng.random() < density else () for _ in range(cols)] for _ in range(rows)]
    if not rows or not cols:
        return mat
    feature = rng.randrange(5)
    if feature == 0 and rows >= 2:
        k = rng.randrange(rows)
        others = [mat[i] for i in range(rows) if i != k]
        mat[k] = _combination(rng.sample(others, rng.randint(1, len(others))), rng, p, 1)
    elif feature == 1:
        j = rng.randrange(cols)
        for row in mat:
            row[j] = ()
    elif feature == 2:
        mat[0][0] = ()
    elif feature == 3:
        shift = pupow(rng.randint(1, 2), 1, p)
        mat = [[pmul(shift, e, p) for e in row] for row in mat]
    else:
        i, j = rng.randrange(rows), rng.randrange(cols)
        mat[i][j] = pmul(pupow(rng.randint(1, 3), 1, p), mat[i][j] or (1,), p)
    return mat


def _cases():
    rng = random.Random(20190801)
    for p in PRIMES:
        for k in (0, 1, 3, 5):
            yield p, [[] for _ in range(k)]  # k x 0
            yield p, [[() for _ in range(k)]] if k else []  # 1 x k, 0 x 0
        for deg in range(5):
            yield p, [[_random_poly(rng, p, deg)]]  # 1 x 1
        for _ in range(40):
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            yield p, _random_matrix(rng, p, rows, cols, rng.randint(0, 4))
        yield p, [[_random_poly(rng, p, 4) for _ in range(12)] for _ in range(12)]


def test_bareiss_matches_entry_by_entry_route():
    """Ranks equal the pure-Python Bareiss route on random matrices of
    every shape up to 12 x 12 with entry degrees 0 to 4, at small primes
    and at the largest matrix prime below 2^24."""
    ranks = set()
    for p, mat in _cases():
        want = bareiss_rank_by_entries(mat, p)
        assert bareiss_rank(mat, p) == want, (p, mat)
        ranks.add(want)
    assert {0, 1, 12} <= ranks


def test_bareiss_planted_features():
    p = 5
    swap = [[(), (1,)], [(2,), (3,)]]  # first pivot from the second row
    assert bareiss_rank(swap, p) == bareiss_rank_by_entries(swap, p) == 2
    # every pivot has a zero constant term: u * (a generic 3 x 3)
    generic = [[(1, 2), (3,), (0, 1)], [(4,), (1, 1), (2,)], [(2, 3), (), (1, 0, 1)]]
    shifted = [[pmul(U, e, p) for e in row] for row in generic]
    assert bareiss_rank(shifted, p) == bareiss_rank(generic, p) == 3
    # third row = (1 + u) first + u^2 second, and a zero column
    r1, r2 = [(1,), (0, 1), ()], [(2, 1), (3,), ()]
    r3 = [padd(pmul((1, 1), x, p), pmul((0, 0, 1), y, p), p) for x, y in zip(r1, r2)]
    assert bareiss_rank([r1, r2, r3], p) == bareiss_rank_by_entries([r1, r2, r3], p) == 2


def test_shift_matrices_multiply_polynomials():
    p = 7
    q = np.array([3, 0, 5], dtype=np.int64)
    x = np.array([[1, 2], [0, 4]], dtype=np.int64)
    got = x @ _shift_matrices(q, 2, 4) % p
    want = [pmul((1, 2), (3, 0, 5), p), pmul((0, 4), (3, 0, 5), p)]
    assert [pnorm(row, p) for row in got] == want
    rows = _shift_matrices(x, 2, 3)  # one shift matrix per row of x
    assert rows.shape == (2, 2, 3)
    assert rows[1].tolist() == [[0, 4, 0], [0, 0, 4]]


def _coeffs(polys, width):
    return np.array([list(e) + [0] * (width - len(e)) for e in polys], dtype=np.int64)


def test_divide_exact_quotients_and_checks():
    p = 5
    prev = np.array([0, 2, 1], dtype=np.int64)  # u (2 + u): v = 1
    quots = [(1, 3), (4,), (0, 0, 2)]
    nums = [pmul(q, (0, 2, 1), p) for q in quots]
    got = _divide_exact(_coeffs(nums, 5), prev, 8, p)
    assert [pnorm(row, p) for row in got] == quots
    # a nonzero coefficient below u^v
    with pytest.raises(ArithmeticError, match="inexact"):
        _divide_exact(_coeffs([(1, 0, 2, 1)], 4), prev, 8, p)
    # divisible by u but not by 2 + u: caught only by the top coefficients
    with pytest.raises(ArithmeticError, match="inexact"):
        _divide_exact(_coeffs([(0, 1, 0, 2)], 4), prev, 8, p)
    # a numerator of lower degree than the divisor
    with pytest.raises(ArithmeticError, match="inexact"):
        _divide_exact(_coeffs([(0, 3)], 2), prev, 8, p)
    # a quotient wider than any minor can be
    with pytest.raises(ArithmeticError, match="inexact"):
        _divide_exact(_coeffs([pmul((1, 1, 1, 1), (0, 2, 1), p)], 6), prev, 3, p)


def test_bareiss_budget():
    """The coefficient array and the int64 sums are bounded before any
    allocation: min(rows, cols) * D + 1 coefficients per entry."""
    side = 64
    mat = [[() for _ in range(side)] for _ in range(side)]
    mat[0][0] = pupow(1024, 1, 3)  # width 64 * 1024 + 1
    with pytest.raises(TooLarge, match="Bareiss"):
        bareiss_rank(mat, 3)
    assert side * side * (side * 1024 + 1) > MAX_BAREISS_CELLS
    # 2 x 2 at the largest matrix prime: width 2 D + 1 with (p - 1)^2 near 2^48
    p = 16777213
    wide = [[pupow(20000, 1, p), ()], [(), (1,)]]
    with pytest.raises(TooLarge, match="overflow"):
        bareiss_rank(wide, p)
    assert bareiss_rank([[pupow(40, 1, p), ()], [(), (1,)]], p) == 2


def test_bareiss_step_work_budget():
    """A 2 x 2 matrix of degree 500 000 fits the cell limit, but a step
    would take work quadratic in its width 10^6 + 1: refused at once."""
    mat = [[pupow(500_000, 1, 3), ()], [(), (1,)]]
    assert 2 * 2 * (2 * 500_000 + 1) <= MAX_BAREISS_CELLS
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match="Bareiss step work"):
        bareiss_rank(mat, 3)
    assert time.perf_counter() - t0 < 0.05
    # a degree the budget admits still runs
    assert 2 * 2 * (2 * 500 + 1) ** 2 <= MAX_BAREISS_WORK
    assert bareiss_rank([[pupow(500, 1, 3), ()], [(), (1,)]], 3) == 2

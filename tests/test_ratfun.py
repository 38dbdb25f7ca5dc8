"""Polynomial matrices over F_p: Bareiss rank against the entry-by-entry
route and against the rank at u = 1."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smith_tate.ratfun as ratfun
from smith_tate.complexes import ChainComplex, Generator, _coeff_map, _sparse, complex_from_json, tensor_power
from smith_tate.errors import TooLarge
from smith_tate.fp_core import FpMatrix
from smith_tate.random_instances import random_sigma_matrix
from smith_tate.ratfun import (
    MAX_BAREISS_CELLS,
    MAX_BAREISS_WORK,
    _check_limits,
    _divide_exact,
    _shift_matrices,
    _unit_pivots,
    bareiss_rank,
    pnorm,
    pupow,
)
from smith_tate.tate import tate_cohomology_dims

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
        for kind in SPARSE_KINDS:
            for _ in range(8):
                yield p, _sparse_matrix(rng, p, rng.randint(2, 16), rng.randint(3, 16), kind)


# entries of the sparse cases: a nonzero constant c, c u, 1 + u, and
# entries that are 0 mod p, each kind of matrix drawing from its own menu
SPARSE_KINDS = {
    "mixed": ("c", "cu", "1+u", "p", "pu", "poly"),
    "no constant": ("cu", "1+u", "p", "pu", "poly"),
    "all constant": ("c",),
}


def _sparse_entry(rng, p, what):
    c = rng.randrange(1, p)
    return {
        "c": (c,),
        "cu": (0, c),
        "1+u": (1, 1),
        "p": (p,),  # zero mod p: never a pivot
        "pu": (0, p),
        "poly": (c, rng.randrange(p), rng.randrange(1, p)),
    }[what]


def _sparse_matrix(rng, p, rows, cols, kind):
    """A seeded matrix under a quarter nonzero, so that bareiss_rank runs
    its unit pass on it, with entries from SPARSE_KINDS[kind]; half of them
    get a row that is c times another, a dependence among constants."""
    mat = [[() for _ in range(cols)] for _ in range(rows)]
    for cell in rng.sample(range(rows * cols), rng.randint(1, (rows * cols - 1) // 4)):
        mat[cell // cols][cell % cols] = _sparse_entry(rng, p, rng.choice(SPARSE_KINDS[kind]))
    if rng.random() < 0.5:
        k, l = rng.sample(range(rows), 2)
        c = (rng.randrange(1, p),)
        mat[k] = [pmul(c, pnorm(e, p), p) for e in mat[l]]
    return mat


def _reduced(mat, p):
    return [[pnorm(e, p) for e in row] for row in mat]


def test_bareiss_matches_entry_by_entry_route():
    """Ranks equal the pure-Python Bareiss route on random matrices of
    every shape up to 12 x 12 with entry degrees 0 to 4, and on sparse
    ones up to 16 x 16 with constant, c u, 1 + u and vanishing entries, at
    small primes and at the largest matrix prime below 2^24."""
    ranks, sparse = set(), 0
    for p, mat in _cases():
        want = bareiss_rank_by_entries(_reduced(mat, p), p)
        assert bareiss_rank(mat, p) == want, (p, mat)
        ranks.add(want)
        sparse += bool(mat) and bool(mat[0]) and 4 * sum(len(row) - row.count(()) for row in mat) < len(mat) * len(mat[0])
    assert {0, 1, 12} <= ranks
    assert sparse >= len(PRIMES) * len(SPARSE_KINDS) * 8


def test_unit_pass_takes_every_constant_pivot():
    """On the sparse cases, the unit pass leaves no entry that is a
    nonzero constant, takes no pivot where there is none, and its pivots
    plus the rank of what it leaves give the rank."""
    rng = random.Random(34)
    for p in PRIMES:
        for kind in SPARSE_KINDS:
            for _ in range(10):
                mat = _sparse_matrix(rng, p, rng.randint(2, 16), rng.randint(3, 16), kind)
                k, rest = _unit_pivots(mat, p)
                entries = [e for row in rest for e in row if e]
                assert all(pnorm(e, p) == e and len(e) > 1 for e in entries), (p, mat)
                assert all(any(row) for row in rest) and all(map(any, zip(*rest))), (p, mat)
                if kind == "no constant":
                    assert k == 0, (p, mat)
                if kind == "all constant":
                    assert rest == [], (p, mat)
                want = bareiss_rank_by_entries(_reduced(mat, p), p)
                assert k + (bareiss_rank_by_entries(rest, p) if rest else 0) == want, (p, mat)


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


# ---------------------------------------------------------------------------
# the unit pass: its limits, its counts, and a non-homogeneous family


def _unit_chain(k, m, D, p, diagonal=True):
    """A (k + m) x (k + m) matrix about a tenth nonzero whose k unit pivots
    leave an m x m remainder of degree k D + 1: a chain of 1s on the
    diagonal and u^D above it, from the last chain row u^D into each of
    the m columns past the chain, from the first chain column (j + 1) u
    into each row j past it, and u on their diagonal.  The remainder is
    u I - u^(kD+1) c b^T up to sign, with c = (1, ..., m) and b all ones,
    so the rank is k + m; without the diagonal it is k + 1."""
    n = k + m
    mat = [[() for _ in range(n)] for _ in range(n)]
    for i in range(k):
        mat[i][i] = (1,)
        if i + 1 < k:
            mat[i][i + 1] = pupow(D, 1, p)
    for j in range(m):
        mat[k - 1][k + j] = pupow(D, 1, p)
        mat[k + j][0] = pupow(1, j + 1, p)
        if diagonal:
            mat[k + j][k + j] = U
    return mat


@pytest.mark.parametrize("diagonal, rank_", [(True, 30), (False, 7)])
def test_unit_pass_remainder_of_higher_degree_is_answered_at_the_whole_limits(diagonal, rank_):
    """The columns left after 6 unit pivots have entries of degree 85 where
    the matrix has degree 14, and their own shape and degree pass the step
    work limit; the whole matrix's width bounds every minor the dense loop
    forms on them, so the rank is answered, not refused."""
    k, m, D, p = 6, 24, 14, 37
    mat = _unit_chain(k, m, D, p, diagonal)
    assert 4 * sum(len(row) - row.count(()) for row in mat) < (k + m) ** 2
    pivots, rest = _unit_pivots(mat, p)
    deg = max(map(len, itertools.chain.from_iterable(rest))) - 1
    assert (pivots, len(rest), len(rest[0]), deg) == (k, m, m, k * D + 1)
    _check_limits(k + m, k + m, D, p)
    with pytest.raises(TooLarge, match="Bareiss step work"):
        _check_limits(m, m, deg, p)
    assert bareiss_rank(mat, p) == rank_


def _count_bareiss(monkeypatch):
    """{"steps": _bareiss_step calls, "pivots": the pivots of each unit
    pass, "widths": the columns each unit pass leaves}, filled as
    bareiss_rank runs."""
    seen = {"steps": 0, "pivots": [], "widths": []}
    step, unit = ratfun._bareiss_step, ratfun._unit_pivots

    def counting_step(*args):
        seen["steps"] += 1
        return step(*args)

    def recording_unit(mat, p):
        k, rest = unit(mat, p)
        seen["pivots"].append(k)
        seen["widths"].append(len(rest[0]) if rest else 0)
        return k, rest

    monkeypatch.setattr(ratfun, "_bareiss_step", counting_step)
    monkeypatch.setattr(ratfun, "_unit_pivots", recording_unit)
    return seen


def test_tensor_power_blocks_take_their_steps_only_on_the_remainder(monkeypatch):
    """The input of perfbench's tate-bareiss-tp27-0, the tensor power at
    p = 3 of x0 -> x1 and x2 in degrees -2, -1 and 0: its 27 x 27 parity
    blocks are 12 % nonzero and took 26 fraction-free steps each before
    the unit pass.  Now each takes at most as many steps as the columns
    its unit pass leaves, fewer than the block's 27."""
    gens = [Generator(f"x{i}", i - 2, 0) for i in range(3)]
    V = tensor_power(ChainComplex(3, gens, {"x0": {"x1": 1}}))
    seen = _count_bareiss(monkeypatch)
    assert tate_cohomology_dims(V, method="bareiss") == tate_cohomology_dims(V) == (1, 1)
    assert len(seen["widths"]) == 2 and all(k > 0 for k in seen["pivots"])
    assert seen["steps"] <= sum(seen["widths"]) < 2 * 27


def test_dense_sigma_blocks_take_no_unit_pivot(monkeypatch):
    """Conjugated sigma of 5 free orbits at p = 7: its parity blocks are
    about 85 % nonzero, where the unit pass loses to the dense loop, so it
    takes no pivot there."""
    ids = [f"g{i:02d}" for i in range(35)]
    sigma = _coeff_map(_sparse(random_sigma_matrix(7, (0,) * 6 + (5,), 0).a), ids)
    V = complex_from_json({"p": 7, "generators": [{"id": g, "degree": 0} for g in ids], "sigma": sigma})
    seen = _count_bareiss(monkeypatch)
    assert tate_cohomology_dims(V, method="bareiss") == tate_cohomology_dims(V) == (0, 0)
    assert sum(seen["pivots"]) == 0 and seen["steps"] > 0


def _loop_blocks(p, i):
    """The two parity blocks of V = F_p[G]x + F_p[G]y with t = sigma - 1,
    dx = t^i y and dy = t^(p-i) x, on the basis sigma^k of each summand:
    [[t^i, uN], [1 - sigma, -t^(p-i)]] out of the even labels x<1> and
    y<theta>, and its mirror out of the odd ones.  d is odd with d^2 = 0,
    and no Z-grading makes the blocks homogeneous."""
    sigma = np.roll(np.eye(p, dtype=np.int64), 1, axis=0)
    t = sigma - np.eye(p, dtype=np.int64)
    norm = sum(np.linalg.matrix_power(sigma, k) for k in range(p))

    def block(a, b):
        top = [[(x % p,) for x in row] + [pupow(1, x, p) for x in nrow] for row, nrow in zip(a, norm)]
        bottom = [[(x % p,) for x in row] + [(-x % p,) for x in brow] for row, brow in zip(-t, b)]
        return [[pnorm(e, p) for e in row] for row in top + bottom]

    ti, tpi = np.linalg.matrix_power(t, i), np.linalg.matrix_power(t, p - i)
    return block(ti, tpi), block(tpi, ti)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_bareiss_route_sees_a_free_ungraded_loop(p):
    """The loop family is free over F_p[G], so its Tate cohomology is
    (0, 0), and the Bareiss rank over F_p[u] finds it, with the unit pass
    or without; the same blocks at u = 1 give 2 per parity."""
    for i in range(1, p):
        blocks = _loop_blocks(p, i)
        # each parity has 2p labels, so Tate (even, odd) = (2p - r_e - r_o) * (1, 1)
        ranks = [bareiss_rank(b, p) for b in blocks]
        assert 2 * p - sum(ranks) == 0, (p, i)
        for b, r in zip(blocks, ranks):
            k, rest = _unit_pivots(b, p)
            assert k + (bareiss_rank(rest, p) if rest else 0) == r == bareiss_rank_by_entries(b, p)
        at_one = [rank(FpMatrix([[sum(e) % p for e in row] for row in b], p)) for b in blocks]
        assert 2 * p - sum(at_one) == 2, (p, i)

"""Exact linear algebra over F_p: rank, kernels, solving, Jordan partitions."""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import _matpow, fixed_dim, kernel_basis, leading_pivots, nilpotent_partition_by_p_ranks, rank, rref, solve

import smith_tate.complexes as complexes
import smith_tate.fp_core as fp_core
from smith_tate.complexes import ChainComplex, Generator, _affine, _dense, _power, _sparse
from smith_tate.errors import NotNilpotent, NotPrime, PrimeTooLarge
from smith_tate.fp_core import (
    MATRIX_PRIME_BOUND,
    PRIMALITY_BOUND,
    FpMatrix,
    _BLAS_MIN_WORK,
    _check_matrix_prime,
    _matmul_mod,
    check_prime,
    column_rank,
    is_prime,
    nilpotent_partition,
)
from smith_tate.random_instances import random_sigma_matrix, random_sigma_with_multiplicities


def test_is_prime_small_values():
    assert [n for n in range(2, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(97)
    assert not is_prime(91)  # 7 * 13


class TestMatrixPrimeBound:
    """int64 arithmetic is exact only for p below 2^24."""

    TOO_LARGE = 4294967311  # prime; entry products overflow int64
    LARGEST = 16777213  # the largest prime below 2^24

    def test_bound_value(self):
        assert MATRIX_PRIME_BOUND == 2**24
        assert is_prime(self.TOO_LARGE) and is_prime(self.LARGEST)
        assert not any(is_prime(q) for q in range(self.LARGEST + 1, MATRIX_PRIME_BOUND))

    def test_too_large_prime_rejected(self):
        with pytest.raises(PrimeTooLarge):
            FpMatrix([[1, 2], [3, 4]], self.TOO_LARGE)
        with pytest.raises(PrimeTooLarge):
            ChainComplex(self.TOO_LARGE, [Generator("v", 0)], {})

    def test_largest_prime_below_bound_accepted(self):
        p = self.LARGEST
        big = p - 1
        # det = big * big - 1 * 1 = 0 mod p, since big = -1
        assert rank(FpMatrix([[big, 1], [1, big]], p)) == 1
        assert rank(FpMatrix([[big, big], [big, 1]], p)) == 2
        a = np.full((64, 64), big, dtype=np.int64)
        assert (_matmul_mod(a, a, p) == 64 % p).all()
        cx = ChainComplex(p, [Generator("x", 0), Generator("y", 1)], {"x": {"y": big}})
        assert cx.homology_dims() == {}


def test_check_prime_rejects_composites():
    assert check_prime(5) == 5
    with pytest.raises(NotPrime):
        check_prime(6)
    with pytest.raises(NotPrime):
        check_prime(1)


class TestFpMatrix:
    def test_construction_reduces_mod_p(self):
        m = FpMatrix([[5, -1], [3, 7]], 3)
        assert m.a.tolist() == [[2, 2], [0, 1]]
        assert m.rows == 2 and m.cols == 2

    def test_vector_input_becomes_column(self):
        m = FpMatrix([1, 2, 3], 5)
        assert (m.rows, m.cols) == (3, 1)

    def test_equality_ignores_nothing(self):
        assert FpMatrix([[1]], 3) != FpMatrix([[1]], 5)
        assert FpMatrix([[1]], 3) != FpMatrix([[1, 0]], 3)


def _product_by_python_ints(a, b, p):
    rows, cols = a.tolist(), b.T.tolist()
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in rows]


@pytest.mark.parametrize("p", [2, 3, 16777213])
def test_matmul_mod_matches_python_ints(p):
    """Both routes of _matmul_mod against exact integer sums: shapes on each
    side of the BLAS cut-off, 0-sized shapes, inner dimensions on each side
    of k (p - 1)^2 = 2^53 (32 and 33 at p = 16777213), and vectors."""
    rng = np.random.default_rng(p)
    side = round(_BLAS_MIN_WORK ** (1 / 3))
    shapes = [(0, 3, 4), (4, 3, 0), (3, 0, 4), (0, 0, 0), (1, 1, 1), (2, 7, 3),
              (side - 1,) * 3, (side,) * 3, (side + 1,) * 3, (48, 64, 40), (8, 32, 40), (8, 33, 40), (2, 3000, 2)]
    for m, k, n in shapes:
        for a, b in (
            (rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n))),
            (np.full((m, k), p - 1), np.full((k, n), p - 1)),
        ):
            got = _matmul_mod(a, b, p)
            assert got.dtype == np.int64 and got.tolist() == _product_by_python_ints(a, b, p), (m, k, n)
            v = b[:, 0] if n else np.zeros(k, dtype=np.int64)
            assert _matmul_mod(a, v, p).tolist() == [row[0] for row in _product_by_python_ints(a, v[:, None], p)]


class TestPower:
    """complexes._power, the one power routine: sparse columns by squaring,
    against the dense oracle _matpow."""

    def test_power(self):
        j = _sparse(np.array([[1, 1], [0, 1]]))
        assert _power(j, 3, 3) == [{0: 1}, {1: 1}]
        assert _power([], 2, 3) == []

    def test_power_takes_no_wasted_products(self, monkeypatch):
        """_power(a, k) makes floor(log2 k) + popcount(k) - 1 compositions
        for k >= 1."""
        m = np.array([[1, 1, 0], [0, 1, 2], [1, 0, 1]])
        products = []
        real = complexes._compose
        monkeypatch.setattr(complexes, "_compose", lambda a, b, p: products.append(1) or real(a, b, p))
        for k in range(1, 70):
            products.clear()
            assert _dense(_power(_sparse(m), k, 5), 3).tolist() == _matpow(m, k, 5).tolist(), k
            assert len(products) == k.bit_length() + bin(k).count("1") - 2, k

    def test_array_routines_do_not_check_the_prime(self, monkeypatch):
        """Products of residue arrays, and powers and the norm of sparse
        columns, never test the prime; the FpMatrix constructor tests each
        prime once and a composite every time."""
        a = np.array([[1, 2], [3, 4]])
        b = np.array([[0, 1], [1, 0]])
        calls = []
        real = is_prime
        monkeypatch.setattr("smith_tate.fp_core.is_prime", lambda n: calls.append(n) or real(n))
        _check_matrix_prime.cache_clear()
        assert _matmul_mod(a, b, 7).tolist() == [[2, 1], [4, 3]]
        assert _dense(_power(_sparse(a), 2, 7), 2).tolist() == (a @ a % 7).tolist()
        # N = (b - 1)^6 = 1 + b + ... + b^6 = 4 + 3b
        assert _dense(_power(_affine(_sparse(b), 1, -1, 7), 6, 7), 2).tolist() == [[4, 3], [3, 4]]
        assert calls == []
        for _ in range(2):
            assert FpMatrix(a, 7).a.tolist() == a.tolist()
        assert calls == [7]
        for _ in range(2):
            with pytest.raises(NotPrime):
                FpMatrix(np.eye(2), 4)
        assert calls == [7, 4, 4]


class TestRref:
    def test_identity_full_rank(self):
        res = rref(FpMatrix(np.eye(3), 3))
        assert res.rank == 3
        assert res.pivots == (0, 1, 2)
        assert res.kernel_basis == []
        assert len(res.image_basis) == 3

    def test_zero_matrix(self):
        res = rref(FpMatrix(np.zeros((2, 4)), 5))
        assert res.rank == 0
        assert len(res.kernel_basis) == 4
        # free-variable parameterization gives the standard basis here
        assert sorted(v.tolist() for v in res.kernel_basis) == [
            [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0],
        ]

    def test_rank_one_kernel(self):
        m = FpMatrix([[1, 2], [2, 4]], 5)
        res = rref(m)
        assert res.rank == 1
        assert len(res.kernel_basis) == 1
        assert res.kernel_basis[0].tolist() == [3, 1]  # -2 = 3 mod 5
        assert res.image_basis[0].tolist() == [1, 2]

    def test_kernel_vectors_annihilate(self):
        m = FpMatrix([[1, 2, 3], [4, 5, 6]], 7)
        for v in rref(m).kernel_basis:
            assert not (m.a @ v % 7).any()

    def test_kernel_basis_helper(self):
        assert len(kernel_basis(FpMatrix(np.zeros((1, 3)), 3))) == 3


def test_solve_consistent_and_inconsistent():
    m = FpMatrix([[1, 2], [0, 1]], 5)
    x = solve(m, [3, 4])
    assert (m.a @ x % 5).tolist() == [3, 4]
    # [[1,1],[1,1]] x = (1, 0) has no solution
    assert solve(FpMatrix([[1, 1], [1, 1]], 3), [1, 0]) is None
    with pytest.raises(ValueError):
        solve(m, [1, 2, 3])


def test_solve_in_span():
    """Coefficients of v in the columns of a basis, or None off their span."""
    basis = FpMatrix(np.column_stack([[1, 0, 1], [0, 1, 1]]), 5)
    assert solve(basis, [1, 2, 3]).tolist() == [1, 2]
    assert solve(basis, [0, 0, 1]) is None
    empty = FpMatrix(np.zeros((2, 0), dtype=np.int64), 5)
    assert solve(empty, [0, 0]).size == 0
    assert solve(empty, [1, 0]) is None


class TestNilpotentPartition:
    def test_zero_operator(self):
        assert nilpotent_partition(_sparse(np.zeros((4, 4), dtype=np.int64)), 3) == [1, 1, 1, 1]

    def test_single_jordan_block(self):
        j = np.zeros((3, 3), dtype=int)
        j[0, 1] = j[1, 2] = 1
        assert nilpotent_partition(_sparse(j), 3) == [3]

    def test_cycle_minus_identity(self):
        """sigma - 1 for the regular representation is one full block."""
        p = 5
        s = np.zeros((p, p), dtype=int)
        for j in range(p):
            s[(j + 1) % p, j] = 1
        t = _sparse((s - np.eye(p, dtype=int)) % p)
        assert nilpotent_partition(t, p) == [p]

    def test_mixed_blocks(self):
        a = np.zeros((5, 5), dtype=int)
        a[0, 1] = 1  # one block of size 2, three of size 1
        assert nilpotent_partition(_sparse(a), 5) == [2, 1, 1, 1]

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotent):
            nilpotent_partition([{0: 1}, {1: 1}], 3)
        with pytest.raises(NotNilpotent, match="square"):
            nilpotent_partition([{}, {2: 1}], 3)  # 3 x 2


@st.composite
def fp_matrices(draw, max_n=6):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    rows = draw(st.integers(1, max_n))
    cols = draw(st.integers(1, max_n))
    entries = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return FpMatrix(np.array(entries, dtype=int).reshape(rows, cols), p)


@given(fp_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(m):
    res = rref(m)
    assert res.rank + len(res.kernel_basis) == m.cols
    assert res.rank == len(res.image_basis)
    for v in res.kernel_basis:
        assert not (m.a @ v % m.p).any()


@given(fp_matrices(max_n=5))
@settings(max_examples=40, deadline=None)
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(FpMatrix(m.a.T, m.p))


@given(st.sampled_from((2, 3, 5)), st.data())
@settings(max_examples=40, deadline=None)
def test_planted_partition_recovered(p, data):
    """A direct sum of Jordan blocks decomposes back into its sizes."""
    sizes = data.draw(
        st.lists(st.integers(1, p), min_size=1, max_size=4), label="sizes"
    )
    n = sum(sizes)
    a = np.zeros((n, n), dtype=int)
    off = 0
    for s in sizes:
        for t in range(s - 1):
            a[off + t, off + t + 1] = 1
        off += s
    assert nilpotent_partition(_sparse(a), p) == sorted(sizes, reverse=True)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_partition_matches_all_p_ranks_on_fixed_seeds(p):
    """Stopping at the first repeated rank gives the sizes and the refusals
    of taking all p - 1 ranks and t^p: on planted sigma - 1, on Jordan
    blocks longer than p, on strictly triangular and on random matrices."""
    rng = random.Random(p)
    cases = []
    for seed in range(20):
        sigma, _ = random_sigma_with_multiplicities(p, seed, max_dim=14)
        cases.append(sigma.a - np.eye(sigma.rows, dtype=np.int64))
    cases += [np.eye(n, k=1, dtype=np.int64) for n in (p - 1, p, p + 1, p + 3)]
    for k in (1, 0):  # strictly upper triangular (nilpotent), then any
        for _ in range(15):
            n = rng.randint(0, 9)
            a = np.array([rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(n * n)], dtype=np.int64)
            cases.append(np.triu(a.reshape(n, n), k))
    refused = 0
    for a in cases:
        t = FpMatrix(a, p)
        try:
            want = nilpotent_partition_by_p_ranks(t)
        except NotNilpotent as e:
            refused += 1
            with pytest.raises(NotNilpotent) as got:
                nilpotent_partition(_sparse(t.a), p)
            assert str(got.value) == str(e)
        else:
            assert nilpotent_partition(_sparse(t.a), p) == want, a.tolist()
    assert 0 < refused < len(cases)


def _permutation_sigma(p, n_free, n_fixed, rng):
    """A permutation of n_free p-cycles and n_fixed fixed points, shuffled."""
    n = p * n_free + n_fixed
    points = rng.sample(range(n), n)
    image = list(range(n))
    for b in range(n_free):
        cycle = points[b * p:(b + 1) * p]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            image[x] = y
    a = np.zeros((n, n), dtype=np.int64)
    a[image, range(n)] = 1
    return a


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_column_rank_matches_the_dense_oracle_on_both_sides_of_the_density_choice(p, monkeypatch):
    """column_rank, and the Jordan partition and fixed dimension of sigma
    taken through it, against _row_reduce on the dense array.  Random
    matrices of every shape around the size floor and at three densities;
    permutation sigma, whose columns stay sparse at any size and must never
    be made dense; and conjugated random_sigma_matrix sigma, dense, which
    must be made dense past the floor and not below it."""
    dense = []
    real = fp_core._row_reduce
    monkeypatch.setattr(fp_core, "_row_reduce", lambda a, q: dense.append(a.shape) or real(a, q))
    rng = random.Random(p)
    for rows, cols in ((1, 1), (7, 5), (20, 20), (31, 33), (40, 40), (24, 60), (60, 24)):
        for density in (0.05, 0.3, 1.0):
            a = np.array([[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)])
            assert column_rank(_sparse(a), rows, p) == rank(FpMatrix(a, p)), (a.tolist(), p)
    assert dense and len(dense) < 21

    def check(sigma):
        n = len(sigma)
        t = _affine(_sparse(sigma), 1, -1, p)
        want = nilpotent_partition_by_p_ranks(FpMatrix(sigma - np.eye(n, dtype=np.int64), p))
        assert nilpotent_partition(t, p) == want, sigma.tolist()
        assert n - column_rank(t, n, p) == fixed_dim(sigma, p) == len(want), sigma.tolist()

    for n_free, n_fixed in ((1, 0), (3, 2), (40 // p, 11), (120 // p, 0)):
        dense.clear()
        check(_permutation_sigma(p, n_free, n_fixed, rng))
        assert dense == []
    for seed, mults in enumerate([(0,) * (p - 1) + (2,), (3,) + (0,) * (p - 2) + (1,), (1,) * p, (0,) * (p - 1) + (48 // p,)]):
        dense.clear()
        sigma = random_sigma_matrix(p, mults, seed).a
        check(sigma)
        assert bool(dense) == (len(sigma) >= 32), (mults, dense)


def test_partition_takes_at_most_n_plus_1_ranks(monkeypatch):
    """At the largest matrix prime a 2 x 2 nilpotent t takes at most
    n + 1 = 3 ranks, not p - 1, and returns at once."""
    calls = []
    real = fp_core.column_rank
    monkeypatch.setattr(fp_core, "column_rank", lambda *a: calls.append(a) or real(*a))
    t0 = time.perf_counter()
    assert nilpotent_partition([{}, {0: 1}], 16777213) == [2]
    assert nilpotent_partition([{}, {}], 16777213) == [1, 1]
    assert time.perf_counter() - t0 < 1
    assert len(calls) == 3 + 2
    with pytest.raises(NotNilpotent, match="t\\^16777213 != 0"):
        nilpotent_partition([{0: 1}, {0: 1, 1: 1}], 16777213)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestMillerRabin:
    def test_agrees_with_trial_division_below_1e5(self):
        assert [n for n in range(100_000) if is_prime(n)] == [n for n in range(100_000) if _trial_division(n)]

    @pytest.mark.parametrize(
        "n",
        [
            561, 1105, 1729, 41041, 825265, 321197185,  # Carmichael numbers
            # the least strong pseudoprimes to every prime base up to 2, 3,
            # 5, 7, 11, 13, 17 (and 19), 23 (to 31) and 37
            2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
            341550071728321, 3825123056546413051, 318665857834031151167461,
        ],
    )
    def test_rejects_pseudoprimes(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [16777213, 2**31 - 1, 10**14 + 31, 2**61 - 1])
    def test_accepts_large_primes(self, n):
        assert is_prime(n)
        assert check_prime(n) == n

    @pytest.mark.parametrize("n", [(2**31 - 1) ** 2, 16777213 * (10**14 + 31), (2**61 - 1) * 1000003])
    def test_rejects_large_semiprimes(self, n):
        with pytest.raises(NotPrime):
            check_prime(n)

    def test_bound_raises(self):
        assert PRIMALITY_BOUND == 3_317_044_064_679_887_385_961_981
        for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 2, 2**89 - 1, 2**90):
            with pytest.raises(PrimeTooLarge, match=str(PRIMALITY_BOUND)):
                check_prime(n)


def test_jordan_partition_checks_the_block_sum(monkeypatch):
    t = [{}, {0: 1}]
    assert nilpotent_partition(t, 3) == [2]
    monkeypatch.setattr("smith_tate.fp_core.column_rank", lambda columns, rows, p: 1)
    with pytest.raises(RuntimeError, match="do not sum to the dimension 2"):
        nilpotent_partition(t, 3)


@pytest.mark.parametrize("p", [2, 3, 16777213])
@pytest.mark.parametrize("density", [0.05, 0.3, 0.9])
def test_leading_pivots_count_the_rank_of_every_leading_submatrix(p, density):
    """The pairing lemma: one column reduction gives rank a[:i, :j] for
    every i and j as the number of pivots inside the cut."""
    rng = np.random.default_rng([p, int(100 * density)])
    for _ in range(8):
        rows, cols = (int(x) for x in rng.integers(0, 13, size=2))
        a = np.where(rng.random((rows, cols)) < density, rng.integers(1, p, size=(rows, cols)), 0)
        r, c = leading_pivots(a, p)
        assert len(r) == rank(FpMatrix(a, p))
        for i in range(rows + 1):
            for j in range(cols + 1):
                assert np.count_nonzero((r < i) & (c < j)) == rank(FpMatrix(a[:i, :j], p)), (a.tolist(), i, j)

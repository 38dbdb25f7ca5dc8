"""Exact linear algebra over F_p: rank, kernels, solving, Jordan partitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smith_tate.complexes import ChainComplex, Generator
from smith_tate.errors import NotNilpotent, NotPrime, PrimeTooLarge
from smith_tate.fp_core import (
    MATRIX_PRIME_BOUND,
    PRIMALITY_BOUND,
    FpMatrix,
    FpScalar,
    check_prime,
    is_prime,
    kernel_basis,
    leading_pivots,
    nilpotent_partition,
    rank,
    rref,
    solve,
    solve_in_span,
)


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
        assert ((FpMatrix(a, p) @ FpMatrix(a, p)).a == 64 % p).all()
        cx = ChainComplex(p, [Generator("x", 0), Generator("y", 1)], {"x": {"y": big}})
        assert cx.homology_dims() == {}

    def test_scalars_keep_any_prime(self):
        x = FpScalar(self.TOO_LARGE - 1, self.TOO_LARGE)
        assert int(x * x) == 1


def test_check_prime_rejects_composites():
    assert check_prime(5) == 5
    with pytest.raises(NotPrime):
        check_prime(6)
    with pytest.raises(NotPrime):
        check_prime(1)


class TestFpScalar:
    def test_reduction_and_arithmetic(self):
        a = FpScalar(7, 5)
        assert a.value == 2
        b = FpScalar(4, 5)
        assert (a + b).value == 1
        assert (a - b).value == 3
        assert (a * b).value == 3
        assert int(a) == 2

    def test_inverse(self):
        assert FpScalar(2, 5).inverse().value == 3
        assert FpScalar(4, 7).inverse().value == 2
        with pytest.raises(ZeroDivisionError):
            FpScalar(0, 5).inverse()

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            FpScalar(1, 3) + FpScalar(1, 5)

    def test_modulus_must_be_prime(self):
        with pytest.raises(NotPrime):
            FpScalar(1, 4)


class TestFpMatrix:
    def test_construction_reduces_mod_p(self):
        m = FpMatrix([[5, -1], [3, 7]], 3)
        assert m.a.tolist() == [[2, 2], [0, 1]]
        assert m.rows == 2 and m.cols == 2

    def test_vector_input_becomes_column(self):
        m = FpMatrix([1, 2, 3], 5)
        assert (m.rows, m.cols) == (3, 1)

    def test_identity_and_zeros(self):
        assert FpMatrix.identity(3, 5) == FpMatrix(np.eye(3, dtype=int), 5)
        assert FpMatrix.zeros(2, 3, 5).is_zero()

    def test_arithmetic(self):
        a = FpMatrix([[1, 2], [0, 1]], 5)
        b = FpMatrix([[1, 0], [3, 1]], 5)
        assert (a + b).a.tolist() == [[2, 2], [3, 2]]
        assert (a - b).a.tolist() == [[0, 2], [2, 0]]
        assert (a @ b).a.tolist() == [[2, 2], [3, 1]]
        assert (-a).a.tolist() == [[4, 3], [0, 4]]

    def test_power(self):
        j = FpMatrix([[1, 1], [0, 1]], 3)
        assert j.power(3) == FpMatrix.identity(2, 3)
        assert j.power(0) == FpMatrix.identity(2, 3)
        with pytest.raises(ValueError):
            FpMatrix.zeros(2, 3, 3).power(2)

    def test_power_takes_no_wasted_products(self, monkeypatch):
        """power(k) makes floor(log2 k) + popcount(k) - 1 products for
        k >= 1 and none for k = 0, where it is the identity."""
        m = FpMatrix([[1, 1, 0], [0, 1, 2], [1, 0, 1]], 5)
        products = []
        real = FpMatrix.__matmul__

        def counting(a, b):
            products.append(1)
            return real(a, b)

        monkeypatch.setattr(FpMatrix, "__matmul__", counting)
        want = np.eye(3, dtype=np.int64)
        for k in range(70):
            products.clear()
            assert m.power(k).a.tolist() == want.tolist(), k
            assert len(products) == (k.bit_length() + bin(k).count("1") - 2 if k else 0), k
            want = want @ m.a % 5

    def test_operators_do_not_recheck_the_prime(self, monkeypatch):
        a = FpMatrix([[1, 2], [3, 4]], 7)
        b = FpMatrix([[0, 1], [1, 0]], 7)
        calls = []
        real = is_prime
        monkeypatch.setattr("smith_tate.fp_core.is_prime", lambda n: calls.append(n) or real(n))
        assert (a @ b).a.tolist() == [[2, 1], [4, 3]]
        assert (a + b).a.tolist() == [[1, 3], [4, 4]]
        assert (a - b).a.tolist() == [[1, 1], [2, 4]]
        assert (-a).a.tolist() == [[6, 5], [4, 3]]
        assert a.power(2) == a @ a
        assert FpMatrix.identity(2, 7) @ a == a
        assert FpMatrix.zeros(2, 3, 7).is_zero()
        assert calls == []
        for _ in range(2):
            with pytest.raises(NotPrime):
                FpMatrix(np.eye(2), 4)
        assert calls == [4, 4]

    def test_mul_vec_and_column(self):
        m = FpMatrix([[1, 2], [3, 4]], 5)
        assert m.mul_vec([1, 1]).tolist() == [3, 2]
        assert m.column(1).tolist() == [2, 4]

    def test_equality_ignores_nothing(self):
        assert FpMatrix([[1]], 3) != FpMatrix([[1]], 5)
        assert FpMatrix([[1]], 3) != FpMatrix([[1, 0]], 3)


class TestRref:
    def test_identity_full_rank(self):
        res = rref(FpMatrix.identity(3, 3))
        assert res.rank == 3
        assert res.pivots == (0, 1, 2)
        assert res.kernel_basis == []
        assert len(res.image_basis) == 3

    def test_zero_matrix(self):
        res = rref(FpMatrix.zeros(2, 4, 5))
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
            assert not m.mul_vec(v).any()

    def test_kernel_basis_helper(self):
        assert len(kernel_basis(FpMatrix.zeros(1, 3, 3))) == 3


def test_solve_consistent_and_inconsistent():
    m = FpMatrix([[1, 2], [0, 1]], 5)
    x = solve(m, [3, 4])
    assert m.mul_vec(x).tolist() == [3, 4]
    # [[1,1],[1,1]] x = (1, 0) has no solution
    assert solve(FpMatrix([[1, 1], [1, 1]], 3), [1, 0]) is None
    with pytest.raises(ValueError):
        solve(m, [1, 2, 3])


def test_solve_in_span():
    basis = [np.array([1, 0, 1]), np.array([0, 1, 1])]
    c = solve_in_span(basis, np.array([1, 2, 3]), 5)
    assert c.tolist() == [1, 2]
    assert solve_in_span(basis, np.array([0, 0, 1]), 5) is None
    assert solve_in_span([], np.array([0, 0]), 5).size == 0
    assert solve_in_span([], np.array([1, 0]), 5) is None


class TestNilpotentPartition:
    def test_zero_operator(self):
        assert nilpotent_partition(FpMatrix.zeros(4, 4, 3)) == [1, 1, 1, 1]

    def test_single_jordan_block(self):
        j = np.zeros((3, 3), dtype=int)
        j[0, 1] = j[1, 2] = 1
        assert nilpotent_partition(FpMatrix(j, 3)) == [3]

    def test_cycle_minus_identity(self):
        """sigma - 1 for the regular representation is one full block."""
        p = 5
        s = np.zeros((p, p), dtype=int)
        for j in range(p):
            s[(j + 1) % p, j] = 1
        t = FpMatrix(s, p) - FpMatrix.identity(p, p)
        assert nilpotent_partition(t) == [p]

    def test_mixed_blocks(self):
        a = np.zeros((5, 5), dtype=int)
        a[0, 1] = 1  # one block of size 2, three of size 1
        assert nilpotent_partition(FpMatrix(a, 5)) == [2, 1, 1, 1]

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotent):
            nilpotent_partition(FpMatrix.identity(2, 3))
        with pytest.raises(NotNilpotent):
            nilpotent_partition(FpMatrix.zeros(2, 3, 3))


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
        assert not m.mul_vec(v).any()


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
    assert nilpotent_partition(FpMatrix(a, p)) == sorted(sizes, reverse=True)


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
    t = FpMatrix([[0, 1], [0, 0]], 3)
    assert nilpotent_partition(t) == [2]
    monkeypatch.setattr("smith_tate.fp_core.rank", lambda m: 1)
    with pytest.raises(RuntimeError, match="do not sum to the dimension 2"):
        nilpotent_partition(t)


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

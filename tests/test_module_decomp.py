"""Jordan block bookkeeping for order-p operators and the dimension chain."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smith_tate.complexes import _sparse
from smith_tate.errors import NotOrderP
from smith_tate.module_decomp import (
    ModuleDecomposition,
    decompose,
    smith_chain_check,
    tate_and_invariant_dims,
)
from smith_tate.random_instances import random_sigma_matrix, random_sigma_with_multiplicities


def from_triplets(rows, cols, triplets, p):
    """(columns, p) of the matrix with entry (i, j) the sum of the v of its
    triplets (i, j, v)."""
    a = np.zeros((rows, cols), dtype=np.int64)
    for i, j, v in triplets:
        a[i, j] += v
    return _sparse(a % p), p


def cyclic_shift(n, p):
    return from_triplets(n, n, [((j + 1) % n, j, 1) for j in range(n)], p)


def planted(sigma):
    """(columns, p) of a sampled sigma."""
    return _sparse(sigma.a), sigma.p


class TestModuleDecomposition:
    def test_derived_quantities(self):
        d = ModuleDecomposition(3, (2, 0, 1))
        assert d.dim == 5
        assert d.free_rank == 1
        assert not d.is_free
        assert ModuleDecomposition(3, (0, 0, 2)).is_free

    def test_length_must_be_p(self):
        with pytest.raises(ValueError):
            ModuleDecomposition(3, (1, 2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ModuleDecomposition(3, (1, -1, 0))


class TestDecompose:
    def test_identity_is_all_trivial(self):
        d = decompose(_sparse(np.eye(4, dtype=np.int64)), 3)
        assert d.multiplicities == (4, 0, 0)

    def test_regular_module(self):
        d = decompose(*cyclic_shift(5, 5))
        assert d.multiplicities == (0, 0, 0, 0, 1)
        assert d.is_free and d.free_rank == 1

    def test_trivial_plus_regular(self):
        s = from_triplets(
            4, 4, [(0, 0, 1)] + [((j + 1) % 3 + 1, j + 1, 1) for j in range(3)], 3
        )
        assert decompose(*s).multiplicities == (1, 0, 1)

    def test_jordan_block_of_middle_size(self):
        assert decompose([{0: 1}, {0: 1, 1: 1}], 3).multiplicities == (0, 1, 0)

    def test_non_square_rejected(self):
        with pytest.raises(NotOrderP, match="^sigma must be square$"):
            decompose([{0: 1}, {2: 1}], 5)  # 3 x 2

    def test_wrong_order_rejected(self):
        with pytest.raises(NotOrderP, match=r"^sigma\^5 != identity$"):
            decompose([{0: 2}], 5)  # 2 has order 4 in F_5
        with pytest.raises(NotOrderP, match=r"^sigma\^5 != identity$"):
            decompose(*cyclic_shift(4, 5))  # a 4-cycle has order 4, not 5

    def test_conjugation_invariant(self):
        base = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        g = np.array([[1, 2, 0], [0, 1, 1], [0, 0, 1]])
        ginv = np.array([[1, 1, 2], [0, 1, 2], [0, 0, 1]])
        assert (g @ ginv % 3).tolist() == np.eye(3).tolist()
        assert decompose(_sparse(g @ base @ ginv % 3), 3).multiplicities == decompose(*cyclic_shift(3, 3)).multiplicities


class TestTateAndInvariantDims:
    @pytest.mark.parametrize(
        "mults,expected",
        [
            ((1, 0, 0), (2, 1)),
            ((0, 0, 1), (0, 1)),
            ((2, 1, 0), (6, 3)),
            ((0, 0, 0), (0, 0)),
        ],
    )
    def test_formula(self, mults, expected):
        assert tate_and_invariant_dims(ModuleDecomposition(3, mults)) == expected


class TestSmithChainCheck:
    def test_trivial_line_everything_tight(self):
        report = smith_chain_check(1, [{0: 1}], 3)
        assert (report.sharpened_bound, report.invariant_dim, report.module_dim) == (1, 1, 1)
        assert report.chain_holds
        assert not report.sharpened_strictly_stronger

    def test_free_module_separates_the_bounds(self):
        # one free block: classical bound 1 passes, sharpened bound 0 fails
        report = smith_chain_check(1, *cyclic_shift(3, 3))
        assert report.sharpened_bound == 0
        assert report.invariant_dim == 1
        assert report.module_dim == 3
        assert not report.holds_sharpened
        assert report.holds_classical
        assert report.holds_invariant_leq_dim
        assert report.sharpened_strictly_stronger
        assert not report.chain_holds

    def test_mixed_module(self):
        s = from_triplets(
            5,
            5,
            [(0, 0, 1), (1, 1, 1)] + [((j + 1) % 3 + 2, j + 2, 1) for j in range(3)],
            3,
        )
        report = smith_chain_check(2, *s)
        assert (report.sharpened_bound, report.invariant_dim, report.module_dim) == (2, 3, 5)
        assert report.chain_holds
        assert report.sharpened_strictly_stronger
        assert report.decomposition.multiplicities == (2, 0, 1)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            smith_chain_check(-1, [{0: 1}], 3)


@given(st.sampled_from((2, 3, 5)), st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_planted_multiplicities_recovered(p, seed):
    sigma, mults = random_sigma_with_multiplicities(p, seed, max_dim=10)
    assert decompose(*planted(sigma)).multiplicities == mults


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_dimension_chain_on_planted_sigma(seed):
    p = 3
    sigma, mults = random_sigma_with_multiplicities(p, seed, max_dim=10)
    d = decompose(*planted(sigma))
    tate_total, invariant = tate_and_invariant_dims(d)
    assert tate_total == 2 * sum(mults[:-1])
    assert invariant <= d.dim
    report = smith_chain_check(0, *planted(sigma))
    assert report.chain_holds


def test_explicit_multiplicity_request():
    sigma = random_sigma_matrix(3, (1, 1, 1), 42)
    assert sigma.rows == 6
    assert decompose(*planted(sigma)).multiplicities == (1, 1, 1)


def test_dimension_chain_checks_the_invariant_dimension(monkeypatch):
    sigma = cyclic_shift(3, 3)
    assert smith_chain_check(1, *sigma).invariant_dim == 1
    monkeypatch.setattr("smith_tate.module_decomp.column_rank", lambda columns, rows, p: 0)
    with pytest.raises(RuntimeError, match="invariant dimension 3 from rank"):
        smith_chain_check(1, *sigma)

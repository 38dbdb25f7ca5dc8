"""Sparse operators from parse to reduction, against the dense routes.

A complex keeps d and sigma as sparse columns.  Its checks (d.d = 0,
sigma^p = 1 as N sigma = N, d sigma = sigma d) are sparse compositions, and
Tate and group cohomology read the sparse columns of M(1) = [[d, N],
[1 - sigma, -d]].  complexes._compose runs a product dense through BLAS
when its predicted sparse work passes the dense cost.  These tests compare
every outcome with the dense oracles on both sides of that choice: tensor
powers, free, filtered and random equivariant complexes, complexes whose
sigma is conjugated by a dense matrix, a prime near 2^24, and unchecked
complexes that break square-zero, sigma^p = 1 or equivariance.
"""

import random
from collections import Counter

import numpy as np
import pytest
from oracles import (
    _matpow,
    construction_error_by_loops,
    group_cohomology_by_cut_ranks,
    parity_dims_by_dense_rank,
    sigma_violations_dense,
    structure_violations_by_loops,
    tate_blocks_dense,
    tate_column_blocks,
    tate_homogeneity_dense,
    validate_by_message_text,
)
from test_complexes import _unchecked_equivariant
from test_grading_checks import _fixed_flags, _outcome
from test_tate import _tensor_bases, _unchecked_graded

import smith_tate.complexes as complexes
from smith_tate.complexes import (
    EquivariantComplex,
    Generator,
    _coeff_map,
    _compose,
    _dense,
    _power,
    _sparse,
    tensor_power,
)
from smith_tate.random_instances import (
    random_equivariant_filtered,
    random_free_equivariant,
    random_sigma_matrix,
)
from smith_tate.tate import group_cohomology_dims, tate_cohomology_dims

HUGE_PRIME = 16777213  # the largest prime below fp_core.MATRIX_PRIME_BOUND = 2^24


def _counting(monkeypatch, name):
    """The calls of complexes.name, counted while it still runs."""
    calls = []
    real = getattr(complexes, name)
    monkeypatch.setattr(complexes, name, lambda *a: calls.append(a) or real(*a))
    return calls


def _random_columns(rng, n, per_column, p):
    return [{i: rng.randrange(1, p) for i in rng.sample(range(n), per_column)} for _ in range(n)]


def dense_sigma_complex(p, multiplicities, seed, with_d=False):
    """Generators in degree 0 with sigma a seeded random matrix of the given
    Jordan multiplicities (free orbits when all blocks have size p),
    conjugated by a dense invertible matrix; with_d adds a copy of them in
    degree 1 and d the identity onto it, which commutes with sigma."""
    s = random_sigma_matrix(p, multiplicities, seed).a
    n = len(s)
    ids = [f"a{i:03d}" for i in range(n)]
    sigma = _coeff_map(_sparse(s), ids)
    gens = [Generator(g, 0) for g in ids]
    diff = {}
    if with_d:
        top = [f"b{i:03d}" for i in range(n)]
        gens += [Generator(g, 1) for g in top]
        sigma.update(_coeff_map(_sparse(s), top))
        diff = {a: {b: 1} for a, b in zip(ids, top)}
    return EquivariantComplex(p, gens, diff, sigma, check=False)


def _broken(V, seed):
    """V with one random entry added to d or to sigma, within the degree
    rules, built unchecked: it may break d.d = 0, sigma^p = 1 or
    equivariance."""
    rng = random.Random(seed)
    gens = V.generators
    diff = {s: dict(row) for s, row in V.differential.items()}
    sigma = {s: dict(row) for s, row in V.sigma.items()}
    for _ in range(20):
        a, b = rng.choice(gens), rng.choice(gens)
        table = diff if b.degree == a.degree + 1 else sigma if b.degree == a.degree else None
        if table is not None:
            if table is sigma and a.id not in sigma:
                sigma[a.id] = {a.id: 1}
            row = table.setdefault(a.id, {})
            row[b.id] = (row.get(b.id, 0) + 1 + rng.randrange(V.p - 1)) % V.p
            break
    return EquivariantComplex(V.p, gens, diff, sigma, check=False)


def _cases(p):
    """Fixed-seed complexes at p of every family the sparse route sees."""
    for seed in range(4):
        yield f"free-{seed}", random_free_equivariant(p, seed)
        yield f"filtered-{seed}", random_equivariant_filtered(p, seed)
        yield f"unchecked-graded-{seed}", _unchecked_graded(p, seed)
        yield f"unchecked-{seed}", _unchecked_equivariant(p, seed)
    chain = [Generator("x", 0), Generator("y", 1), Generator("z", 2)]
    yield "not-square-zero", EquivariantComplex(p, chain, {"x": {"y": 1}, "y": {"z": 1}}, {}, check=False)
    for k, base in enumerate(_tensor_bases(p, {2: 5, 3: 3, 5: 2, 7: 2}[p], 3)):
        yield f"tensor-{k}", tensor_power(base)
    free = (0,) * (p - 1) + (3,)
    mixed = (2,) + (0,) * (p - 2) + (2,) if p > 2 else (2, 2)
    for k, mults in enumerate((free, mixed)):
        yield f"dense-sigma-{k}", dense_sigma_complex(p, mults, k)
        yield f"dense-sigma-d-{k}", dense_sigma_complex(p, mults, k, with_d=True)
    valid = {
        "filtered": random_equivariant_filtered(p, 1),
        "free": random_free_equivariant(p, 2),
        "dense-sigma": dense_sigma_complex(p, (1,) * p, 3, with_d=True),
    }
    for name, V in valid.items():
        for seed in range(3):
            yield f"broken-{name}-{seed}", _broken(V, seed)


def _check_against_oracles(V, bareiss=True):
    """Construction, validate, the Tate blocks and the Tate and group dims
    of V against the dense routes; returns the failed checks."""
    p = V.p
    d_msgs, sigma = structure_violations_by_loops(V), sigma_violations_dense(V)
    assert [m for _, m in V._structure_violations()] == d_msgs
    assert V._sigma_violations() == sigma
    want = "; ".join(d_msgs or [m for _, m in sigma]) or None
    built = _outcome(EquivariantComplex, p, V.generators, V.differential, V.sigma)
    assert built == (("ok", built[1]) if want is None else ("InvalidComplex", want))
    report = V.validate()
    assert report.violations == d_msgs + [m for _, m in sigma]
    if p < 100:  # the loop oracles take sigma^p in p - 1 products
        assert want == construction_error_by_loops(V)
        old = validate_by_message_text(V)
        assert (report.violations, report.checks) == (old.violations, _fixed_flags(old))
    tate = _outcome(tate_column_blocks, V)
    assert tate[0] == _outcome(tate_homogeneity_dense, V)[0]
    if tate[0] != "ok":
        assert tate == _outcome(tate_homogeneity_dense, V)
        return {c for c, ok in report.checks.items() if not ok}
    dense = tate_blocks_dense(V)
    assert all(np.array_equal(x, y) for x, y in zip(tate[1], dense))
    degrees = [g.degree for g in V.generators]
    dims = parity_dims_by_dense_rank(degrees, *dense, p)
    assert tate_cohomology_dims(V) == dims
    if bareiss:
        assert tate_cohomology_dims(V, method="bareiss") == dims
    if V.dim():
        assert group_cohomology_dims(V) == group_cohomology_by_cut_ranks(V)
    return {c for c, ok in report.checks.items() if not ok}


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_checks_and_dims_match_the_dense_routes(p):
    """Every family, with each of the three checks failing on some input."""
    failed = Counter()
    for name, V in _cases(p):
        failed.update(_check_against_oracles(V, bareiss=V.dim() <= 40))
    for check in ("square_zero", "sigma_structure", "equivariance"):
        assert failed[check] > 0, (check, failed)


def test_a_prime_near_2_24_takes_logarithmically_many_compositions(monkeypatch):
    """N = (sigma - 1)^(p-1) by squaring: at p = 16777213 construction
    takes floor(log2(p - 1)) + popcount(p - 1) - 1 compositions for N and
    four for the checks (d.d, N sigma, d sigma, sigma d)."""
    p = HUGE_PRIME
    gens = [Generator("a", 0), Generator("b", 0), Generator("c", 1), Generator("e", 1)]
    # sigma = 1 + E with E nilpotent has order p, and commutes with d
    good = ({"a": {"c": 1}, "b": {"e": 2}}, {"a": {"a": 1, "b": 3}, "c": {"c": 1, "e": 6}})
    breaks = [
        ({"a": {"c": 1}, "b": {"e": 2}}, {"a": {"a": 2}}),  # sigma^p = 2^p = 2
        ({"a": {"c": 1}, "b": {"e": 5}}, {"a": {"a": 1, "b": 3}, "c": {"c": 1, "e": 6}}),  # not equivariant
    ]
    calls = _counting(monkeypatch, "_compose")
    V = EquivariantComplex(p, gens, *good)
    norm = (p - 1).bit_length() - 1 + bin(p - 1).count("1") - 1
    assert len(calls) == norm + 4 < 3 * p.bit_length()
    for diff, sigma in [good] + breaks:
        _check_against_oracles(EquivariantComplex(p, gens, diff, sigma, check=False))
    assert tate_cohomology_dims(V) == (0, 0)  # d is an isomorphism


def test_compose_matches_the_dense_product_on_both_routes(monkeypatch):
    """Random columns from one entry each to full: the sparse loop runs
    while the predicted work stays below the dense cost, and BLAS above."""
    dense_calls = _counting(monkeypatch, "_matmul_mod")
    rng = random.Random(0)
    seen = Counter()
    for p in (2, 7, HUGE_PRIME):
        for n in (1, 5, 40, 130):
            for k in sorted({1, min(2, n), max(1, n // 4), n}):
                a, b = _random_columns(rng, n, k, p), _random_columns(rng, n, k, p)
                work = sum(len(a[t]) for col in b for t in col)
                dense_calls.clear()
                got = _compose(a, b, p)
                want = _sparse(_dense(a, n) @ _dense(b, n) % p)
                assert got == want, (p, n, k)
                dense = work > n * n + n**3 // complexes._BLAS_GAIN + complexes._DENSE_FIXED_STEPS
                assert len(dense_calls) == dense, (p, n, k, work)
                seen[dense] += 1
    assert seen[True] > 0 and seen[False] > 0
    s = _random_columns(rng, 30, 3, 7)
    for k in (1, 2, 6, 7, 100):
        assert _dense(_power(s, k, 7), 30).tolist() == _matpow(_dense(s, 30), k, 7).tolist()


def test_the_dense_route_runs_on_dense_sigma_and_not_on_tensor_powers(monkeypatch):
    """Building and checking a complex with sigma conjugated by a dense
    matrix takes BLAS products; a tensor power's signed permutation none."""
    dense_calls = _counting(monkeypatch, "_matmul_mod")
    V = dense_sigma_complex(7, (0,) * 6 + (10,), 0)
    EquivariantComplex(7, V.generators, V.differential, V.sigma)
    assert dense_calls
    dense_calls.clear()
    base = EquivariantComplex(3, [Generator(f"g{i}", i % 3) for i in range(4)], {"g0": {"g1": 1}})
    T = tensor_power(base)
    assert T.dim() == 64 and tate_cohomology_dims(T) == (2, 2)
    assert not dense_calls


def test_sparse_and_dense_readers_are_inverse():
    rng = np.random.default_rng(0)
    for shape in ((0, 0), (3, 0), (0, 3), (4, 7), (7, 4), (30, 30)):
        m = rng.integers(0, 5, shape) * (rng.random(shape) < 0.4)
        cols = _sparse(m)
        assert len(cols) == shape[1] and all(0 not in c.values() for c in cols)
        assert np.array_equal(_dense(cols, shape[0]), m)

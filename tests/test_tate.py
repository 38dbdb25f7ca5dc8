"""Tate and group cohomology, the quasi-Frobenius map."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from smith_tate.complexes import (
    ChainComplex,
    EquivariantComplex,
    FilteredComplex,
    Generator,
    complex_from_json,
    complex_to_json,
    tensor_power,
)
from smith_tate.errors import InvalidComplex, TooLarge
from smith_tate.tate import assemble, group_cohomology_dims, quasi_frobenius, tate_cohomology_dims
from smith_tate.random_instances import (
    _conjugated,
    random_chain_complex,
    random_equivariant_filtered,
    random_floer_model,
    random_filtered_complex,
    random_free_equivariant,
)

from oracles import (
    bareiss_blocks_by_cut,
    blocks_square_zero,
    group_cohomology_by_cut_ranks,
    group_cohomology_by_searchsorted,
    group_cohomology_by_slots,
    model_blocks,
    parity_dims_by_dense_rank,
    poly_square_is_zero,
    tate_column_blocks,
    tate_poly_parity_blocks,
)


def trivial_point(p=3, degree=0):
    return EquivariantComplex(p, [Generator("v", degree)], {}, {})


def free_orbit(p, degree=0):
    gens = [Generator(f"e{j}", degree) for j in range(p)]
    sigma = {f"e{j}": {f"e{(j + 1) % p}": 1} for j in range(p)}
    return EquivariantComplex(p, gens, {}, sigma)


def square_at_one_is_zero(V):
    return blocks_square_zero(*tate_column_blocks(V), V.p)


class TestTateView:
    def test_parity_split_of_point(self):
        V = trivial_point()
        _, _, even, odd = tate_poly_parity_blocks(V)
        ids = [g.id for g in V.generators]
        assert [(ids[i], eps) for i, eps in even] == [("v", 0)]
        assert [(ids[i], eps) for i, eps in odd] == [("v", 1)]
        assert square_at_one_is_zero(V)

    def test_square_zero_on_random_instances(self):
        for seed in range(6):
            V = random_equivariant_filtered(3, seed)
            if V.dim():
                assert square_at_one_is_zero(V)


class TestTateDims:
    def test_trivial_module(self):
        assert tate_cohomology_dims(trivial_point()) == (1, 1)

    def test_free_module_vanishes(self):
        for p in (2, 3, 5):
            assert tate_cohomology_dims(free_orbit(p)) == (0, 0)

    def test_size_two_jordan_block(self):
        # at p = 3 the size-2 unipotent block is neither trivial nor free
        V = EquivariantComplex(
            3,
            [Generator("a", 0), Generator("b", 0)],
            {},
            {"a": {"a": 1}, "b": {"a": 1, "b": 1}},
        )
        assert tate_cohomology_dims(V) == (1, 1)
        # at p = 2 the same block is the regular module, so Tate dies
        W = EquivariantComplex(
            2,
            [Generator("a", 0), Generator("b", 0)],
            {},
            {"a": {"a": 1}, "b": {"a": 1, "b": 1}},
        )
        assert tate_cohomology_dims(W) == (0, 0)

    def test_empty_complex(self):
        assert tate_cohomology_dims(EquivariantComplex(3, [], {}, {})) == (0, 0)

    def test_methods_agree(self):
        for seed in range(8):
            V = random_equivariant_filtered(3, seed)
            assert tate_cohomology_dims(V) == tate_cohomology_dims(V, method="bareiss")

    def test_inhomogeneous_complex_rejected(self):
        """The u = 1 ranks are only valid for a homogeneous d-hat, so an
        unchecked complex that breaks the grading raises, never a rank."""
        gens = [Generator("a", 0), Generator("b", 0)]
        flat_d = EquivariantComplex(3, gens, {"a": {"b": 1}}, {}, check=False)
        with pytest.raises(InvalidComplex):
            tate_cohomology_dims(flat_d)
        with pytest.raises(InvalidComplex):
            tate_cohomology_dims(flat_d, method="bareiss")
        with pytest.raises(InvalidComplex):
            group_cohomology_dims(flat_d)
        gens = [Generator("a", 0), Generator("b", 1)]
        shifting_sigma = EquivariantComplex(3, gens, {}, {"a": {"b": 1}}, check=False)
        with pytest.raises(InvalidComplex):
            tate_cohomology_dims(shifting_sigma)
        with pytest.raises(InvalidComplex):
            tate_cohomology_dims(shifting_sigma, method="bareiss")
        with pytest.raises(InvalidComplex):
            group_cohomology_dims(shifting_sigma)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            tate_cohomology_dims(trivial_point(), method="cayley")

    def test_acyclic_summand_is_invisible(self):
        """Adding an equivariantly contractible piece never changes Tate."""
        V = trivial_point()
        gens = [Generator("v", 0), Generator("x", 0), Generator("y", 1)]
        W = EquivariantComplex(3, gens, {"x": {"y": 1}}, {})
        assert tate_cohomology_dims(W) == tate_cohomology_dims(V)


class TestGroupCohomology:
    def test_trivial_module_all_ones(self):
        dims = group_cohomology_dims(trivial_point(), max_degree=5)
        assert dims == {k: 1 for k in range(6)}

    def test_free_module_concentrated_in_zero(self):
        dims = group_cohomology_dims(free_orbit(3), max_degree=4)
        assert dims == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}

    def test_empty_complex(self):
        assert group_cohomology_dims(EquivariantComplex(3, [], {}, {})) == {}

    def test_negative_degrees_not_reported(self):
        dims = group_cohomology_dims(trivial_point(degree=2), max_degree=6)
        assert min(dims) == 2

    def test_high_degrees_match_tate_periodically(self):
        for seed in (0, 3, 5):
            V = random_equivariant_filtered(3, seed)
            if not V.dim():
                continue
            even, odd = tate_cohomology_dims(V)
            top = max(g.degree for g in V.generators)
            m = 2 * top + 10
            dims = group_cohomology_dims(V, max_degree=m + 1)
            assert dims[m] == (even if m % 2 == 0 else odd)
            assert dims[m + 1] == (odd if m % 2 == 0 else even)


class TestQuasiFrobenius:
    def test_point_complex(self):
        res = quasi_frobenius(trivial_point())
        assert res.labels == ["h0.0"]
        assert res.degrees == {"h0.0": 0}
        assert res.target_degrees == {"h0.0": 0}
        assert res.chain_map == {"h0.0": {"v|v|v": 1}}
        assert res.induced_matrix == [[1]]
        assert res.source_parity_dims == (1, 0)
        assert res.target_parity_dims == (1, 1)
        assert res.is_bijective
        assert res.certificates == []

    def test_two_classes_same_degree(self):
        V = EquivariantComplex(3, [Generator("x", 0), Generator("y", 0)], {}, {})
        res = quasi_frobenius(V)
        assert res.labels == ["h0.0", "h0.1"]
        assert res.induced_matrix == [[1, 0], [0, 1]]
        assert res.source_parity_dims == (2, 0)
        assert res.target_parity_dims == (2, 2)
        assert res.is_bijective
        assert len(res.certificates) == 1
        cert = res.certificates[0]
        assert (cert.degree, cert.left, cert.right) == (0, "h0.0", "h0.1")
        assert (cert.left_coeff, cert.right_coeff) == (1, 1)
        assert len(cert.defect) == 6  # the mixed cubic words on two letters
        assert cert.witness is not None and len(cert.witness) == 2
        assert cert.constant_component_zero and cert.invariant and cert.verified

    def test_split_degrees(self):
        V = EquivariantComplex(3, [Generator("x", 0), Generator("y", 1)], {}, {})
        res = quasi_frobenius(V)
        assert res.labels == ["h0.0", "h1.0"]
        assert res.degrees == {"h0.0": 0, "h1.0": 1}
        assert res.target_degrees == {"h0.0": 0, "h1.0": 3}
        assert res.source_parity_dims == (1, 1)
        assert res.target_parity_dims == (2, 2)
        assert res.is_bijective
        assert res.certificates == []  # no same-degree pair to certify

    def test_certificate_controls(self):
        V = EquivariantComplex(3, [Generator("x", 0), Generator("y", 0)], {}, {})
        assert quasi_frobenius(V, max_certificates=0).certificates == []
        res = quasi_frobenius(V, coefficient_pairs=[(1, 1), (1, 2), (2, 2)])
        assert [(c.left_coeff, c.right_coeff) for c in res.certificates] == [
            (1, 1),
            (1, 2),
            (2, 2),
        ]
        assert all(c.verified for c in res.certificates)

    def test_chain_map_lands_in_tensor_power(self):
        V = EquivariantComplex(5, [Generator("x", 0), Generator("y", 1)], {}, {})
        res = quasi_frobenius(V)
        T = tensor_power(V)
        for lab, row in res.chain_map.items():
            for word in row:
                assert T.generator(word).degree == res.target_degrees[lab]

    def test_bijective_on_random_instances(self):
        for seed in range(10):
            base = random_chain_complex(3, seed, max_dim=4)
            if not base.dim():
                continue
            res = quasi_frobenius(base)
            n = sum(base.homology_dims().values())
            assert res.target_parity_dims == (n, n)
            assert res.is_bijective


@given(st.sampled_from((2, 3, 5, 7)), st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_free_complexes_have_vanishing_tate(p, seed):
    V = random_free_equivariant(p, seed)
    assert tate_cohomology_dims(V) == (0, 0)


@given(st.integers(0, 100_000))
@settings(max_examples=15, deadline=None)
def test_rank_routes_agree_on_random_equivariants(seed):
    V = random_equivariant_filtered(3, seed)
    assert tate_cohomology_dims(V) == tate_cohomology_dims(V, method="bareiss")


def _tensor_bases(p, max_dim, count):
    """The first count random complexes with 2 to max_dim generators."""
    seeds = (s for s in itertools.count() if random_chain_complex(p, s, max_dim=max_dim).dim() >= 2)
    return [random_chain_complex(p, s, max_dim=max_dim) for s in itertools.islice(seeds, count)]


def _differential_cases():
    """Fixed-seed complexes of every family the Tate route sees; tensor
    powers stay at 32 generators or fewer, where Bareiss is fast."""
    for p in (2, 3, 5, 7):
        for seed in range(6):
            yield f"free-{p}-{seed}", random_free_equivariant(p, seed)
            yield f"filtered-{p}-{seed}", random_equivariant_filtered(p, seed)
    for p, max_dim, count in ((2, 4, 6), (3, 3, 4), (5, 2, 2)):
        for k, base in enumerate(_tensor_bases(p, max_dim, count)):
            yield f"tensor-{p}-{k}", tensor_power(base)


def test_rank_at_one_matches_bareiss_on_fixed_seeds():
    """Differential check of the u = 1 ranks against fraction-free
    elimination over F_p(u), and of square-zero at u = 1 against the
    product of the polynomial blocks."""
    vanishing = set()
    for name, V in _differential_cases():
        dims = tate_cohomology_dims(V)
        assert dims == tate_cohomology_dims(V, method="bareiss"), name
        even_to_odd, odd_to_even, _, _ = tate_poly_parity_blocks(V)
        assert square_at_one_is_zero(V), name
        assert poly_square_is_zero(even_to_odd, odd_to_even, V.p), name
        vanishing.add(dims == (0, 0))
    assert vanishing == {True, False}


def test_rank_at_one_matches_bareiss_on_128_generator_tensor_powers():
    """The p = 7 tensor powers of two-generator bases, whose parity blocks
    are 128 x 128: the largest the tests eliminate over F_p[u]."""
    for base in _tensor_bases(7, 2, 2):
        V = tensor_power(base)
        assert V.dim() == 128
        assert tate_cohomology_dims(V) == tate_cohomology_dims(V, method="bareiss")


def test_tensor_power_rank_at_one_counts_homology():
    """Tate dims of a p-fold tensor power are (h, h) for h = dim H(V), up
    to the 128-generator powers at p = 7."""
    for p, max_dim, count in ((2, 4, 6), (3, 3, 4), (5, 2, 2), (7, 2, 2)):
        for base in _tensor_bases(p, max_dim, count):
            h = sum(base.homology_dims().values())
            assert tate_cohomology_dims(tensor_power(base)) == (h, h)


def _unchecked_graded(p, seed):
    """A homogeneous but otherwise arbitrary equivariant complex built with
    check=False: d raises degree by 1 and sigma keeps it, but d.d, sigma^p
    and equivariance are left to chance."""
    rng = random.Random(seed)
    gens = [Generator(f"g{i}", rng.randint(-1, 2)) for i in range(rng.randint(1, 6))]
    diff, sigma = {}, {}
    for a in gens:
        for b in gens:
            if rng.random() < 0.5:
                table = diff if b.degree == a.degree + 1 else sigma if b.degree == a.degree else None
                if table is not None:
                    table.setdefault(a.id, {})[b.id] = rng.randrange(p)
    return EquivariantComplex(p, gens, diff, sigma, check=False)


def test_rank_and_square_at_one_on_unchecked_complexes():
    """The u = 1 shortcut needs homogeneity only: on graded complexes that
    fail every other invariant it still agrees with the polynomial route,
    including when d-hat does not square to zero."""
    squares = set()
    for p in (2, 3, 5, 7):
        for seed in range(40):
            V = _unchecked_graded(p, seed)
            even_to_odd, odd_to_even, _, _ = tate_poly_parity_blocks(V)
            square = square_at_one_is_zero(V)
            assert square == poly_square_is_zero(even_to_odd, odd_to_even, p)
            assert tate_cohomology_dims(V) == tate_cohomology_dims(V, method="bareiss")
            squares.add(square)
    assert squares == {True, False}


def test_bareiss_blocks_are_the_label_by_label_split(monkeypatch):
    """The Bareiss route eliminates exactly the polynomial parity blocks
    of the label-by-label split, in the same order."""
    import smith_tate.ratfun as ratfun

    seen = []
    real = ratfun.bareiss_rank

    def recording(mat, p):
        seen.append(mat)
        return real(mat, p)

    monkeypatch.setattr(ratfun, "bareiss_rank", recording)
    cases = list(_differential_cases())
    cases += [(f"unchecked-{p}-{s}", _unchecked_graded(p, s)) for p in (2, 3, 5, 7) for s in range(10)]
    for name, V in cases:
        seen.clear()
        tate_cohomology_dims(V, method="bareiss")
        even_to_odd, odd_to_even, _, _ = tate_poly_parity_blocks(V)
        assert seen == [even_to_odd, odd_to_even], name


def test_bareiss_rows_match_the_dense_cut(monkeypatch):
    """Fixed-seed differential check of the polynomial parity blocks that
    the Bareiss route writes from the columns, entry by entry, against
    cutting each block from them as an array and reading it cell by cell,
    the route they replaced: free orbits and equivariant filtered
    complexes at p = 2, 3, 5 and 7, and tensor powers at p = 2, 3, 5 and 7
    (128 generators).  Elimination is skipped, as only the blocks are compared."""
    import smith_tate.ratfun as ratfun

    seen = []
    monkeypatch.setattr(ratfun, "bareiss_rank", lambda mat, p: seen.append(mat) or 0)
    cases = list(_differential_cases()) + [(f"tensor-7-{k}", tensor_power(b)) for k, b in enumerate(_tensor_bases(7, 2, 2))]
    kinds = set()
    for name, V in cases:
        seen.clear()
        tate_cohomology_dims(V, method="bareiss")
        assert seen == bareiss_blocks_by_cut(V), name
        kinds |= {len(x) for mat in seen for row in mat for x in row}
    assert kinds == {0, 1, 2}  # empty cells, and entries without and with u


def test_bareiss_limits_are_checked_before_a_block_is_built(monkeypatch):
    """A block's shape and entry degree (1 where N has an entry) give its
    Bareiss limits, so 100 free orbits at p = 3 in one degree, 300 x 300
    blocks of degree 1, are refused before either block is built: every
    row of both blocks has an entry, and ratfun.pupow writes each one."""
    import smith_tate.ratfun as ratfun

    gens = [Generator(f"o{o:02d}e{j}", 0) for o in range(100) for j in range(3)]
    sigma = {f"o{o:02d}e{j}": {f"o{o:02d}e{(j + 1) % 3}": 1} for o in range(100) for j in range(3)}
    V = EquivariantComplex(3, gens, {}, sigma)
    monkeypatch.setattr(ratfun, "pupow", lambda *a: pytest.fail("a polynomial row was built"))
    with pytest.raises(TooLarge, match=r"^Bareiss coefficient array \(rows \* cols \* width\) is 27090000,"):
        tate_cohomology_dims(V, method="bareiss")


def _group_cases():
    """Fixed-seed complexes for the group cohomology differential test:
    the Tate families plus homogeneous unchecked complexes."""
    yield from _differential_cases()
    for p in (2, 3, 5, 7):
        for seed in range(10):
            yield f"unchecked-{p}-{seed}", _unchecked_graded(p, seed)


def test_group_cohomology_matches_slot_by_slot_oracle():
    """The parity-split route gives the same dimensions as the
    first-quadrant double complex assembled slot by slot, below, across and
    far above the degrees of V."""
    for name, V in _group_cases():
        if not V.dim():
            assert group_cohomology_dims(V) == group_cohomology_by_slots(V) == {}, name
            continue
        degs = V.degrees()
        dmin, dmax = degs[0], degs[-1]
        for m in (None, dmin - 2, dmin, (dmin + dmax) // 2, dmax, dmax + 1, 3 * dmax + 20):
            assert group_cohomology_dims(V, max_degree=m) == group_cohomology_by_slots(V, m), (name, m)


def test_group_cohomology_counts_match_the_searchsorted_formula():
    """The per-degree pivot counts by bisect_right against numpy's
    searchsorted over all degrees at once, on fixed seeds: the default
    bound, bounds below, at and inside the degrees of V and far above
    them, also on slot bases shifted to large odd and negative degrees."""
    cases = list(_group_cases())
    for seed, (p, degrees, pairs) in enumerate(_BENCH_SLOTS):
        for shift in (-1001, 2**40 + 1):
            cases.append((f"slots-{seed}{shift:+}", _slot_base(p, [d + shift for d in degrees], pairs, seed)))
    for name, V in cases:
        if not V.dim():
            assert group_cohomology_dims(V) == group_cohomology_by_searchsorted(V) == {}, name
            continue
        degs = V.degrees()
        dmin, dmax = degs[0], degs[-1]
        for m in (None, dmin - 3, dmin - 1, dmin, (dmin + dmax) // 2, dmax + 1, dmax + 501):
            got = group_cohomology_dims(V, max_degree=m)
            assert got == group_cohomology_by_searchsorted(V, m), (name, m)
            assert all(type(k) is int and type(v) is int for k, v in got.items()), (name, m)


# (p, degree pattern, matched pairs) of the tensor-power bases of the
# tate-large benchmark workload: tensor powers of 27 to 64 generators
_BENCH_SLOTS = [
    (3, [0, 1, 2], [(0, 1)]), (3, [0, 0, 1], [(1, 2)]), (3, [-1, 0, 2], []),
    (3, [0, 1, 1], [(0, 1)]), (3, [0, 2, 3], [(1, 2)]), (3, [0, 1, 3], [(0, 1)]),
    (2, [0, 1, 1, 2, 3, 3], [(0, 1), (3, 4)]), (2, [0, 0, 1, 2, 2, 3], [(1, 2)]),
    (2, [0, 1, 2, 2, 3, 4], [(0, 1), (3, 4)]), (2, [-1, 0, 0, 1, 1, 2], [(2, 3)]),
    (2, [0, 1, 1, 2, 2, 3, 4], [(0, 1), (4, 5)]), (3, [0, 1, 1, 3], [(0, 1)]),
]


def _slot_base(p, degrees, pairs, seed):
    """A complex with the given degrees and one matched pair per entry of
    pairs, conjugated by a random degree-preserving unipotent matrix."""
    rng = random.Random(seed)
    gens = [Generator(f"x{i}", d) for i, d in enumerate(degrees)]
    cx = ChainComplex(p, gens, {f"x{s}": {f"x{t}": 1 + rng.randrange(p - 1)} for s, t in pairs})
    n = len(degrees)
    same = [(i, j, rng.randrange(p)) for i in range(n) for j in range(i + 1, n) if degrees[i] == degrees[j]]
    return _conjugated(cx, same)


def test_a_missing_sigma_reads_as_the_identity():
    """A payload without "sigma" and the same payload with "sigma": {}
    give the same Tate and group cohomology, on seeds 0-49 of chain,
    filtered and slot-base complexes; each writes back its own payload,
    except that a complex given sigma drops "filtered", as before."""
    for seed in range(50):
        p = (2, 3, 5, 7)[seed % 4]
        bases = (
            (ChainComplex, random_chain_complex(p, seed)),
            (FilteredComplex, random_filtered_complex(p, seed)),
            (ChainComplex, _slot_base(*_BENCH_SLOTS[seed % len(_BENCH_SLOTS)], seed=seed)),
        )
        for cls, V in bases:
            plain = complex_to_json(V)
            given = dict(plain, sigma={})
            A, B = complex_from_json(plain), complex_from_json(given)
            assert (type(A), type(B)) == (cls, EquivariantComplex)
            assert tate_cohomology_dims(A) == tate_cohomology_dims(B), (seed, plain)
            assert group_cohomology_dims(A) == group_cohomology_dims(B), (seed, plain)
            assert complex_to_json(A) == plain
            assert complex_to_json(B) == {k: v for k, v in given.items() if k != "filtered"}


def test_assemble_places_terms_by_slot_and_sums_shared_blocks():
    """Term (i, alpha) goes from the theta^alpha labels into the
    theta^(i mod 2) labels; (0, 0) and (2, 0) share the 1 -> 1 block and
    (1, 1) and (3, 1) the theta -> theta block, where they add mod p and
    cancel to no entry."""
    terms = {
        (0, 0): [{1: 1}, {}],
        (1, 0): [{}, {1: 1}],
        (1, 1): [{}, {0: 2}],
        (2, 0): [{1: 2, 0: 1}, {}],
        (3, 1): [{}, {0: 2}],
    }
    assert assemble(terms, 2, 3) == [{0: 1}, {3: 1}, {}, {2: 1}]


def test_group_and_parity_dims_match_the_dense_rank_oracles():
    """The column-reduction route gives the same group cohomology as one
    dense rank per degree cut, and the same Tate parity dimensions as one
    dense rank per parity block, on the group cases, the benchmark's
    tensor powers and random equivariant models."""
    cases = list(_group_cases())
    cases += [(f"bench-{k}", tensor_power(_slot_base(*slot, seed=k))) for k, slot in enumerate(_BENCH_SLOTS)]
    for name, V in cases:
        degrees = [g.degree for g in V.generators]
        assert tate_cohomology_dims(V) == parity_dims_by_dense_rank(degrees, *tate_column_blocks(V), V.p), name
        if not V.dim():
            continue
        dmin, dmax = min(degrees), max(degrees)
        for m in (None, dmin - 2, dmin - 1, dmin, dmax, dmax + 1, 3 * dmax + 20):
            assert group_cohomology_dims(V, max_degree=m) == group_cohomology_by_cut_ranks(V, m), (name, m)
    for p in (2, 3, 5, 7):
        for seed in range(5):
            model = random_floer_model(p, seed)
            degrees = [g.degree for g in model.base.generators]
            assert model.tate_parity_dims() == parity_dims_by_dense_rank(degrees, *model_blocks(model), p)


def test_group_cohomology_eliminations_do_not_grow_with_max_degree(monkeypatch):
    """Every degree's rank is a pivot count of one column reduction per
    parity block, so exactly two reductions run for any max_degree."""
    import smith_tate.fp_core as fp_core

    calls = []
    real = fp_core.reduce_columns

    def counting(columns, p):
        calls.append(p)
        return real(columns, p)

    monkeypatch.setattr(fp_core, "reduce_columns", counting)
    bases = _tensor_bases(3, 3, 2)
    cases = [tensor_power(b) for b in bases] + [random_equivariant_filtered(5, s) for s in range(4)]
    cases = [V for V in cases if V.dim()]
    assert cases
    for V in cases:
        degs = V.degrees()
        for m in (40, 400):
            calls.clear()
            dims = group_cohomology_dims(V, max_degree=m)
            assert len(dims) == m - degs[0] + 1
            assert calls == [V.p, V.p]

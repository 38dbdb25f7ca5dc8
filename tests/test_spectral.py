"""Action-filtration spectral sequences and equivariant deformation models."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smith_tate.complexes import (
    ChainComplex,
    EquivariantComplex,
    FilteredComplex,
    Generator,
    _affine,
    _dense,
    _sparse,
    tensor_power,
)
from smith_tate.errors import (
    FiltrationViolation,
    InvalidComplex,
    MalformedInput,
    NotSquareZero,
)
from smith_tate.persistence import barcode_from_filtered
from smith_tate.random_instances import (
    planted_filtered_complex,
    random_filtered_complex,
    random_floer_model,
)
from smith_tate.spectral import (
    EquivariantFloerModel,
    action_ss_pages,
    algebraic_ss_pages,
    model_from_json,
    model_to_json,
)
from smith_tate.tate import tate_cohomology_dims, tate_terms

from oracles import (
    algebraic_ss_by_vectors,
    model_poly_route,
    random_floer_model_over_polynomials,
    subquotient_pages,
    term_dense,
)


def free_orbit(p, degree=0):
    gens = [Generator(f"e{j}", degree) for j in range(p)]
    sigma = {f"e{j}": {f"e{(j + 1) % p}": 1} for j in range(p)}
    return EquivariantComplex(p, gens, {}, sigma)


class TestActionSS:
    def test_single_level_no_differential(self):
        fc = FilteredComplex(3, [Generator("x", 0, 0), Generator("y", 1, 0)], {})
        ss = action_ss_pages(fc)
        assert len(ss.pages) == 1
        assert ss.pages[0].dims == {(0, 0): 1, (0, 1): 1}
        assert ss.stabilized_at == 1
        assert ss.converges
        assert ss.infinity == ss.pages[0].dims

    def test_many_levels_no_differential(self):
        fc = FilteredComplex(
            3,
            [Generator("x", 0, 0), Generator("y", 1, 1), Generator("z", 0, 2)],
            {},
        )
        ss = action_ss_pages(fc)
        assert len(ss.pages) == 3
        # level index 0 is the top action level
        assert ss.pages[0].dims == {(0, 0): 1, (1, 1): 1, (2, 0): 1}
        assert all(pg.dims == ss.pages[0].dims for pg in ss.pages)
        assert ss.stabilized_at == 1
        assert ss.converges

    def test_adjacent_cancellation(self):
        fc = FilteredComplex(3, [Generator("a", 0, 1), Generator("b", 1, 0)], {"a": {"b": 1}})
        ss = action_ss_pages(fc)
        assert len(ss.pages) == 2
        assert ss.pages[0].dims == {(0, 0): 1, (1, 1): 1}
        assert ss.pages[0].differential_ranks == {(0, 0): 1}
        assert ss.infinity == {}
        assert ss.stabilized_at == 2
        assert ss.converges

    def test_long_differential_fires_on_page_three(self):
        fc = FilteredComplex(
            3,
            [
                Generator("v3", 1, Fraction(-3)),
                Generator("v5", 0, Fraction(12)),
                Generator("v7", 2, Fraction(3, 2)),
                Generator("v9", 2, Fraction(17, 2)),
            ],
            {"v5": {"v3": 2}},
        )
        ss = action_ss_pages(fc)
        assert ss.levels == [Fraction(-3), Fraction(3, 2), Fraction(17, 2), Fraction(12)]
        assert len(ss.pages) == 4
        e1 = {(0, 0): 1, (1, 2): 1, (2, 2): 1, (3, 1): 1}
        assert ss.pages[0].dims == e1
        assert ss.pages[1].dims == e1
        assert ss.pages[1].differential_ranks == {}
        assert ss.pages[2].dims == e1
        assert ss.pages[2].differential_ranks == {(0, 0): 1}
        assert ss.pages[3].dims == {(1, 2): 1, (2, 2): 1}
        assert ss.infinity == {(1, 2): 1, (2, 2): 1}
        assert ss.total_homology == {2: 2}
        assert ss.converges
        assert ss.stabilized_at == 4

    def test_non_filtered_input_rejected(self):
        cx = ChainComplex(3, [Generator("x", 0, 0), Generator("y", 1, 0)], {"x": {"y": 1}})
        with pytest.raises(FiltrationViolation):
            action_ss_pages(cx)

    def test_empty_complex(self):
        ss = action_ss_pages(FilteredComplex(3, [], {}))
        assert ss.pages[-1].dims == {}
        assert ss.converges


class TestFloerModelConstruction:
    def setup_method(self):
        self.base = EquivariantComplex(3, [Generator("x", 0), Generator("y", 1)], {}, {})

    def test_i_max_required(self):
        with pytest.raises(MalformedInput):
            EquivariantFloerModel(self.base)

    def test_impossible_slot_rejected(self):
        with pytest.raises(MalformedInput):
            EquivariantFloerModel(self.base, {(0, 1): [{}, {}]}, i_max=2)

    def test_supplied_term_above_i_max_rejected(self):
        with pytest.raises(MalformedInput):
            EquivariantFloerModel(self.base, {(3, 0): [{}, {}]}, i_max=2)

    def test_defaults_above_i_max_dropped(self):
        model = EquivariantFloerModel(self.base, i_max=1)
        assert all(i <= 1 for (i, _) in model.terms)

    def test_wrong_shape_rejected(self):
        """A term needs one column per generator, each with rows below n."""
        for cols in ([{}, {}, {}], [{}], [{2: 1}, {}], [{}, {-1: 1}]):
            with pytest.raises(MalformedInput, match=r"d_term \(2,0\) must be 2 columns of rows below 2"):
                EquivariantFloerModel(self.base, {(2, 0): cols}, i_max=2)

    def test_supplied_terms_are_read_mod_p(self):
        """Entries are reduced mod p on the way in, and a multiple of p
        leaves no entry."""
        model = EquivariantFloerModel(self.base, {(2, 0): [{}, {0: 4}], (3, 1): [{}, {}], (2, 1): [{0: 3}, {1: -3}]}, i_max=3)
        assert model.terms[(2, 0)] == [{}, {0: 1}]
        assert (3, 1) not in model.terms and (2, 1) not in model.terms

    def test_term_degree_enforced(self):
        m = np.zeros((2, 2), dtype=np.int64)
        m[0, 1] = 1  # x <- y drops degree, but slot (1, 0) preserves it
        with pytest.raises(InvalidComplex):
            EquivariantFloerModel(self.base, {(1, 0): _sparse(m)}, i_max=2)

    def test_filtration_term_must_strictly_decrease(self):
        m = np.zeros((2, 2), dtype=np.int64)
        m[1, 0] = 1  # y <- x raises degree but keeps action constant
        with pytest.raises(FiltrationViolation):
            EquivariantFloerModel(self.base, {(0, 0): _sparse(m)}, i_max=2)

    def test_planted_filtration_violations(self):
        """The first violating entry in row-major order of the first
        violating term is reported, on the action levels of the base."""
        gens = [Generator("a", 0, Fraction(1, 2)), Generator("b", 0, 1), Generator("c", 1, Fraction(2, 4)),
                Generator("d", 1, 1), Generator("e", 1, Fraction(-3))]
        base = EquivariantComplex(5, gens, {}, {})
        strict = np.zeros((5, 5), dtype=np.int64)
        strict[4, 1] = 1  # b -> e decreases action: allowed
        strict[3, 0] = 2  # a -> d increases it
        strict[2, 0] = 1  # a -> c keeps it, and comes first
        with pytest.raises(FiltrationViolation) as e:
            EquivariantFloerModel(base, {(0, 0): _sparse(strict)}, i_max=2)
        assert str(e.value) == "d_term (0,0) must strictly decrease action (a -> c)"
        loose = np.zeros((5, 5), dtype=np.int64)
        loose[0, 1] = 1  # b -> a decreases action: allowed
        loose[3, 2] = 1  # c -> d increases it
        loose[2, 2] = 1  # c -> c keeps it: allowed in a non-strict term
        loose[3, 3] = 1
        with pytest.raises(FiltrationViolation) as e:
            EquivariantFloerModel(base, {(1, 0): _sparse(loose)}, i_max=2)
        assert str(e.value) == "d_term (1,0) must not increase action (c -> d)"
        loose[3, 2] = 0
        assert (term_dense(EquivariantFloerModel(base, {(1, 0): _sparse(loose)}, i_max=2), 1, 0) == loose).all()

    def test_assembled_square_checked(self):
        wide = EquivariantComplex(
            3, [Generator("x", 0), Generator("y", 1), Generator("z", 2)], {}, {}
        )
        m = np.zeros((3, 3), dtype=np.int64)
        m[0, 1] = 1
        m[1, 2] = 1
        with pytest.raises(NotSquareZero):
            EquivariantFloerModel(wide, {(2, 0): _sparse(m)}, i_max=2)
        assert EquivariantFloerModel(wide, i_max=2).square_is_zero()

    def test_inhomogeneous_unchecked_model_rejected(self):
        """A term of the wrong internal degree slips past check=False, but
        the u = 1 ranks and square test refuse it instead of answering."""
        m = np.zeros((2, 2), dtype=np.int64)
        m[0, 1] = 1  # y -> x lowers degree; slot (1, 0) must preserve it
        model = EquivariantFloerModel(self.base, {(1, 0): _sparse(m)}, i_max=2, check=False)
        with pytest.raises(InvalidComplex):
            model.tate_parity_dims()
        with pytest.raises(InvalidComplex):
            model.square_is_zero()


class TestAlgebraicSS:
    def test_free_orbit_dies_at_page_two(self):
        pages = algebraic_ss_pages(EquivariantFloerModel(free_orbit(3), i_max=2))
        assert pages.e1_even_dims == {0: 3}
        assert pages.e1_odd_dims == {0: 3}
        # page-one differentials are 1 - sigma and the norm
        assert _dense(pages.d10_induced[0], 3).tolist() == [[1, 0, 2], [2, 1, 0], [0, 2, 1]]
        assert _dense(pages.d21_induced[0], 3).tolist() == [[1, 1, 1]] * 3
        assert pages.e2_by_degree == {0: {"one": 0, "theta": 0}}
        assert pages.e2_dims == (0, 0)
        assert pages.einf_dims == (0, 0)
        assert pages.tate_bound_holds
        assert pages.sigma_module.multiplicities == (0, 0, 1)
        assert pages.sigma_module_tate_dim == 0

    def test_trivial_point_survives(self):
        triv = EquivariantComplex(3, [Generator("v", 0)], {}, {})
        pages = algebraic_ss_pages(EquivariantFloerModel(triv, i_max=2))
        assert _dense(pages.d10_induced[0], 1).tolist() == [[0]]
        assert _dense(pages.d21_induced[0], 1).tolist() == [[0]]
        assert pages.e2_by_degree == {0: {"one": 1, "theta": 1}}
        assert pages.e2_dims == (1, 1)
        assert pages.einf_dims == (1, 1)
        assert pages.sigma_module.multiplicities == (1, 0, 0)
        assert pages.sigma_module_tate_dim == 2

    def test_deformation_collapses_page_two(self):
        """A u^2-term pairs the two surviving classes and kills them at E_inf."""
        base = EquivariantComplex(3, [Generator("x", 0), Generator("y", 1)], {}, {})
        m = np.zeros((2, 2), dtype=np.int64)
        m[0, 1] = 1
        model = EquivariantFloerModel(base, {(2, 0): _sparse(m)}, i_max=2)
        pages = algebraic_ss_pages(model)
        assert pages.e1_even_dims == {0: 1, 1: 1}
        assert pages.e1_odd_dims == {0: 1, 1: 1}
        assert pages.e2_by_degree == {
            0: {"one": 1, "theta": 1},
            1: {"one": 1, "theta": 1},
        }
        assert pages.e2_dims == (2, 2)
        assert pages.einf_dims == (1, 1)
        assert pages.tate_bound_holds
        assert pages.sigma_module.multiplicities == (2, 0, 0)
        assert pages.sigma_module_tate_dim == 4

    def test_undeformed_model_matches_tate(self):
        for seed in range(6):
            model = random_floer_model(3, seed, deform=False)
            pages = algebraic_ss_pages(model)
            assert pages.einf_dims == tate_cohomology_dims(model.base)
            assert pages.tate_bound_holds


class TestModelJson:
    def test_round_trip(self):
        base = EquivariantComplex(3, [Generator("x", 0), Generator("y", 1)], {}, {})
        m = np.zeros((2, 2), dtype=np.int64)
        m[0, 1] = 1
        model = EquivariantFloerModel(base, {(2, 0): _sparse(m)}, i_max=2)
        data = model_to_json(model)
        back = model_from_json(data)
        assert model_to_json(back) == data
        assert back.i_max == 2

    def test_i_max_inferred_when_missing(self):
        base = EquivariantComplex(3, [Generator("v", 0)], {}, {})
        data = model_to_json(EquivariantFloerModel(base, i_max=2))
        data.pop("i_max", None)
        assert model_from_json(data).i_max == 2

    def test_random_model_round_trip(self):
        model = random_floer_model(3, 11)
        data = model_to_json(model)
        assert model_to_json(model_from_json(data)) == data


@given(st.sampled_from((2, 3, 5)), st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_action_ss_converges_to_homology(p, seed):
    fc = random_filtered_complex(p, seed, max_gens=10)
    ss = action_ss_pages(fc)
    assert ss.converges
    assert ss.total_homology == fc.homology_dims()
    collapsed: dict[int, int] = {}
    for (_, k), d in ss.infinity.items():
        collapsed[k] = collapsed.get(k, 0) + d
    assert collapsed == fc.homology_dims()
    assert 1 <= ss.stabilized_at <= len(ss.pages)


@given(st.integers(0, 100_000))
@settings(max_examples=12, deadline=None)
def test_algebraic_bound_on_random_models(seed):
    model = random_floer_model(3, seed)
    pages = algebraic_ss_pages(model)
    assert pages.tate_bound_holds
    even, odd = pages.einf_dims
    assert even <= pages.e2_dims[0] and odd <= pages.e2_dims[1]


def _perturbed(model, seed):
    """The model plus one random term of the right internal degree, built
    with check=False: still homogeneous, usually no longer square-zero."""
    rng = random.Random(seed)
    degs = [g.degree for g in model.base.generators]
    n = len(degs)
    i, alpha = rng.choice([(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)])
    m = np.zeros((n, n), dtype=np.int64)
    for r in range(n):
        for c in range(n):
            if degs[r] == degs[c] + 1 - i + alpha and rng.random() < 0.5:
                m[r, c] = rng.randrange(model.p)
    terms = {k: v for k, v in model.terms.items() if k != (i, alpha)}
    terms[(i, alpha)] = _sparse((term_dense(model, i, alpha) + m) % model.p)
    return EquivariantFloerModel(model.base, terms, i_max=max(model.i_max, i), check=False)


def test_model_rank_and_square_at_one_match_polynomial_route():
    """Fixed-seed differential check of the u = 1 Tate dims and square
    test of equivariant models against Bareiss elimination and the
    product of the polynomial blocks."""
    squares = set()
    for p in (2, 3, 5, 7):
        for seed in range(15):
            for model in (random_floer_model(p, seed), _perturbed(random_floer_model(p, seed), seed)):
                dims, square = model_poly_route(model)
                assert model.tate_parity_dims() == dims, (p, seed)
                assert model.square_is_zero() == square, (p, seed)
                squares.add(square)
    assert squares == {True, False}


def _assert_pages_match_oracle(fc):
    """Every page's dims and differential ranks equal the subquotient
    route's, including the insertion order of both dicts."""
    ss = action_ss_pages(fc)
    expected = subquotient_pages(fc)
    assert len(ss.pages) == len(expected)
    for pg, (dims, ranks) in zip(ss.pages, expected):
        assert list(pg.dims.items()) == list(dims.items()), pg.r
        assert list(pg.differential_ranks.items()) == list(ranks.items()), pg.r
    assert ss.converges
    return ss


def test_pairing_pages_match_subquotient_route():
    """Fixed-seed differential check of the pages counted from the
    persistence pairing against the subquotient construction."""
    long_differentials = 0
    for p in (2, 3, 5, 7):
        for seed in range(25):
            fc = random_filtered_complex(p, seed, max_gens=16, max_levels=6)
            ss = _assert_pages_match_oracle(fc)
            long_differentials += any(pg.differential_ranks for pg in ss.pages[1:])
    assert long_differentials > 10


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_planted_complexes_with_repeated_levels_match_subquotient_route(p):
    """Several bars share each level, so many generators sit at one
    filtration index and differentials of every length coexist."""
    finite = [(0, 1, 2), (0, 3, 1), (1, 3, 2), (Fraction(1, 2), 3, 1), (1, 2, 1)]
    infinite = [0, 1, 1, 3]
    for seed in range(3):
        fc, planted = planted_filtered_complex(p, finite, infinite, seed)
        ss = _assert_pages_match_oracle(fc)
        assert barcode_from_filtered(fc) == planted
        assert ss.levels == [0, Fraction(1, 2), 1, 2, 3]
        # a bar (a, b] is a pair (b, a) of filtration distance r firing d_r
        assert sum(sum(pg.differential_ranks.values()) for pg in ss.pages) == 7


def test_equal_action_differential_rejected():
    gens = [Generator("x", 0, 1), Generator("y", 1, 1), Generator("z", 1, 0)]
    cx = ChainComplex(5, gens, {"x": {"z": 1, "y": 2}})
    with pytest.raises(FiltrationViolation, match=r"d\(x\) does not strictly decrease action at y"):
        action_ss_pages(cx)
    unchecked = FilteredComplex(5, gens, {"x": {"y": 1}}, check=False)
    with pytest.raises(FiltrationViolation):
        action_ss_pages(unchecked)


def test_random_model_matches_polynomial_conjugation():
    """Fixed-seed differential check of the deformation at u = 1 against
    the conjugation by I + uR over F_p[u]: same terms, in the same order.
    The second sweep packs the degrees closer, so that more models get
    terms above the defaults."""
    deformed = 0
    for p in (2, 3, 5, 7):
        for kwargs, seeds in (({}, 100), ({"degree_lo": 0, "degree_hi": 2, "max_trivial": 6}, 50)):
            for seed in range(seeds):
                for deform in (True, False):
                    model = random_floer_model(p, seed, deform=deform, **kwargs)
                    expected = random_floer_model_over_polynomials(p, seed, deform=deform, **kwargs)
                    assert model_to_json(model) == model_to_json(expected), (p, seed, deform)
                    assert model.i_max == expected.i_max, (p, seed, deform)
                    assert list(model.terms) == list(expected.terms), (p, seed, deform)
                    deformed += model.i_max > 2
    assert deformed >= 50


def test_random_model_checks_the_theta_slot(monkeypatch):
    assert (0, 1) not in random_floer_model(3, 4, deform=False).terms
    # a norm term entry that raises degree by 2 belongs to slot i = 0
    base = EquivariantComplex(3, [Generator("x", 0), Generator("y", 2)], {}, {})

    def terms(V):
        out = tate_terms(V)
        x, y = out[(2, 1)]
        out[(2, 1)] = [{**x, 1: 1}, y]
        return out

    monkeypatch.setattr("smith_tate.random_instances.random_equivariant_filtered", lambda p, rng, **kw: base)
    monkeypatch.setattr("smith_tate.random_instances.tate_terms", terms)
    with pytest.raises(RuntimeError, match="alpha=1"):
        random_floer_model(3, 4, deform=False)


def _spectral_inputs(p):
    """Fixed-seed models: random ones with and without deformation, and
    the default model on tensor powers of small filtered complexes."""
    for seed in range(8):
        for deform in (False, True):
            yield random_floer_model(p, seed, deform=deform)
    gens = {2: 4, 3: 3, 5: 2, 7: 2}[p]
    for seed in range(3):
        T = tensor_power(random_filtered_complex(p, 200 + seed, max_gens=gens, degree_lo=0, degree_hi=1))
        yield EquivariantFloerModel(T, i_max=2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_induced_maps_match_the_per_vector_route(p):
    """Fixed-seed differential check of d10_induced, d21_induced,
    e2_by_degree and sigma_module against inducing each map one
    zero-padded basis vector at a time."""
    nonzero = modules = 0
    for model in _spectral_inputs(p):
        pages = algebraic_ss_pages(model)
        want = algebraic_ss_by_vectors(model)
        for name in ("d10_induced", "d21_induced"):
            got = getattr(pages, name)
            assert list(got) == list(want[name]), (p, model)
            for k, cols in got.items():
                m = _dense(cols, len(want[name][k]))
                assert m.shape == want[name][k].shape and (m == want[name][k]).all(), (p, model, name, k)
                nonzero += int(m.any())
        assert pages.e2_by_degree == want["e2_by_degree"], (p, model)
        assert pages.sigma_module == want["sigma_module"], (p, model)
        modules += pages.sigma_module is not None
    assert nonzero >= 8 and modules >= 8


def _theta_rescaled(model, seed):
    """The model conjugated by the identity on the 1 slot and a seeded
    diagonal of units on the theta slot: still a valid model, and d_1^1 is
    no longer -d_0^0 once d joins two generators of unequal scales."""
    p = model.p
    rng = random.Random(seed)
    scale = [rng.randrange(1, p) for _ in range(model.base.dim())]
    inverse = [pow(x, -1, p) for x in scale]
    terms = {
        (i, alpha): [
            {r: v * (scale[r] if i % 2 else 1) * (inverse[c] if alpha else 1) % p for r, v in col.items()}
            for c, col in enumerate(cols)
        ]
        for (i, alpha), cols in model.terms.items()
    }
    return EquivariantFloerModel(model.base, terms, i_max=model.i_max)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_odd_page_reuses_the_even_complex_exactly_when_d11_is_minus_d00(p, monkeypatch):
    """Fixed-seed differential check: every field of the pages matches a
    run that builds the odd page complex of d_1^1 on its own, and the even
    complex is reused (one complex fewer built) exactly when d_1^1 = -d_0^0."""
    from smith_tate import spectral

    built = []
    real = ChainComplex._of.__func__
    monkeypatch.setattr(ChainComplex, "_of", classmethod(lambda cls, *a, **k: built.append(cls) or real(cls, *a, **k)))
    shared = separate = 0
    rescaled = [_theta_rescaled(random_floer_model(p, seed, deform=deform), seed) for seed in range(8) for deform in (False, True)]
    for model in [*_spectral_inputs(p), *rescaled]:
        zero = [{}] * model.base.dim()
        negated = model.terms.get((1, 1), zero) == _affine(model.terms.get((0, 0), zero), -1, 0, p)
        built.clear()
        pages = algebraic_ss_pages(model)
        n_built = len(built)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_affine", lambda *a: None)
            built.clear()
            want = algebraic_ss_pages(model)
        assert n_built == len(built) - negated, (p, model)
        for name in ("d10_induced", "d21_induced"):
            got, ref = getattr(pages, name), getattr(want, name)
            assert list(got) == list(ref)
            assert all(got[k] == ref[k] for k in got), (p, model, name)
        for name in ("e1_even_dims", "e1_odd_dims", "e2_by_degree", "e2_dims", "einf_dims", "tate_bound_holds", "sigma_module", "sigma_module_tate_dim"):
            assert getattr(pages, name) == getattr(want, name), (p, model, name)
        shared += negated
        separate += not negated
    assert shared >= 8 and separate >= (0 if p == 2 else 4), (shared, separate)

"""Complex construction, validation, windows, tensor powers, JSON round trips."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smith_tate.complexes as complexes
from smith_tate.complexes import (
    ActionWindow,
    ChainComplex,
    EquivariantComplex,
    FilteredComplex,
    Generator,
    _coeff_map,
    _dense,
    _sparse,
    complex_from_json,
    complex_to_json,
    tensor_power,
    window_truncate,
)
from smith_tate.errors import (
    FiltrationViolation,
    InadmissibleWindow,
    InvalidComplex,
    MalformedInput,
    NotSquareZero,
    TooLarge,
)
from smith_tate.fp_core import FpMatrix
from smith_tate.persistence import barcode_from_filtered
from smith_tate.random_instances import (
    _unipotent_pair,
    random_chain_complex,
    random_equivariant_filtered,
    random_filtered_complex,
    random_floer_model,
    random_free_equivariant,
)
from smith_tate.tate import tate_cohomology_dims

from oracles import (
    block,
    coeff_matrix_by_entries,
    d_block,
    express_in_homology_by_solve,
    fixed_dim,
    homology_basis_by_solve,
    homology_dense,
    rref,
    sigma_block,
    unipotent_inverse_by_neumann,
)
from test_spectral import _theta_rescaled


def free_orbit(p, degree=0, action=0):
    gens = [Generator(f"e{j}", degree, action) for j in range(p)]
    sigma = {f"e{j}": {f"e{(j + 1) % p}": 1} for j in range(p)}
    return EquivariantComplex(p, gens, {}, sigma)


class TestGenerator:
    def test_action_coerced_to_fraction(self):
        g = Generator("v", 2, 0.5)
        assert g.action == Fraction(1, 2)
        assert Generator("w", 0).action == Fraction(0)

    def test_id_must_be_nonempty_string(self):
        with pytest.raises(MalformedInput):
            Generator("", 0)


class TestChainComplex:
    def test_point_complex(self):
        cx = ChainComplex(3, [Generator("v", 0)], {})
        assert cx.dim() == 1
        assert cx.homology_dims() == {0: 1}

    def test_generators_sorted_by_id(self):
        cx = ChainComplex(3, [Generator("b", 0), Generator("a", 0)], {})
        assert [g.id for g in cx.generators] == ["a", "b"]
        assert cx.index_of("a") == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(MalformedInput):
            ChainComplex(3, [Generator("v", 0), Generator("v", 1)], {})

    def test_differential_must_raise_degree_by_one(self):
        gens = [Generator("x", 0), Generator("y", 0)]
        with pytest.raises(InvalidComplex):
            ChainComplex(3, gens, {"x": {"y": 1}})

    def test_square_zero_enforced(self):
        gens = [Generator("a", 0), Generator("b", 1), Generator("c", 2)]
        with pytest.raises(InvalidComplex):
            ChainComplex(3, gens, {"a": {"b": 1}, "b": {"c": 1}})
        # with a compensating sign the square vanishes: d(a) = b, d(b) = 0
        ok = ChainComplex(3, gens, {"a": {"b": 1}})
        assert ok.homology_dims() == {2: 1}

    def test_unknown_generator_in_differential(self):
        with pytest.raises(MalformedInput):
            ChainComplex(3, [Generator("x", 0)], {"x": {"ghost": 1}})

    def test_check_false_skips_validation(self):
        gens = [Generator("x", 0), Generator("y", 0)]
        cx = ChainComplex(3, gens, {"x": {"y": 1}}, check=False)
        assert cx.dim() == 2

    def test_d_block_and_homology(self):
        gens = [Generator("a", 0), Generator("b", 1), Generator("c", 1)]
        cx = ChainComplex(5, gens, {"a": {"b": 2}})
        assert d_block(cx, 0).tolist() == [[2], [0]]
        assert cx.homology_dims() == {1: 1}
        assert cx._homology(1) == [{2: 1}]

    def test_express_in_homology(self):
        """Class coordinates, sparse columns in the basis _homology(k), of
        the cocycle 2a + 3b; a vector that is not a cocycle is refused."""
        cx = ChainComplex(5, [Generator("a", 0), Generator("b", 0)], {})
        assert cx._coordinates(0, [{0: 2, 1: 3}]) == [{0: 2, 1: 3}]
        with pytest.raises(InvalidComplex, match="^vector is not a cocycle$"):
            acyclic = ChainComplex(5, [Generator("x", 0), Generator("y", 1)], {"x": {"y": 1}})
            acyclic._coordinates(0, [{0: 1}])


class TestEquivariantComplex:
    def test_cyclic_orbit_valid(self):
        V = free_orbit(3)
        assert sigma_block(V, 0).tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        assert _dense(V.norm(), 3).tolist() == [[1, 1, 1]] * 3

    def test_sigma_order_enforced(self):
        # a 2-cycle on 2 generators has order 2, not 3
        gens = [Generator("a", 0), Generator("b", 0)]
        with pytest.raises(InvalidComplex):
            EquivariantComplex(3, gens, {}, {"a": {"b": 1}, "b": {"a": 1}})

    def test_sigma_must_preserve_degree(self):
        gens = [Generator("a", 0), Generator("b", 1)]
        with pytest.raises(InvalidComplex):
            EquivariantComplex(3, gens, {}, {"a": {"b": 1}})

    def test_sigma_must_preserve_action(self):
        gens = [Generator("a", 0, 0), Generator("b", 0, 1)]
        with pytest.raises(InvalidComplex):
            EquivariantComplex(3, gens, {}, {"a": {"b": 1}, "b": {"a": 1}})

    def test_equivariance_enforced(self):
        # d hits one orbit member only, so it cannot commute with rotation
        gens = [Generator(f"e{j}", 0) for j in range(3)] + [Generator("t", 1)]
        sigma = {f"e{j}": {f"e{(j + 1) % 3}": 1} for j in range(3)}
        with pytest.raises(InvalidComplex):
            EquivariantComplex(3, gens, {"e0": {"t": 1}}, sigma)
        # hitting it from every member is fine
        diff = {f"e{j}": {"t": 1} for j in range(3)}
        V = EquivariantComplex(3, gens, diff, sigma)
        assert V.validate().ok

    def test_validate_reports_strict_action(self):
        V = EquivariantComplex(3, [Generator("a", 0, 0), Generator("b", 1, 0)], {"a": {"b": 1}}, {})
        assert V.validate().ok
        report = V.validate(strict_action=True)
        assert not report.ok
        assert not report.checks["action_decrease"]

    def test_validate_flags_follow_the_rule_that_failed(self):
        """Each d check fails from its own rule, not from the words of its
        message: "d.d != 0 out of degree 0" names a degree, yet it is a
        square_zero failure."""
        only_degree = EquivariantComplex(3, [Generator("x", 0), Generator("y", 0)], {"x": {"y": 1}}, {}, check=False)
        report = only_degree.validate()
        assert (report.checks["degree_one_differential"], report.checks["square_zero"]) == (False, True)
        assert report.violations == ["d(x) hits y, which is not one degree higher"]
        gens = [Generator("x", 0), Generator("y", 1), Generator("z", 2)]
        only_square = EquivariantComplex(3, gens, {"x": {"y": 1}, "y": {"z": 1}}, {}, check=False)
        report = only_square.validate()
        assert (report.checks["degree_one_differential"], report.checks["square_zero"]) == (True, False)
        assert report.violations == ["d.d != 0 out of degree 0"]

    def test_omitted_sigma_acts_as_identity(self):
        V = EquivariantComplex(3, [Generator("v", 0)], {}, {})
        assert sigma_block(V, 0).tolist() == [[1]]

    def test_construction_checks_d_once(self, monkeypatch):
        calls = []
        real = ChainComplex._structure_violations

        def counted(cx):
            calls.append(cx)
            return real(cx)

        monkeypatch.setattr(ChainComplex, "_structure_violations", counted)
        gens = [Generator(f"e{j}", 0) for j in range(3)] + [Generator("t", 1)]
        sigma = {f"e{j}": {f"e{(j + 1) % 3}": 1} for j in range(3)}
        built = [
            free_orbit(3),
            EquivariantComplex(3, gens, {f"e{j}": {"t": 1} for j in range(3)}, sigma),
            tensor_power(ChainComplex(3, [Generator("a", 0), Generator("b", 1)], {"a": {"b": 1}})),
        ]
        assert len(calls) == 4  # the tensor power's base is a construction too
        with pytest.raises(InvalidComplex, match=r"^sigma does not commute with d out of degree 0$"):
            EquivariantComplex(3, gens, {"e0": {"t": 1}}, sigma)
        assert len(calls) == 5
        # validate still runs every check, once per call
        assert all(V.validate().ok for V in built)
        assert len(calls) == 8


def _cycle(ids):
    """sigma rotating the generators ids one step, a cycle of order len(ids)."""
    return {g: {ids[(j + 1) % len(ids)]: 1} for j, g in enumerate(ids)}


class TestSigmaRefusals:
    """Every refusal text of a sigma, at construction (joined by "; ") and
    from validate (one per violation), for sigmas whose p-th power is
    checked column by column against the identity."""

    A = [Generator(f"a{j}", 0) for j in range(9)]
    B = [Generator(f"b{j}", 1) for j in range(3)]
    CASES = {
        # a 9-cycle at p = 3 has order p^2, so sigma^3 moves every generator
        "order-p-squared": (A, {}, _cycle([g.id for g in A]), ["sigma^3 != 1 in degree 0"]),
        # order p on degree 0, and sigma = 2 (order 2) on one generator of degree 1
        "one-degree": (A[:3] + B, {}, {**_cycle(["a0", "a1", "a2"]), "b0": {"b0": 2}}, ["sigma^3 != 1 in degree 1"]),
        # d hits one orbit member only, so it cannot commute with the rotation
        "not-equivariant": (A[:3] + B[:1], {"a0": {"b0": 1}}, _cycle(["a0", "a1", "a2"]), ["sigma does not commute with d out of degree 0"]),
        # both rules broken out of degree 0: the power is named first
        "both": (A[:1] + B[:1], {"a0": {"b0": 1}}, {"a0": {"a0": 2}}, ["sigma^3 != 1 in degree 0", "sigma does not commute with d out of degree 0"]),
        "degrees-in-order": (
            A[:3] + B,
            {"a0": {"b0": 1}},
            {**_cycle(["a0", "a1", "a2"]), "b1": {"b2": 1}, "b2": {"b1": 1}},
            ["sigma does not commute with d out of degree 0", "sigma^3 != 1 in degree 1"],
        ),
        "changes-degree": (A[:1] + B[:1], {}, {"a0": {"b0": 1}}, ["sigma(a0) changes degree"]),
        "changes-action": ([Generator("x", 0, 0), Generator("y", 0, 1)], {}, _cycle(["x", "y"]), ["sigma(x) changes action", "sigma(y) changes action"]),
        "changes-both": ([Generator("x", 0, 0), Generator("y", 1, 1)], {}, {"x": {"y": 1}}, ["sigma(x) changes degree", "sigma(x) changes action"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refusal_text(self, case):
        gens, diff, sigma, messages = self.CASES[case]
        with pytest.raises(InvalidComplex) as e:
            EquivariantComplex(3, gens, diff, sigma)
        assert str(e.value) == "; ".join(messages)
        report = EquivariantComplex(3, gens, diff, sigma, check=False).validate()
        assert not report.ok and report.violations == messages

    @pytest.mark.parametrize("p", [2, 3, 5, 31])
    def test_an_orbit_of_p_squared_is_refused_and_one_of_p_is_not(self, p):
        """A free orbit of p generators passes; the p^2-cycle, whose p-th
        power is a product of p disjoint p-cycles, is refused."""
        for size, messages in ((p, []), (p * p, [f"sigma^{p} != 1 in degree 0"])):
            ids = [f"e{j:06d}" for j in range(size)]
            V = EquivariantComplex(p, [Generator(g, 0) for g in ids], {}, _cycle(ids), check=False)
            assert V.validate().violations == messages


class TestFilteredComplex:
    def test_strict_decrease_required(self):
        gens = [Generator("x", 0, 1), Generator("y", 1, 1)]
        with pytest.raises(InvalidComplex):
            FilteredComplex(3, gens, {"x": {"y": 1}})

    def test_valid_filtered(self):
        gens = [Generator("x", 0, 1), Generator("y", 1, 0)]
        fc = FilteredComplex(3, gens, {"x": {"y": 1}})
        assert fc.actions() == [Fraction(0), Fraction(1)]


class TestActionViolations:
    """One helper finds the entries that break the filtration; each caller
    keeps its own exception type and message."""

    GENS = [Generator("x", 0, 1), Generator("y", 1, 1), Generator("z", 1, 2), Generator("w", 1, 0)]
    DIFF = {"x": {"y": 1, "z": 2, "w": 1}}
    MESSAGES = [
        "d(x) does not strictly decrease action at y",
        "d(x) does not strictly decrease action at z",
    ]

    def test_helper_lists_every_violation(self):
        cx = ChainComplex(3, self.GENS, self.DIFF)
        assert cx.action_violations() == self.MESSAGES
        assert ChainComplex(3, self.GENS, {"x": {"w": 1}}).action_violations() == []

    def test_callers_keep_their_exception_and_message(self):
        with pytest.raises(InvalidComplex) as e:
            FilteredComplex(3, self.GENS, self.DIFF)
        assert str(e.value) == self.MESSAGES[0]
        report = EquivariantComplex(3, self.GENS, self.DIFF, {}).validate(strict_action=True)
        assert not report.checks["action_decrease"]
        assert report.violations == self.MESSAGES
        with pytest.raises(FiltrationViolation) as e:
            barcode_from_filtered(ChainComplex(3, self.GENS, self.DIFF))
        assert str(e.value) == self.MESSAGES[0]


def _norm_by_powers(sigma, p):
    """1 + sigma + ... + sigma^(p-1) by p - 1 products of plain integer matrices."""
    n = len(sigma)
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    out = [row[:] for row in acc]
    for _ in range(p - 1):
        acc = [[sum(sigma[i][t] * acc[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]
        out = [[(out[i][j] + acc[i][j]) % p for j in range(n)] for i in range(n)]
    return out


def _columns_norm(sigma, p):
    """The dense view of norm() on an unchecked complex of one degree whose
    sigma is the square array sigma."""
    ids = [f"g{i}" for i in range(len(sigma))]
    sigma = _coeff_map(_sparse(np.array(sigma, dtype=np.int64) % p), ids)
    V = EquivariantComplex(p, [Generator(g, 0) for g in ids], {}, sigma, check=False)
    return _dense(V.norm(), len(ids))


class TestNorm:
    def test_large_prime_matches_sum_of_powers(self):
        p = 100003
        rng = random.Random(0)
        sigma = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        assert _columns_norm(sigma, p).tolist() == _norm_by_powers(sigma, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_tensor_powers_match_sum_of_powers(self, p):
        base = ChainComplex(p, [Generator("a", 0), Generator("b", 1)], {"a": {"b": 1}})
        T = tensor_power(base)
        norm = _dense(T.norm(), T.dim())
        for k in T.degrees():
            idx = T.degree_indices(k)
            assert norm[np.ix_(idx, idx)].tolist() == _norm_by_powers(sigma_block(T, k).tolist(), p)

    def test_norm_kills_one_minus_sigma(self):
        V = free_orbit(5)
        s = sigma_block(V, 0)
        assert not (_dense(V.norm(), 5) @ (np.eye(5, dtype=np.int64) - s) % 5).any()

    def test_a_complex_given_no_sigma_has_the_identity_action(self):
        cx = ChainComplex(5, [Generator("a", 0), Generator("b", 1)], {"a": {"b": 1}})
        assert cx.columns("sigma") == [{0: 1}, {1: 1}] and cx.sigma == {}
        assert cx.norm() == [{}, {}]
        assert cx.validate().ok


class TestActionWindow:
    def test_half_open_containment(self):
        w = ActionWindow(0, 1)
        assert not w.contains(Fraction(0))
        assert w.contains(Fraction(1, 2))
        assert w.contains(Fraction(1))
        assert not w.contains(Fraction(2))

    def test_unbounded_sides(self):
        assert ActionWindow(None, 0).contains(Fraction(-100))
        assert not ActionWindow(None, 0).contains(Fraction(1))
        assert ActionWindow(0, None).contains(Fraction(100))
        assert ActionWindow(None, None).contains(Fraction(0))

    def test_order_enforced(self):
        with pytest.raises(InadmissibleWindow):
            ActionWindow(1, 1)
        with pytest.raises(InadmissibleWindow):
            ActionWindow(2, 1)

    def test_scaled(self):
        w = ActionWindow(Fraction(1, 2), 3).scaled(2)
        assert (w.lower, w.upper) == (Fraction(1), Fraction(6))
        assert ActionWindow(None, 1).scaled(3).lower is None
        with pytest.raises(InadmissibleWindow):
            ActionWindow(0, 1).scaled(0)


class TestTensorPower:
    def test_degree_zero_singleton(self):
        base = ChainComplex(3, [Generator("v", 0)], {})
        T = tensor_power(base)
        assert T.dim() == 1
        assert T.sigma == {"v|v|v": {"v|v|v": 1}}
        assert fixed_dim(sigma_block(T, 0), 3) == 1

    def test_degree_one_singleton_sign(self):
        """Rotating a 3-word of odd-degree letters costs (-1)^(1*2) = +1."""
        base = ChainComplex(3, [Generator("v", 1)], {})
        T = tensor_power(base)
        assert T.generator("v|v|v").degree == 3
        assert T.sigma["v|v|v"] == {"v|v|v": 1}
        assert T.validate().ok

    def test_two_letters_p2_fixed_space(self):
        base = ChainComplex(2, [Generator("a", 0), Generator("b", 0)], {})
        T = tensor_power(base)
        assert T.dim() == 4
        assert fixed_dim(sigma_block(T, 0), 2) == 3  # aa, bb, ab+ba

    def test_differential_is_leibniz(self):
        base = ChainComplex(3, [Generator("x", 0), Generator("y", 1)], {"x": {"y": 1}})
        T = tensor_power(base)
        assert T.validate().ok
        row = T.differential["x|x|x"]
        assert row == {"y|x|x": 1, "x|y|x": 1, "x|x|y": 1}

    def test_actions_add(self):
        base = ChainComplex(3, [Generator("v", 0, Fraction(1, 2))], {})
        T = tensor_power(base)
        assert T.generator("v|v|v").action == Fraction(3, 2)

    @pytest.mark.parametrize(
        "p, n, built",
        [(13, 2, True), (7, 4, True), (2, 128, True), (3, 9, True), (17, 2, False), (3, 36, False),
         (16777213, 2, False), (16777213, 1, False), (131071, 1, True), (16777213, 0, True)],
    )
    def test_letters_stay_within_the_budget(self, p, n, built, monkeypatch):
        """p * n ** p letters at most MAX_TENSOR_LETTERS: the largest tensor
        powers the tests and benchmarks build (n = 243 at p = 5) fit, and
        a larger one raises TooLarge before any word is built."""
        base = ChainComplex(p, [Generator(f"g{i}", 0) for i in range(n)], {})
        if built:
            assert tensor_power(base).dim() == n**p
            return
        monkeypatch.setattr(complexes, "product", None)  # building a word would fail
        with pytest.raises(TooLarge, match="tensor power"):
            tensor_power(base)


class TestBlockBudget:
    """A Bareiss parity block, |odd| x |even| labels of V<1, theta>, has at
    most MAX_BLOCK_CELLS cells, checked before any polynomial entry of
    either block is written (ratfun.pupow writes every one)."""

    def test_blocks_stay_within_the_budget(self, monkeypatch):
        """Two generators in degree 0 and three in degree 1 give five labels
        of each parity: blocks of 25 cells are built at the limit 25, and
        refused at the limit 24."""
        import smith_tate.ratfun as ratfun
        import smith_tate.tate as tate

        gens = [Generator(f"a{i}", 0) for i in range(2)] + [Generator(f"b{i}", 1) for i in range(3)]
        V = ChainComplex(3, gens, {"a0": {"b1": 2}})
        pupow = ratfun.pupow
        monkeypatch.setattr(tate, "MAX_BLOCK_CELLS", 24)
        monkeypatch.setattr(ratfun, "pupow", None)  # writing an entry would fail
        with pytest.raises(TooLarge, match=r"^Bareiss block out of the even labels \(rows x columns\) is 25, above the limit of 24"):
            tate_cohomology_dims(V, method="bareiss")
        monkeypatch.setattr(ratfun, "pupow", pupow)
        monkeypatch.setattr(tate, "MAX_BLOCK_CELLS", 25)
        assert tate_cohomology_dims(V, method="bareiss") == tate_cohomology_dims(V) == (3, 3)

    def test_an_oversized_block_is_refused(self, monkeypatch):
        """2049 generators give parity blocks of 2049 x 2049 cells, past the
        limit of 2^22: TooLarge, and no entry is ever written."""
        import smith_tate.ratfun as ratfun

        n = 2049
        V = ChainComplex(3, [Generator(f"a{i:04d}", 0) for i in range(n)], {})
        assert n * n > complexes.MAX_BLOCK_CELLS
        monkeypatch.setattr(ratfun, "pupow", None)
        with pytest.raises(TooLarge, match="^Bareiss block out of the even labels"):
            tate_cohomology_dims(V, method="bareiss")


class TestInvariantsCoinvariants:
    """ker(1 - sigma) and coker(1 - sigma) in a degree both have dimension
    fixed_dim of sigma there."""

    def test_trivial_action(self):
        V = EquivariantComplex(3, [Generator(f"v{i}", 0) for i in range(4)], {}, {})
        assert fixed_dim(sigma_block(V, 0), 3) == 4

    def test_free_orbit(self):
        for p in (3, 5):
            assert fixed_dim(sigma_block(free_orbit(p), 0), p) == 1


class TestWindowTruncate:
    def setup_method(self):
        self.fc = FilteredComplex(
            3,
            [Generator("a", 2, 0), Generator("b", 1, 1), Generator("c", 0, 2)],
            {"c": {"b": 1}},
        )

    def test_full_window_is_identity(self):
        out = window_truncate(self.fc, ActionWindow(None, None))
        assert complex_to_json(out) == complex_to_json(self.fc)
        assert isinstance(out, FilteredComplex)

    def test_excluding_window_is_empty(self):
        out = window_truncate(self.fc, ActionWindow(100, 200))
        assert out.dim() == 0

    def test_partial_window_keeps_arrow(self):
        out = window_truncate(self.fc, ActionWindow(Fraction(1, 2), Fraction(5, 2)))
        assert {g.id for g in out.generators} == {"b", "c"}
        assert out.differential == {"c": {"b": 1}}
        assert out.homology_dims() == {}

    def test_boundary_arrow_dropped(self):
        out = window_truncate(self.fc, ActionWindow(Fraction(3, 2), None))
        assert {g.id for g in out.generators} == {"c"}
        assert out.differential == {}

    def test_kind_preserved(self):
        V = free_orbit(3)
        assert isinstance(window_truncate(V, ActionWindow(None, None)), EquivariantComplex)
        cx = ChainComplex(3, [Generator("v", 0)], {})
        assert type(window_truncate(cx, ActionWindow(None, None))) is ChainComplex


class TestJson:
    def test_chain_round_trip(self):
        cx = random_chain_complex(5, 11)
        back = complex_from_json(complex_to_json(cx))
        assert complex_to_json(back) == complex_to_json(cx)
        assert type(back) is ChainComplex

    def test_equivariant_round_trip(self):
        V = random_equivariant_filtered(3, 4)
        data = complex_to_json(V)
        assert "sigma" in data
        back = complex_from_json(data)
        assert isinstance(back, EquivariantComplex)
        assert complex_to_json(back) == data

    def test_filtered_round_trip(self):
        fc = random_filtered_complex(5, 21, max_gens=10)
        data = complex_to_json(fc)
        assert data.get("filtered") is True
        back = complex_from_json(data)
        assert isinstance(back, FilteredComplex)
        assert complex_to_json(back) == data

    def test_fraction_actions_survive(self):
        cx = ChainComplex(3, [Generator("v", 0, Fraction(7, 3))], {})
        back = complex_from_json(complex_to_json(cx))
        assert back.generator("v").action == Fraction(7, 3)

    def test_integer_action_accepted(self):
        cx = complex_from_json(
            {"p": 3, "generators": [{"id": "v", "degree": 0, "action": 4}], "differential": {}}
        )
        assert cx.generator("v").action == Fraction(4)

    def test_json_string_accepted(self):
        cx = complex_from_json('{"p": 3, "generators": [{"id": "v", "degree": 0}]}')
        assert cx.dim() == 1

    @pytest.mark.parametrize(
        "data",
        [
            "nonsense{",
            {"generators": []},
            {"p": 3, "generators": [{"degree": 0}]},
            {"p": 3, "generators": [], "differential": []},
            {"p": 3, "generators": [{"id": "v", "degree": 0, "action": {"num": 1, "den": 0}}]},
            {"p": 3, "generators": [{"id": "v", "degree": 0, "action": True}]},
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(MalformedInput):
            complex_from_json(data)


@given(st.sampled_from((2, 3, 5)), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_random_filtered_instances_are_valid(p, seed):
    fc = random_filtered_complex(p, seed, max_gens=10)
    for src, row in fc.differential.items():
        a = fc.generator(src).action
        for tgt in row:
            assert fc.generator(tgt).action < a
    k = fc.degrees()[0]
    prod = d_block(fc, k + 1) @ d_block(fc, k) % p
    assert not prod.any()


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_truncation_of_filtered_is_filtered(seed):
    fc = random_filtered_complex(3, seed, max_gens=10)
    levels = fc.actions()
    mid = levels[len(levels) // 2]
    out = window_truncate(fc, ActionWindow(None, mid + Fraction(1, 7)))
    assert isinstance(out, FilteredComplex)
    assert all(g.action <= mid + Fraction(1, 7) for g in out.generators)


def test_homology_of_unchecked_complex_without_square_zero_raises():
    # d(x) = y and d(y) = z, so d^2 (x) = z != 0
    gens = [Generator("x", 0), Generator("y", 1), Generator("z", 2)]
    cx = ChainComplex(3, gens, {"x": {"y": 1}, "y": {"z": 1}}, check=False)
    with pytest.raises(NotSquareZero, match="kernel of d\\^1"):
        cx.homology_dims()


def _unchecked_equivariant(p, seed):
    """An unchecked complex whose d and sigma may hit any generator."""
    rng = random.Random(seed)
    gens = [Generator(f"g{i}", rng.randint(-1, 2)) for i in range(rng.randint(1, 7))]

    def coeffs():
        return {
            g.id: {h.id: rng.randrange(1, p) for h in gens if rng.random() < 0.3}
            for g in gens
            if rng.random() < 0.7
        }

    return EquivariantComplex(p, gens, coeffs(), coeffs(), check=False)


def test_operator_matrices_match_entry_by_entry_loop():
    """The sparse columns of d and sigma against a plain loop over entries:
    the columns keep every entry of d and sigma, the graded part of d that
    the checks compose keeps those one degree up, and the oracles' d_block
    cuts degree k to k + 1 from them."""
    leaving = 0
    for p in (2, 3, 5, 7):
        for seed in range(25):
            for V in (
                random_equivariant_filtered(p, seed),
                random_free_equivariant(p, seed),
                _unchecked_equivariant(p, seed),
            ):
                n = V.dim()
                want = coeff_matrix_by_entries(V, V.sigma, range(n), range(n), sigma=True)
                step = np.subtract.outer(*[[g.degree for g in V.generators]] * 2)  # deg target - deg source
                leaving += bool((want[step != 0]).any())
                assert _dense(V.columns("sigma"), n).tolist() == want.tolist()
                want = coeff_matrix_by_entries(V, V.differential, range(n), range(n))
                leaving += bool((want[step != 1]).any())
                assert _dense(V.columns("differential"), n).tolist() == want.tolist()
                assert _dense(V._graded_d(), n).tolist() == np.where(step == 1, want, 0).tolist()
                for k in range(min(V.degrees()) - 1, max(V.degrees()) + 2):
                    idx = V.degree_indices(k)
                    want = coeff_matrix_by_entries(V, V.differential, idx, V.degree_indices(k + 1))
                    assert d_block(V, k).tolist() == want.tolist()
    assert leaving > 10


def test_random_complexes_at_the_largest_matrix_prime():
    """The conjugating products are reduced one at a time: unreduced, they
    overflow int64 near p = 2^24 and this seed's differential stopped
    squaring to zero."""
    p = 16777213
    for seed in (163, 164):
        fc = random_filtered_complex(p, seed, max_gens=20)
        assert not fc.action_violations()
        random_chain_complex(p, seed, max_dim=8)


def _nilpotent_entries(rng, n, p, chain):
    """(row, col, val) triples strictly upper triangular in a random order
    of the basis; with chain, one chain of nilpotency index n."""
    order = rng.sample(range(n), n)
    if chain:
        return [(order[i], order[i + 1], 1 + rng.randrange(p - 1)) for i in range(n - 1)]
    pairs = [sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))] if n >= 2 else []
    return [(order[i], order[j], rng.randrange(p)) for i, j in pairs]


def test_unipotent_inverse_matches_neumann_series():
    """The inverse of I + E is unique, so the repeated-squaring product of
    sparse columns equals the Neumann series, at small primes and at the
    largest matrix prime, on random supports and on chains up to n = 40."""
    for p in (2, 3, 5, 16777213):
        rng = random.Random(p)
        for _ in range(8):
            for chain in (False, True):
                n = rng.randint(1, 40)
                pm, inv = (_dense(cols, n) for cols in _unipotent_pair(n, p, _nilpotent_entries(rng, n, p, chain)))
                e = (pm - np.eye(n, dtype=np.int64)) % p
                assert inv.tolist() == unipotent_inverse_by_neumann(e, p).tolist()
                assert (pm @ inv % p).tolist() == np.eye(n, dtype=np.int64).tolist()
    with pytest.raises(ValueError, match="not nilpotent"):
        _unipotent_pair(3, 5, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])


def _homology_inputs(p):
    """Fixed-seed complexes of every kind that computes homology: random
    chain and filtered complexes, tensor powers, and the d_0^0 and d_1^1
    complexes of equivariant models with and without deformation, and of
    the same models with the theta slot rescaled, where d_1^1 != -d_0^0."""
    yield from (random_chain_complex(p, seed) for seed in range(12))
    yield from (random_filtered_complex(p, seed) for seed in range(12))
    base_dim = {2: 5, 3: 3, 5: 2, 7: 2}[p]
    yield from (tensor_power(random_chain_complex(p, 100 + seed, max_dim=base_dim)) for seed in range(3))
    for seed in range(4):
        for deform in (False, True):
            model = random_floer_model(p, seed, deform=deform)
            ids = [g.id for g in model.base.generators]
            for m in (model, _theta_rescaled(model, seed)):
                for i in (0, 1):
                    yield ChainComplex(p, m.base.generators, _coeff_map(m.terms.get((i, i), []), ids))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_homology_matches_the_solve_route(p):
    """Fixed-seed differential check of the representatives _homology and
    the class coordinates _coordinates against the dense elimination of
    [d^(k-1) | Z | I] that they replaced and against solving each cocycle
    beside the image basis of d^(k-1), query by query and five at once."""
    rng = np.random.default_rng(p)
    classes = boundaries = 0
    for cx in _homology_inputs(p):
        for k in cx.degrees():
            idx, h = cx.degree_indices(k), len(cx._homology(k))
            reps = block(cx._homology(k), idx, range(h)).T
            dense_reps, dense_coords = homology_dense(cx, k)
            assert [z.tolist() for z in reps] == [z.tolist() for z in homology_basis_by_solve(cx, k)]
            assert [z.tolist() for z in reps] == dense_reps.T.tolist()
            ker = rref(FpMatrix(d_block(cx, k), p)).kernel_basis
            if not ker:
                continue
            # random cocycles: kernel combinations plus random boundaries
            dprev = d_block(cx, k - 1)
            cocycles = np.array(ker).T @ rng.integers(0, p, (len(ker), 5))
            cocycles += dprev @ rng.integers(0, p, (dprev.shape[1], 5))
            cocycles %= p
            queries = [{idx[t]: x for t, x in col.items()} for col in _sparse(cocycles)]
            coords = _dense(cx._coordinates(k, queries), h)
            assert coords.shape == (h, 5)
            assert coords.tolist() == (dense_coords @ cocycles % p).tolist()
            for c in range(5):
                want = express_in_homology_by_solve(cx, k, cocycles[:, c])
                assert _dense(cx._coordinates(k, queries[c:c + 1]), h)[:, 0].tolist() == want.tolist()
                assert coords[:, c].tolist() == want.tolist()
            classes += int(coords.any())
            boundaries += int(dprev.any())
    assert classes >= 20 and boundaries >= 20

"""The one degree-and-action check against the checkers it replaced.

Every degree and action rule of d, sigma and the model terms runs through
complexes._out_of_range, once per object.  On fixed seeds these tests run
the loops and dense scans kept in oracles.py beside the library: the same
exception types and the same messages.  The one intended difference is
validate's flags, which used to put a d.d failure under
degree_one_differential.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    action_violations_by_fractions,
    construction_error_by_loops,
    model_degree_check_dense,
    model_validate_dense,
    sigma_violations_by_loops,
    structure_violations_by_loops,
    tate_homogeneity_dense,
    term_dense,
    validate_by_message_text,
)
from test_complexes import _unchecked_equivariant
from test_spectral import _perturbed
from test_tate import _unchecked_graded

from smith_tate.cli import dispatch
from smith_tate.complexes import (
    ChainComplex,
    EquivariantComplex,
    Generator,
    _coeff_map,
    _out_of_range,
    _sparse,
    complex_to_json,
)
from smith_tate.errors import SmithTateError
from smith_tate.random_instances import random_filtered_complex, random_floer_model
from smith_tate.spectral import EquivariantFloerModel, model_to_json
from smith_tate.tate import tate_columns

PRIMES = (2, 3, 5, 7)


def _outcome(fn, *args):
    """(exception type name, message) of fn(*args), or ("ok", result)."""
    try:
        return "ok", fn(*args)
    except SmithTateError as e:
        return type(e).__name__, str(e)


def test_primitive_keeps_the_callers_order():
    grade = [0, 1, 1, 3]
    entries = [(3, 0), (1, 0), (0, 1), (2, 1), (3, 2)]
    assert _out_of_range(entries, grade, 1, 1) == [(3, 0), (0, 1), (2, 1), (3, 2)]
    assert _out_of_range(entries, grade, -float("inf"), -1) == [(3, 0), (1, 0), (2, 1), (3, 2)]
    assert _out_of_range(entries, grade, 0, 2) == [(3, 0), (0, 1)]
    assert _out_of_range([], grade, 0, 0) == []


def _unchecked_with_actions(p, seed):
    """An unchecked complex whose d and sigma hit any generator, with
    generators spread over a few degrees and actions."""
    rng = random.Random(seed)
    gens = [
        Generator(f"g{i}", rng.randint(-1, 1), Fraction(rng.randint(0, 2), rng.choice((1, 2))))
        for i in range(rng.randint(1, 7))
    ]

    def coeffs():
        return {
            g.id: {h.id: rng.randrange(1, p) for h in gens if rng.random() < 0.3}
            for g in gens
            if rng.random() < 0.6
        }

    return EquivariantComplex(p, gens, coeffs(), coeffs(), check=False)


def _fixed_flags(old):
    """validate_by_message_text's flags with the d messages sorted by rule."""
    return {
        **old.checks,
        "degree_one_differential": not any(m.endswith("not one degree higher") for m in old.violations),
        "square_zero": not any(m.startswith("d.d != 0") for m in old.violations),
    }


@pytest.mark.parametrize("p", PRIMES)
def test_complex_checks_match_the_loops(p):
    """Construction, validate, action_violations and the Tate homogeneity
    check on unchecked complexes, against the loops they replaced."""
    seen = Counter()
    for seed in range(40):
        for V in (_unchecked_equivariant(p, seed), _unchecked_graded(p, seed), _unchecked_with_actions(p, seed)):
            assert [m for _, m in V._structure_violations()] == structure_violations_by_loops(V)
            old_checks, old_msgs = sigma_violations_by_loops(V)
            new = V._sigma_violations()
            assert [m for _, m in new] == old_msgs
            assert old_checks == {c: all(k != c for k, _ in new) for c in old_checks}
            assert V.action_violations() == action_violations_by_fractions(V)

            report, old = V.validate(strict_action=True), validate_by_message_text(V, strict_action=True)
            assert report.violations == old.violations
            assert report.checks == _fixed_flags(old)
            assert report.ok == old.ok
            seen["misfiled"] += report.checks != old.checks
            seen.update(check for check, ok in report.checks.items() if not ok)

            built = _outcome(EquivariantComplex, p, V.generators, V.differential, V.sigma)
            want = construction_error_by_loops(V)
            assert built == (("ok", built[1]) if want is None else ("InvalidComplex", want))

            new_tate, old_tate = _outcome(tate_columns, V), _outcome(tate_homogeneity_dense, V)
            assert new_tate[0] == old_tate[0]
            if new_tate[0] != "ok":
                assert new_tate == old_tate
            seen["tate " + new_tate[0]] += 1
    assert seen["misfiled"] > 0 and seen["tate ok"] > 0 and seen["tate InvalidComplex"] > 0
    assert all(seen[c] > 0 for c in ("degree_one_differential", "square_zero", "sigma_structure", "action_decrease"))
    if p > 2:
        # at p = 2 a graded sigma of order 2 commutes with d more often than not
        assert seen["equivariance"] > 0


def _rebuild(model, check=True):
    """A model with model's terms, every default slot given explicitly."""
    slots = list(model.terms) + [s for s in ((0, 0), (1, 0), (1, 1), (2, 1)) if s not in model.terms]
    zero = [{}] * model.base.dim()
    terms = {s: model.terms.get(s, zero) for s in slots if s[0] <= model.i_max}
    return EquivariantFloerModel(model.base, terms, i_max=model.i_max, check=check)


def _scrambled(model, seed):
    """The model plus one entry anywhere in one term, built unchecked: it
    may break the degree rule, the action rule or the square."""
    rng = random.Random(seed)
    n = model.base.dim()
    i, alpha = rng.choice([(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1)])
    m = term_dense(model, i, alpha)
    m[rng.randrange(n), rng.randrange(n)] = rng.randrange(1, model.p)
    terms = {**model.terms, (i, alpha): _sparse(m)}
    return EquivariantFloerModel(model.base, terms, i_max=max(model.i_max, i), check=False)


@pytest.mark.parametrize("p", PRIMES)
def test_model_checks_match_the_dense_scan(p):
    """The checked constructor and columns() of valid, perturbed and
    scrambled models raise what the dense scans of the terms raise."""
    seen = Counter()
    for seed in range(15):
        model = random_floer_model(p, seed)
        if not model.base.dim():
            continue
        for m in (model, _perturbed(model, seed), _scrambled(model, seed), _scrambled(model, seed + 100)):
            built = _outcome(_rebuild, m)
            want = _outcome(model_validate_dense, m)
            assert built[0] == want[0]
            if want[0] != "ok":
                assert built == want
            columns = _outcome(_rebuild(m, check=False).columns)
            assert columns[0] == _outcome(model_degree_check_dense, m)[0]
            seen[built[0]] += 1
    assert all(seen[k] > 0 for k in ("ok", "InvalidComplex", "FiltrationViolation", "NotSquareZero")), seen


def test_model_messages_name_the_first_bad_entry_in_row_major_order():
    """Each model message names the first entry of its term that breaks the
    rule in row-major order, as the dense scan does; the term's columns
    hold the entries column by column, which would name another."""
    p, zero = 3, np.zeros((3, 3), dtype=np.int64)
    graded = EquivariantComplex(p, [Generator("a", 0), Generator("b", 0), Generator("c", 1)], {}, {})
    acted = EquivariantComplex(p, [Generator("a", 0, 1), Generator("b", 0, 2), Generator("c", 0, 0)], {}, {})
    for base, entries, want in (
        (graded, [(2, 0), (0, 2)], ("InvalidComplex", "d_term (1,0) entry c -> a violates degree 1-i+alpha = 0")),
        (acted, [(1, 0), (0, 2)], ("FiltrationViolation", "d_term (1,0) must not increase action (c -> a)")),
    ):
        m = zero.copy()
        for r, c in entries:
            m[r, c] = 1
        assert _outcome(EquivariantFloerModel, base, {(1, 0): _sparse(m)}, 2) == want
        assert _outcome(model_validate_dense, EquivariantFloerModel(base, {(1, 0): _sparse(m)}, 2, check=False)) == want


def _counting(monkeypatch, cls, name, computes):
    """Count the calls of cls.name for which computes(self, *args) holds
    on entry."""
    calls = []
    real = getattr(cls, name)

    def counted(self, *args):
        if computes(self, *args):
            calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_checks_run_once_per_op(tmp_path, monkeypatch, capsys):
    """A spectral algebraic op checks its base complex once and its model
    once; a barcode op evaluates the action rule of d once."""
    model = tmp_path / "m.json"
    model.write_text(json.dumps(model_to_json(random_floer_model(3, 2))), encoding="utf-8")
    fc = tmp_path / "f.json"
    fc.write_text(json.dumps(complex_to_json(random_filtered_complex(3, 4, max_gens=20))), encoding="utf-8")
    structure = _counting(monkeypatch, ChainComplex, "_structure_violations", lambda self: True)
    verdicts = _counting(monkeypatch, ChainComplex, "_take", lambda self, op, given: True)
    model_verdicts = _counting(
        monkeypatch, EquivariantFloerModel, "_verdict", lambda self: self._verdict_cache is None
    )
    assert dispatch(["spectral", "algebraic", "--input", str(model), "--json"]) == 0
    assert (len(structure), len(model_verdicts)) == (1, 1)
    verdicts.clear()
    for argv in (["barcode", "--input", str(fc)], ["spectral", "action", "--input", str(fc)]):
        assert dispatch(argv + ["--json"]) == 0
    assert [op for op, _ in verdicts] == ["differential", "differential"]
    capsys.readouterr()


def test_unchecked_pages_of_a_checked_model_are_square_zero():
    """algebraic_ss_pages builds its page complexes unchecked: on every
    seed they pass the full check all the same."""
    for p in PRIMES:
        for seed in range(10):
            model = random_floer_model(p, seed)
            ids = [g.id for g in model.base.generators]
            for i in (0, 1):
                d = _coeff_map(model.terms.get((i, i), []), ids)
                assert not ChainComplex(p, model.base.generators, d, check=False)._structure_violations()

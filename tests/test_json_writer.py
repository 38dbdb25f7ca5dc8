"""The --json writer: byte for byte the text of json.dumps(indent=2,
sort_keys=True), on every subcommand's report and on generated trees, and
on raw results trees the text of json.dumps of oracles.jsonable."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from oracles import jsonable

import smith_tate.cli as cli
import smith_tate.complexes as complexes
import smith_tate.fuzz as fuzz
from smith_tate.cli import _json_text, dispatch
from smith_tate.complexes import ActionWindow, EquivariantComplex, Generator, complex_to_json
from smith_tate.errors import TooLarge
from smith_tate.persistence import Bar, Barcode, barcode_to_json, generate_iterated_barcode
from smith_tate.random_instances import planted_filtered_complex, random_filtered_complex, random_floer_model
from smith_tate.spectral import model_to_json


def _dumps(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


def _write(path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _inputs(tmp_path) -> dict[str, list[str]]:
    """One argv per subcommand, on inputs with nested, empty and rational
    parts in their reports."""
    free = [Generator(f"e{j}", 0, 1) for j in range(3)] + [Generator("t", 1, 0)]
    sigma = {f"e{j}": {f"e{(j + 1) % 3}": 1} for j in range(3)}
    V = EquivariantComplex(3, free, {f"e{j}": {"t": 1} for j in range(3)}, sigma)
    V = _write(tmp_path / "v.json", complex_to_json(V))
    sig = _write(tmp_path / "s.json", {"p": 3, "size": 3, "matrix": [[1, 0, 1], [2, 1, 1], [0, 2, 1]]})
    rng = random.Random(5)
    levels = sorted({Fraction(rng.randint(-20, 40), rng.choice((1, 2, 3))) for _ in range(12)})
    finite = [(*sorted(rng.sample(levels, 2)), 1) for _ in range(12)]
    fc, _ = planted_filtered_complex(3, finite, levels[:3], 1)
    filt = _write(tmp_path / "f.json", complex_to_json(fc))
    act = _write(tmp_path / "a.json", complex_to_json(random_filtered_complex(3, 4, max_gens=20)))
    model = _write(tmp_path / "m.json", model_to_json(random_floer_model(3, 2)))
    b1 = Barcode(3, [Bar(0, 1), Bar("1/2", None), Bar(-2, "7/3", 2)])
    single = _write(tmp_path / "b1.json", barcode_to_json(b1))
    iterate = _write(tmp_path / "bp.json", barcode_to_json(generate_iterated_barcode(b1, 3, extra_bars=2, seed=5)))
    return {
        "tate": ["tate", "--input", V],
        "group-cohomology": ["group-cohomology", "--input", V, "--max-degree", "4"],
        "quasi-frobenius": ["quasi-frobenius", "--input", V],
        "decompose": ["decompose", "--sigma", sig],
        "smith-check": ["smith-check", "--hf-dim", "1", "--sigma", sig],
        "spectral": ["spectral", "action", "--input", act],
        "spectral-algebraic": ["spectral", "algebraic", "--input", model],
        "barcode": ["barcode", "--input", filt],
        "barcode-window": ["barcode", "--input", filt, f"--window={levels[0] - 1}:{levels[1] - Fraction(1, 7)}"],
        "barcode-smith": ["barcode-smith", "--single", single, "--iterate", iterate],
        "torsion": ["torsion", "--input", single],
        "morse-constants": ["morse-constants", "-p", "5"],
        "fuzz": ["fuzz", "--op", "spectral-action", "--count", "3", "--seed", "2"],
    }


def test_every_subcommand_covered(tmp_path):
    assert {argv[0] for argv in _inputs(tmp_path).values()} == set(cli._COMMANDS)


@pytest.mark.parametrize(
    "case",
    [
        "tate",
        "group-cohomology",
        "quasi-frobenius",
        "decompose",
        "smith-check",
        "spectral",
        "spectral-algebraic",
        "barcode",
        "barcode-window",
        "barcode-smith",
        "torsion",
        "morse-constants",
        "fuzz",
    ],
)
def test_report_is_the_text_of_json_dumps(case, tmp_path, capsys):
    code = dispatch(_inputs(tmp_path)[case] + ["--json"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out == _dumps(json.loads(out)) + "\n"


def test_fuzz_reproducer_is_the_text_of_json_dumps(tmp_path, monkeypatch, capsys):
    real = fuzz._FUZZ_OPS["barcode-roundtrip"]
    failing = fuzz.FuzzOp(real.name, real.generate, lambda payload: (False, {"why": "planted"}))
    monkeypatch.setitem(fuzz._FUZZ_OPS, real.name, failing)
    path = tmp_path / "rep.json"
    code = dispatch(["fuzz", "--op", real.name, "--count", "1", "--reproducer", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == _dumps(json.loads(out)) + "\n"
    text = path.read_text(encoding="utf-8")
    assert text == _dumps(json.loads(text)) + "\n"


_strings = st.one_of(
    st.text(max_size=12),
    st.text(alphabet='"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80\u2028\ufeff\u00e9\u20ac\U0001f600 aZ', max_size=12),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    _strings,
)
_trees = st.recursive(
    _scalars,
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.dictionaries(_strings, kids, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_generated_trees(tree):
    assert _json_text(tree) == _dumps(tree)


@pytest.mark.parametrize("tree", [{}, [], [{}], {"": []}, [[[]]], {"a": {"b": {}}}, [None, True, False, 0, -1, ""]])
def test_empty_containers_and_constants(tree):
    assert _json_text(tree) == _dumps(tree)


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        _json_text({"x": 1.5})


# raw results trees: what the subcommands hand the writer before conversion
_fractions = st.fractions(max_denominator=60)
_windows = (
    st.tuples(st.one_of(st.none(), _fractions), st.one_of(st.none(), _fractions))
    .filter(lambda t: None in t or t[0] < t[1])
    .map(lambda t: ActionWindow(*t))
)
_raw_scalars = st.one_of(
    _scalars,
    _fractions,
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _windows,
    arrays(np.int64, array_shapes(min_dims=0, max_dims=2, min_side=0), elements=st.integers(-(10**6), 10**6)),
)
# no two kinds of key can convert to the same string: tuple keys hold a
# comma, int keys a digit, and string keys neither
_plain_keys = st.text(alphabet='abcXYZ -_/"\\\u00e9\U0001f600', max_size=6)
_raw_keys = st.one_of(
    _plain_keys,
    st.integers(),
    st.tuples(st.integers(), st.integers()),
    st.tuples(_plain_keys, st.integers(-3, 3), st.integers(0, 9)),
)
_raw_trees = st.recursive(
    _raw_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_raw_keys, kids, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_raw_trees)
def test_raw_trees_convert_as_they_are_written(tree):
    assert _json_text(tree) == _dumps(jsonable(tree))


def test_every_raw_type_once():
    tree = {
        ("s", 2): Fraction(-3, 4),
        1: np.int64(7),
        "window": ActionWindow(Fraction(1, 3), None),
        "matrix": np.array([[1, 2], [3, 4]], dtype=np.int64),
        "row": np.array([5, 6], dtype=np.int64),
        "pair": (Fraction(2), [np.int64(-1)]),
    }
    assert json.loads(_json_text(tree)) == {
        "s,2": "-3/4",
        "1": 7,
        "window": {"lower": "1/3", "upper": None},
        "matrix": [[1, 2], [3, 4]],
        "row": [[5, 6]],
        "pair": ["2/1", [-1]],
    }
    assert _json_text(tree) == _dumps(jsonable(tree))


# the records branch: a list of dicts with one set of str keys and scalar
# values is written column by column through one row template
_record_keys = st.lists(st.text(alphabet='%"\\/é\U0001f600 aZ', max_size=4), min_size=1, max_size=5, unique=True)
_record_values = st.one_of(st.none(), st.booleans(), st.integers(), _strings, _fractions)


@st.composite
def _records(draw):
    """A list of records on shared keys, each inserted in its own order,
    whose columns mix None, bool, int, str and Fraction values."""
    keys = draw(_record_keys)
    return [
        {k: draw(_record_values) for k in draw(st.permutations(keys))}
        for _ in range(draw(st.integers(1, 8)))
    ]


def _takes_records_branch(x) -> bool:
    out = []
    taken = complexes._write_records(x, "\n", out)
    assert taken or out == []
    return taken


@settings(max_examples=300, deadline=None)
@given(_records())
@example([{"%s": 1, '"': None, "\\": True, "é\U0001f600": Fraction(-1, 3), "": "%d"}, {"": 2, "\\": False, "é\U0001f600": "x", "%s": None, '"': Fraction(4)}])
def test_record_lists(records):
    assert _takes_records_branch(records)
    tree = {"results": {"bars": records, "p": 3}, "top": records, "nested": [records, [records]]}
    assert _json_text(tree) == _dumps(jsonable(tree))
    assert _json_text(records) == _dumps(jsonable(records))


def _base():
    return [{"start": Fraction(1, 2), "end": None, "mult": 1}, {"mult": 2, "end": "3/1", "start": Fraction(0)}]


def _with(i, **changes):
    records = _base()
    records[i].update(changes)
    return records


def _without(i, key):
    records = _base()
    del records[i][key]
    return records


@pytest.mark.parametrize(
    "records",
    [
        _with(0, extra=1),
        _with(1, extra=1),
        _without(0, "end"),
        _without(1, "end"),
        _with(1, end=[1, 2]),
        _with(0, end={"a": None}),
        _with(1, end=ActionWindow(Fraction(1, 3), None)),
        _with(1, mult=np.int64(2)),
        _base() + [ActionWindow(None, Fraction(2))],
        [{1: "a", "b": 2}, {1: "c", "b": 3}],
        [{"a": 1, "b": 2}, {"a": 1, 3: 2}],
        [{(1, 2): "x"}, {(1, 2): "y"}],
        [{"s": 1}, {("s",): 1}],
        [{}, {}],
        [{"a": 1}, {}],
        [{"a": True}, [1]],
    ],
)
def test_near_miss_record_lists_take_the_recursive_path(records):
    assert not _takes_records_branch(records)
    tree = {"results": {"bars": records}}
    assert _json_text(tree) == _dumps(jsonable(tree))


@pytest.mark.parametrize(
    "big",
    [10**4300, -(10**4300), Fraction(10**4300, 3), Fraction(1, 10**4300)],
    ids=["int", "negative-int", "numerator", "denominator"],
)
def test_a_record_past_the_digit_limit_raises_too_large(big):
    records = _with(1, end=big)
    with pytest.raises((TooLarge, ValueError)):  # int.__repr__'s ValueError becomes TooLarge in _json_text
        complexes._write_records(records, "\n", [])
    with pytest.raises(TooLarge):
        _json_text({"bars": records})

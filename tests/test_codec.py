"""The one codec of outside input: files read once, one JSON parser, one
rational reader, and a mutation corpus of every input kind that must end in
a typed error with exit code 2."""

import builtins
import copy
import fractions
import hashlib
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import smith_tate.errors as errors
from smith_tate.cli import dispatch
from smith_tate.complexes import (
    _MAX_DIGITS,
    ChainComplex,
    EquivariantComplex,
    FilteredComplex,
    _parse_json,
    _rational,
    _rational_pair,
    _strict_int,
    _triplets_from_json,
    complex_from_json,
    complex_to_json,
)
from smith_tate.errors import MalformedInput, TooLarge
from smith_tate.persistence import Bar, Barcode, barcode_from_json, barcode_to_json, generate_iterated_barcode
from smith_tate.random_instances import (
    random_chain_complex,
    random_equivariant_filtered,
    random_filtered_complex,
    random_floer_model,
    random_free_equivariant,
)
from smith_tate.spectral import model_from_json, model_to_json

from oracles import DictComplex, dict_complex_from_json, generators_from_json_by_dataclass
from test_grading_checks import _outcome


@pytest.fixture()
def run(capsys):
    def _run(argv):
        code = dispatch(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


# ---------------------------------------------------------------------------
# the rational reader against fractions.Fraction


def _reads_as(s):
    """What _rational must give for s: Fraction(s), or None when Fraction
    refuses s or would build a power of 10 of more than _MAX_DIGITS digits
    (Fraction's own grammar says where the exponent is)."""
    m = fractions._RATIONAL_FORMAT.match(s)
    try:
        if m and m["exp"] and abs(int(m["exp"])) >= _MAX_DIGITS:
            return None
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


def _check_reads_as(s):
    want = _reads_as(s)
    if want is None:
        with pytest.raises(MalformedInput):
            _rational(s, "x")
    else:
        assert _rational(s, "x") == want


_WS = st.sampled_from(["", " ", "\t", "\n ", "\u2003"])
_DIGITS = st.lists(st.text("0123456789", min_size=1, max_size=4), min_size=1, max_size=3).map("_".join)


@st.composite
def rational_literals(draw):
    """Text in every form Fraction reads: signs, whitespace, n/d, decimals,
    underscores and exponents on both sides of the bound."""
    form = draw(st.sampled_from(["integer", "ratio", "decimal"]))
    if form == "ratio":
        body = draw(_DIGITS) + draw(_WS) + "/" + draw(_WS) + draw(_DIGITS)
    else:
        body = draw(_DIGITS)
        if form == "decimal":
            body = draw(st.sampled_from(["", body])) + "." + draw(_DIGITS)
        if draw(st.booleans()):
            exp = draw(st.integers(-_MAX_DIGITS - 5, _MAX_DIGITS + 5))
            sign = "-" if exp < 0 else draw(st.sampled_from(["", "+"]))
            digits = str(abs(exp))
            if len(digits) > 1 and draw(st.booleans()):
                digits = digits[:1] + "_" + digits[1:]
            body += draw(st.sampled_from("eE")) + sign + digits
    return draw(_WS) + draw(st.sampled_from(["", "+", "-"])) + body + draw(_WS)


@given(rational_literals())
@settings(max_examples=400, deadline=None)
def test_rational_reads_every_literal_fraction_reads(s):
    _check_reads_as(s)


@given(st.text("0123456789+-./_eE \t\u0660\u00a0xn", max_size=8))
@settings(max_examples=400, deadline=None)
def test_rational_agrees_with_fraction_on_any_text(s):
    _check_reads_as(s)


@pytest.mark.parametrize(
    "v, want",
    [(7, Fraction(7)), (-2, Fraction(-2)), (0.1, Fraction(1, 10)), (2.5e-3, Fraction(1, 400)), ("1e4299", Fraction(10**4299))],
)
def test_rational_reads_numbers_through_their_text(v, want):
    assert _rational(v, "x") == want


def test_rational_reads_ints_exactly():
    """An int reads as itself, however many digits it has, and never
    through its text, which Python refuses past 4300 digits."""
    big = 10**5000
    assert _rational(big, "x") == big
    assert barcode_from_json({"p": 3, "bars": [{"start": big}]}).bars[0].start == big


@pytest.mark.parametrize(
    "v",
    [float("inf"), float("-inf"), float("nan"), True, None, [1], {"num": 1}, "inf", "1/0", "",
     "1e4300", "1E-4300", " 1e10000000 ", "1e-10000000", "1e1_0000000", "1e" + "9" * 5000],
)
def test_rational_refusals(v):
    t0 = time.perf_counter()
    with pytest.raises(MalformedInput):
        _rational(v, "x")
    assert time.perf_counter() - t0 < 1


def test_rational_refuses_a_container_of_a_huge_int():
    """The refusal never writes out a value whose text Python refuses."""
    with pytest.raises(MalformedInput, match="of type list"):
        _rational([10**5000], "x")


# ---------------------------------------------------------------------------
# the (num, den) reader of bar endpoints against the rational reader


def _check_pair_reads_as_rational(v):
    """_rational_pair(v) is _rational(v) as a pair with a positive
    denominator, or the same refusal with the same text."""
    try:
        want = _rational(v, "bar start")
    except MalformedInput as e:
        with pytest.raises(MalformedInput) as got:
            _rational_pair(v, "bar start")
        assert str(got.value) == str(e)
    else:
        n, d = _rational_pair(v, "bar start")
        assert type(n) is int and type(d) is int and d > 0 and Fraction(n, d) == want


@given(rational_literals())
@settings(max_examples=300, deadline=None)
def test_the_pair_reader_reads_every_literal_as_rational_does(s):
    _check_pair_reads_as_rational(s)


@given(st.text("0123456789+-/_ \t\u0660\u0663\u00a0\uff11x", max_size=8))
@settings(max_examples=400, deadline=None)
def test_the_pair_reader_agrees_with_rational_on_any_text(s):
    _check_pair_reads_as_rational(s)


def _endpoint_corpus():
    """The refused and accepted endpoints of the barcode corpus and of
    test_rational_refusals, with edges of the plain "n/d" form."""
    values = [v for path, vs in _KINDS["barcode"][2] if path[-1] in ("start", "end") for v in vs]
    values += [float("inf"), True, None, [1], {"num": 1}, "inf", "1/0", "", "1e4300", " 1e10000000 ", "1e1_0000000"]
    values += ["1/2", "2/4", "-0/5", "+1/2", " 1/2", "1/2 ", "1/2\n", "1_0/3", "0/0", "1/-2", "-1/-2", "--1", "1//2",
               "/2", "1/", "-", "0x10", "0b1", "\u0663/\u0664", "1\u0663", "\uff11/2", "00/007", "7", "-0", "1.5/2"]
    values += ["9" * 4300, "-" + "9" * 4299, "-" + "9" * 4300, "9" * 4301, "1/" + "9" * 4298, "1/" + "9" * 4299]
    values += [0, -3, 10**5000, -(10**5000), 0.5, 2.5e-3]
    return [v for v in values if v is not _DROP and v is not _RENAME]


def test_the_pair_reader_reads_the_corpus_as_rational_does():
    for v in _endpoint_corpus():
        _check_pair_reads_as_rational(v)


@pytest.mark.parametrize(
    "raw",
    [
        [{"id": "", "degree": "x"}],
        [{"id": "", "degree": 0, "action": "x"}],
        [{"id": "", "degree": 0}],
        [{"id": "a", "degree": 0, "action": {"num": 1, "den": 0}}, {"id": "", "degree": 0}],
        [{"id": "a", "degree": 0, "action": {"num": True, "den": 2}}],
        [{"id": "a", "degree": 0, "action": {"num": 1, "den": 2.0}}],
        [{"id": "a", "degree": 0, "action": {"num": 1, "den": 2, "x": 1}}],
        [{"id": "a", "degree": 0, "action": {"den": 2, "x": 1}}],
        [{"id": "a", "degree": 1.0, "action": {"num": 3}}, {"id": "b", "degree": 0, "action": {"num": 6, "den": -4}}],
        [{"id": 7, "degree": 0, "action": {"num": -3, "den": 2}}, {"id": "c", "degree": 2, "action": -2}],
    ],
)
def test_generators_read_as_the_validating_constructor_reads_them(raw):
    """The trusted generator route keeps the checks, their order and their
    text: the same generators or the same refusal."""
    try:
        want = generators_from_json_by_dataclass(raw)
    except MalformedInput as e:
        with pytest.raises(MalformedInput) as got:
            complex_from_json({"p": 3, "generators": raw})
        assert str(got.value) == str(e)
    else:
        gens = complex_from_json({"p": 3, "generators": raw}).generators
        assert list(gens) == want
        assert all(type(g.degree) is int and type(g.action) is Fraction for g in gens)


_HUGE = 10**5000  # an int whose repr Python refuses: more than 4300 digits


def _fuzz_field():
    from smith_tate.fuzz import _field

    _field({"complex": [_HUGE]}, "complex")


def _fuzz_window():
    from smith_tate.fuzz import _payload_window

    _payload_window([_HUGE])


@pytest.mark.parametrize(
    "refused",
    [
        lambda: barcode_from_json({"p": 3, "bars": [{"end": _HUGE}]}),
        lambda: barcode_from_json({"p": 3, "bars": [{"start": _HUGE, "end": 0}]}),
        lambda: barcode_from_json({"p": 3, "bars": [{"start": 0, "mult": -_HUGE}]}),
        lambda: Bar([_HUGE], None),
        lambda: Bar(0, [_HUGE]),
        lambda: complex_from_json({"p": 3, "generators": [{"id": "a", "degree": 0, "action": [_HUGE]}]}),
        lambda: complex_from_json({"p": 3, "generators": [{"id": "a", "weight": _HUGE}]}),
        lambda: complex_from_json({"p": 3, "generators": [{"id": "a", "degree": [_HUGE]}]}),
        lambda: _triplets_from_json({"m": _HUGE}, 2, 3),
        lambda: _triplets_from_json([[_HUGE]], 2, 3),
        lambda: _triplets_from_json([[_HUGE, 0, 1]], 2, 3),
        lambda: model_from_json({"p": 3, "generators": [], "sigma": {}, "d_terms": [[_HUGE]]}),
        _fuzz_field,
        _fuzz_window,
    ],
    ids=[
        "bar-end", "bar-start-after-end", "bar-mult", "bar-start-list", "bar-end-list", "action",
        "generator-entry", "strict-int", "triplets-not-a-list", "triplet", "triplet-out-of-range",
        "d-term-entry", "fuzz-field", "fuzz-window",
    ],
)
def test_a_refusal_never_writes_out_a_huge_int(refused):
    """Every refusal of outside input names a value whose text Python
    refuses by its type, and stays typed."""
    from smith_tate.fuzz import _BadPayload

    try:
        refused()
    except MalformedInput as e:
        assert "of type" in str(e)
    except _BadPayload as e:
        assert e.args[0] is MalformedInput and "of type" in e.args[1]
    else:
        pytest.fail("no refusal")


def test_a_rational_past_the_digit_limit_is_too_large_to_write():
    """Every report writes rationals as "num/den" text, which Python refuses
    past 4300 digits on a side: that is TooLarge, and 4300 digits still write."""
    with pytest.raises(TooLarge):
        barcode_to_json(barcode_from_json({"p": 3, "bars": [{"start": 10**5000}]}))
    edge = {"p": 3, "bars": [{"start": 10**4299}]}
    assert barcode_to_json(barcode_from_json(edge))["bars"][0]["start"] == f"{10**4299}/1"


# ---------------------------------------------------------------------------
# each input file is read once


def test_each_file_is_opened_once(run, tmp_path, monkeypatch):
    iso = {
        "p": 3,
        "generators": [{"id": "a", "degree": 0, "action": 1}, {"id": "b", "degree": 1, "action": 0}],
        "differential": {"a": {"b": 1}},
        "filtered": True,
        "sigma": {},
    }
    b1 = Barcode(3, [Bar(0, 1), Bar("1/2", None)])
    files = {
        "iso": iso,
        "sigma": {"p": 3, "size": 3, "matrix": [[1, 0, 1], [2, 1, 1], [0, 2, 1]]},
        "single": barcode_to_json(b1),
        "iterate": barcode_to_json(generate_iterated_barcode(b1, 3, extra_bars=2, seed=5)),
        "model": model_to_json(random_floer_model(3, 5)),
    }
    files["replay"] = {"op": "torsion-detector", "payload": {"kind": "barcode", "barcode": files["single"]}}
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data), encoding="utf-8")
    paths = {name: str(path) for name, path in paths.items()}
    runs = [
        ["tate", "--input", paths["iso"]],
        ["group-cohomology", "--input", paths["iso"]],
        ["quasi-frobenius", "--input", paths["iso"]],
        ["decompose", "--sigma", paths["sigma"]],
        ["smith-check", "--hf-dim", "0", "--sigma", paths["sigma"]],
        ["spectral", "action", "--input", paths["iso"]],
        ["spectral", "algebraic", "--input", paths["model"]],
        ["barcode", "--input", paths["iso"]],
        ["barcode-smith", "--single", paths["single"], "--iterate", paths["iterate"]],
        ["torsion", "--input", paths["single"]],
        ["fuzz", "--replay", paths["replay"]],
    ]
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda f, *a, **kw: opened.append(f) or real_open(f, *a, **kw))
    for argv in runs:
        opened.clear()
        code, out, _ = run(argv + ["--json"])
        assert code == 0, argv
        named = sorted(a for a in argv if a in paths.values())
        assert sorted(opened) == named, argv
        if argv[0] == "barcode-smith":
            both = b"".join(Path(paths[name]).read_bytes() for name in ("single", "iterate"))
            assert json.loads(out)["input_sha256"] == hashlib.sha256(both).hexdigest()


# ---------------------------------------------------------------------------
# malformed input of every kind: typed error, exit code 2


def _raw(text):
    """A value written into the mutant's JSON text as text, unquoted."""
    return {"$raw": text}


_DROP, _RENAME = object(), object()
_HUGE_EXP = _raw("1e10000000")  # a JSON number that reads as an infinite float
_HUGE_INT = _raw("9" * 5000)
_NONFINITE = [float("nan"), float("inf"), float("-inf"), _HUGE_EXP]
_NOT_INT = ["3", 3.5, None, True, [3], {}, _HUGE_INT, *_NONFINITE]

_COMPLEX = {
    "p": 3,
    "generators": [{"id": "a", "degree": 0, "action": 1}, {"id": "b", "degree": 1, "action": 0}],
    "differential": {"a": {"b": 1}},
}
_BARCODE = {"p": 3, "bars": [{"start": "0/1", "end": "1/1", "mult": 1}, {"start": "1/2", "end": None, "mult": 1}]}

# kind: (command with @ for the input file, valid input, [(path, replacements)])
_KINDS = {
    "complex": (
        ["tate", "--input", "@"],
        {**_COMPLEX, "sigma": {}},
        [
            (("p",), [_DROP, _RENAME, 4, *_NOT_INT]),
            (("generators",), [_DROP, _RENAME, {}, "a", None, [1], [{}]]),
            (("generators", 0, "id"), [_DROP, _RENAME, ""]),
            (("generators", 0, "degree"), [_DROP, _RENAME, *_NOT_INT]),
            (("generators", 0, "action"), ["1", 0.5, None, True, {"num": 1, "den": 0}, {"den": 1}, "1e10000000", *_NONFINITE]),
            (("differential",), [[], "a", {"a": 1}, {"a": {"z": 1}}]),
            (("differential", "a", "b"), _NOT_INT),
            (("sigma",), [[], {"a": []}, {"a": {"a": float("nan")}}]),
        ],
    ),
    "model": (
        ["spectral", "algebraic", "--input", "@"],
        {**_COMPLEX, "p": 2, "sigma": {}, "i_max": 2, "d_terms": [{"i": 1, "alpha": 1, "matrix": [[1, 0, 1]]}]},
        [
            (("p",), [_DROP, _RENAME, *_NOT_INT]),
            (("i_max",), [v for v in _NOT_INT if v is not None]),
            (("d_terms",), [{}, "x", [1], [{"alpha": 0}]]),
            (("d_terms", 0, "i"), [_DROP, _RENAME, *_NOT_INT]),
            (("d_terms", 0, "matrix"), [{}, "x", [[1, 0]], [[5, 0, 1]], [[1, 0, float("nan")]], [[1, 0, _HUGE_EXP]]]),
        ],
    ),
    "sigma": (
        ["decompose", "--sigma", "@"],
        {"p": 3, "size": 3, "matrix": [[1, 0, 1], [2, 1, 1], [0, 2, 1]]},
        [
            (("p",), [_DROP, _RENAME, 4, *_NOT_INT]),
            (("size",), [_DROP, _RENAME, -1, 10**9, *_NOT_INT]),
            (("matrix",), [{}, "x", [1], [[0, 1]]]),
            (("matrix", 0, 2), _NOT_INT),
        ],
    ),
    "barcode": (
        ["torsion", "--input", "@"],
        _BARCODE,
        [
            (("p",), [_DROP, _RENAME, 4, *_NOT_INT]),
            (("bars",), [{}, "x", [1], [{}]]),
            (("bars", 0, "start"), [_DROP, _RENAME, "x", "1/0", True, [0], "1e10000000", "1e-10000000", *_NONFINITE]),
            (("bars", 0, "end"), ["inf", "1/0", "1e10000000", "-1", *_NONFINITE]),
            (("bars", 0, "mult"), _NOT_INT),
        ],
    ),
    "reproducer": (
        ["fuzz", "--replay", "@"],
        {
            "op": "barcode-roundtrip",
            "p": 3,
            "seed": 0,
            "payload": {"kind": "windowed_complex", "complex": {**_COMPLEX, "filtered": True}, "windows": [[None, "1/2"]]},
        },
        [
            (("op",), [_DROP, _RENAME, 3, None, "nope"]),
            (("payload",), [_DROP, _RENAME, [], "x", None]),
            (("payload", "complex"), [_DROP, "x", []]),
            (("payload", "complex", "p"), [_DROP, _RENAME, *_NOT_INT]),
            (("payload", "complex", "generators"), [_DROP, {}, "a", [1], [{}]]),
            (("payload", "complex", "generators", 0, "degree"), [_DROP, *_NOT_INT]),
            (("payload", "complex", "generators", 0, "action"), ["1", None, {"num": 1, "den": 0}, "1e10000000", *_NONFINITE]),
            (("payload", "complex", "differential"), [[], "a", {"a": {"z": 1}}]),
            (("payload", "complex", "differential", "a", "b"), _NOT_INT),
            (("payload", "windows"), [{}, "x", [1], [[None]]]),
            (("payload", "windows", 0, 1), ["x", "1/0", "1e10000000", "1e-10000000", True, *_NONFINITE]),
        ],
    ),
}


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    *head, key = path
    parent = doc
    for k in head:
        parent = parent[k]
    if value is _DROP or value is _RENAME:
        item = parent.pop(key)
        if value is _RENAME:
            parent[key.upper() + "_"] = item
    else:
        parent[key] = value
    return doc


def _text(doc) -> bytes:
    text = json.dumps(doc)  # writes NaN and Infinity, which the parser reads
    return re.sub(r'\{"\$raw": "([^"]*)"\}', r"\1", text).encode("utf-8")


def _corpus():
    """(argv, text, the error type required or None for any) per mutant; a
    mutant inside a reproducer's payload complex fails to decode, which is
    MalformedInput."""
    for kind, (argv, doc, mutations) in _KINDS.items():
        for path, values in mutations:
            want = "MalformedInput" if path[:2] == ("payload", "complex") else None
            for i, value in enumerate(values):
                text = _text(_mutated(doc, path, value))
                yield pytest.param(argv, text, want, id=f"{kind}-{'.'.join(map(str, path))}-{i}")
        text = _text(doc)
        for cut in (1, len(text) // 2, len(text) - 1):
            yield pytest.param(argv, text[:cut], None, id=f"{kind}-truncated-{cut}")
        yield pytest.param(argv, text[: text.index(b":") + 1] + b"[" * 100_000, None, id=f"{kind}-deep")
        yield pytest.param(argv, text[: text.index(b":") + 1] + b"9" * 5000 + b"}", None, id=f"{kind}-5000-digits")
        yield pytest.param(argv, b"\xff" + text, None, id=f"{kind}-not-utf8")
        yield pytest.param(argv, b"", None, id=f"{kind}-empty")


_TYPED = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.SmithTateError)}


@pytest.mark.parametrize("argv, text, want", _corpus())
def test_every_mutant_is_a_typed_error(run, tmp_path, argv, text, want):
    path = tmp_path / "in.json"
    path.write_bytes(text)
    runs = [[str(path) if a == "@" else a for a in argv]]
    if argv[0] == "torsion":
        valid = tmp_path / "valid.json"
        valid.write_text(json.dumps(_BARCODE), encoding="utf-8")
        runs += [["barcode-smith", "--single", str(path), "--iterate", str(valid)],
                 ["barcode-smith", "--single", str(valid), "--iterate", str(path)]]
    for full in runs:
        t0 = time.perf_counter()
        code, out, err = run(full + ["--json"])
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, ""), err
        name = re.match(r"error: (\w+): ", err)
        assert name and name[1] in _TYPED, err
        assert want in (None, name[1]), err


def test_the_valid_inputs_pass(run, tmp_path):
    """Each mutant differs from an input that dispatch accepts."""
    for kind, (argv, doc, _) in _KINDS.items():
        path = tmp_path / f"{kind}.json"
        path.write_bytes(_text(doc))
        code, _, err = run([str(path) if a == "@" else a for a in argv])
        assert code == 0, (kind, err)


# ---------------------------------------------------------------------------
# the complex reader against the dict-of-dicts route it replaced

_KIND_OF = {ChainComplex: "chain", FilteredComplex: "filtered", EquivariantComplex: "equivariant"}
_CLASS_OF = {kind: cls for cls, kind in _KIND_OF.items()}
_BAD_COEFFICIENTS = [True, False, 2.0, 2.5, "1", None, [1], 10**30, -(10**30)]


def _library_summary(V):
    kind = _KIND_OF[type(V)]
    if kind == "equivariant":
        r = V.validate(strict_action=True)
        report, sigma, ops = (r.ok, r.checks, r.violations), V.sigma, ("differential", "sigma")
    else:
        report, sigma, ops = (V._structure_violations(), V.action_violations()), None, ("differential",)
    return kind, list(V.generators), V.differential, sigma, report, [V.columns(op) for op in ops], V._level_table


def _oracle_summary(D):
    if D.kind == "equivariant":
        r = D.validate()
        report, sigma = (r.ok, r.checks, r.violations), D.sigma
    else:
        report, sigma = (D.structure_violations(), D.action_violations()), None
    return D.kind, list(D.generators), D.differential, sigma, report, D.columns(), D.level_table()


def _corpus_complexes():
    """The complexes of the malformed-input corpus that parse as JSON, the
    valid ones included."""
    for name in ("complex", "reproducer"):
        _, doc, mutations = _KINDS[name]
        texts = [_text(doc)] + [_text(_mutated(doc, path, v)) for path, values in mutations for v in values]
        for text in texts:
            try:
                data = _parse_json(text, "corpus")
            except MalformedInput:
                continue
            if name == "reproducer":
                payload = data.get("payload")
                data = payload.get("complex") if isinstance(payload, dict) else None
            if data is not None:
                yield data


def _reader_mutant(seed):
    """The JSON of a random complex with one to three seeded mutations:
    unknown ids, coefficients of every type, zero and unreduced residues,
    duplicate ids, a non-prime p, shuffled key orders, entries that may
    break the degree or action rule, dropped rows and a changed kind."""
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5, 7])
    build = rng.choice([random_equivariant_filtered, random_free_equivariant, random_filtered_complex, random_chain_complex])
    data = complex_to_json(build(p, seed))
    ids = [g["id"] for g in data["generators"]] or ["a"]
    for _ in range(rng.randint(1, 3)):
        maps = [data[k] for k in ("differential", "sigma") if k in data]
        m = rng.choice(maps)
        how = rng.choice(["unknown", "coefficient", "duplicate", "prime", "order", "entry", "entry", "drop", "kind"])
        if how == "unknown":
            if rng.random() < 0.5:
                m["zz"] = {rng.choice(ids): 1}
            else:
                m.setdefault(rng.choice(ids), {})["zz"] = 1
        elif how == "coefficient":
            entries = [(s, t) for s, row in m.items() for t in row] or [(rng.choice(ids), rng.choice(ids))]
            s, t = rng.choice(entries)
            m.setdefault(s, {})[t] = rng.choice(_BAD_COEFFICIENTS + [0, p, -p, p + 1, -1])
        elif how == "duplicate" and data["generators"]:
            data["generators"].append(dict(rng.choice(data["generators"]), degree=rng.randint(-1, 3)))
        elif how == "prime":
            data["p"] = rng.choice([4, 1, 0, -3, 9, 2.0])
        elif how == "order":
            rng.shuffle(data["generators"])
            for k in ("differential", "sigma"):
                if k in data:
                    rows = rng.sample(list(data[k].items()), len(data[k]))
                    data[k] = {s: dict(rng.sample(list(row.items()), len(row))) for s, row in rows}
        elif how == "entry":
            m.setdefault(rng.choice(ids), {})[rng.choice(ids)] = rng.randrange(1, p)
        elif how == "drop" and m:
            del m[rng.choice(list(m))]
        elif how == "kind":
            if "sigma" in data:
                del data["sigma"]
            elif rng.random() < 0.5:
                data["sigma"] = {}
            else:
                data["filtered"] = not data.get("filtered")
    return data


def _unchecked_outcomes(data):
    """(library, oracle) outcomes of the public constructors with
    check=False on data's generators and maps, or None when those do not
    read as generators and dicts of dicts."""
    try:
        p, gens = _strict_int(data["p"], "p"), generators_from_json_by_dataclass(data["generators"])
    except (MalformedInput, KeyError, TypeError):
        return None
    kind = "equivariant" if "sigma" in data else "filtered" if data.get("filtered") else "chain"
    maps = [data.get("differential", {})] + ([data["sigma"]] if kind == "equivariant" else [])
    if not all(isinstance(m, dict) and all(isinstance(r, dict) for r in m.values()) for m in maps):
        return None
    return (
        _outcome(lambda: _library_summary(_CLASS_OF[kind](p, gens, *maps, check=False))),
        _outcome(lambda: _oracle_summary(DictComplex(kind, p, gens, *maps, check=False))),
    )


def test_the_complex_reader_matches_the_dict_route():
    """complex_from_json and the public constructors read every input of
    the corpus and of 400 seeded mutants as the dict-of-dicts route did:
    the same refusal, type and text, or the same generators, views,
    checks, columns and level table."""
    seen = Counter()
    for data in [*_corpus_complexes(), *map(_reader_mutant, range(400))]:
        want = _outcome(lambda: _oracle_summary(dict_complex_from_json(data)))
        assert _outcome(lambda: _library_summary(complex_from_json(data))) == want, data
        seen[want[0]] += 1
        if (pair := _unchecked_outcomes(data)) is not None:
            assert pair[0] == pair[1], data
            seen["unchecked " + pair[1][0]] += 1
    assert min(seen[k] for k in ("MalformedInput", "InvalidComplex", "ok", "unchecked ok")) >= 20, seen


_THREE = [{"id": "a", "degree": 0, "action": 2}, {"id": "b", "degree": 1, "action": 3}, {"id": "c", "degree": 1, "action": 5}]


@pytest.mark.parametrize(
    "cmd, doc, err",
    [
        # c before b in d(a): the first entry named is the map's first, not the first by index
        ("barcode", {"p": 3, "generators": _THREE, "differential": {"a": {"c": 1, "b": 1}}, "filtered": True},
         "InvalidComplex: d(a) does not strictly decrease action at c"),
        ("tate", {"p": 3, "generators": _THREE, "sigma": {"a": {"zz": 1}}},
         "MalformedInput: sigma references unknown generator 'zz'"),
        ("barcode", {"p": 3, "generators": _THREE, "differential": {"a": {"b": True}}},
         "MalformedInput: differential coefficient for 'a'->'b' must be an integer, got True"),
    ],
)
def test_refusal_texts_of_the_reader(run, tmp_path, cmd, doc, err):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run([cmd, "--input", str(path)]) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("cmd", [["barcode"], ["spectral", "action"], ["quasi-frobenius"]], ids="-".join)
@pytest.mark.parametrize(
    "sigma, err",
    [
        ({"a": {"zz": 1}}, "MalformedInput: sigma references unknown generator 'zz'"),
        ({"a": {"b": 1}}, "InvalidComplex: sigma(a) changes degree; sigma(a) changes action"),
    ],
    ids=["unknown-id", "changes-degree"],
)
def test_every_complex_command_reads_sigma(run, tmp_path, cmd, sigma, err):
    """barcode, spectral action and quasi-frobenius read a file's sigma as
    tate does, and refuse a bad one."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"p": 3, "generators": _THREE, "sigma": sigma}), encoding="utf-8")
    assert run([*cmd, "--input", str(path)]) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "cmd, extra, err",
    [
        # "filtered": true is checked when the file is read, also beside a sigma
        (["tate"], {"filtered": True, "sigma": {}}, "InvalidComplex: d(a) does not strictly decrease action at c"),
        (["group-cohomology"], {"filtered": True}, "InvalidComplex: d(a) does not strictly decrease action at c"),
        # without it the pairing refuses the same d, with the same text
        (["barcode"], {}, "FiltrationViolation: d(a) does not strictly decrease action at c"),
    ],
    ids=["tate-sigma-filtered", "group-cohomology-filtered", "barcode-unfiltered"],
)
def test_the_action_rule_follows_the_filtered_key(run, tmp_path, cmd, extra, err):
    doc = {"p": 3, "generators": _THREE, "differential": {"a": {"c": 1, "b": 1}}, **extra}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run([*cmd, "--input", str(path)]) == (2, "", f"error: {err}\n")


def test_a_repeated_triplet_keeps_its_last_value(tmp_path):
    """In a model file and in a sigma file, a repeated (row, col) keeps its
    last value, and a last value of 0 mod p leaves no entry, even after a
    nonzero one."""
    from smith_tate.complexes import _dense, _read_json_files, _sigma_from_json, _sigma_to_json

    model = {
        "p": 3,
        "generators": [{"id": "x", "degree": 0}, {"id": "y", "degree": 1}],
        "sigma": {},
        "i_max": 2,
        "d_terms": [
            {"i": 2, "alpha": 0, "matrix": [[0, 1, 1], [0, 1, 5]]},
            {"i": 2, "alpha": 1, "matrix": [[1, 1, 1], [0, 0, 2], [1, 1, 3]]},
        ],
    }
    sigma = {"p": 3, "size": 2, "matrix": [[0, 1, 1], [1, 0, 1], [0, 1, 2], [0, 0, 1], [1, 1, 1], [1, 1, -3]]}
    (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
    (tmp_path / "sigma.json").write_text(json.dumps(sigma), encoding="utf-8")
    _, (model, sigma) = _read_json_files(str(tmp_path / "model.json"), str(tmp_path / "sigma.json"))
    m = model_from_json(model)
    assert m.terms[(2, 0)] == [{}, {0: 2}]
    assert m.terms[(2, 1)] == [{0: 2}, {}]
    assert [t["matrix"] for t in model_to_json(m)["d_terms"]] == [[[0, 1, 2]], [[0, 0, 2]]]
    p, s = _sigma_from_json(sigma)
    assert _dense(s, 2).tolist() == [[1, 2], [1, 0]]
    assert _sigma_to_json(p, s)["matrix"] == [[0, 0, 1], [0, 1, 2], [1, 0, 1]]
    assert _triplets_from_json([[1, 0, 2], [1, 0, 0], [0, 1, 4]], 2, 3) == [{}, {0: 1}]

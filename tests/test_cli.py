"""End-to-end command-line coverage: reports, exit codes, fuzzing, replay."""

import hashlib
import json
import time

import pytest

from smith_tate.cli import dispatch
from smith_tate.complexes import ChainComplex, EquivariantComplex, Generator, complex_to_json, tensor_power
from smith_tate.persistence import Bar, Barcode, barcode_to_json, generate_iterated_barcode
from smith_tate.random_instances import adversarial_iterated_pair, random_floer_model
from smith_tate.spectral import EquivariantFloerModel, model_to_json


@pytest.fixture()
def run(capsys):
    def _run(argv):
        code = dispatch(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture()
def jrun(run):
    def _jrun(argv):
        code, out, err = run(argv + ["--json"])
        report = json.loads(out) if out.strip() else None
        return code, report, err

    return _jrun


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def trivial_file(tmp_path):
    data = {
        "p": 3,
        "generators": [{"id": "v", "degree": 0, "action": 0}],
        "differential": {},
        "sigma": {},
    }
    return write_json(tmp_path / "trivial.json", data)


@pytest.fixture()
def free_orbit_file(tmp_path):
    gens = [Generator(f"e{j}", 0) for j in range(3)]
    sigma = {f"e{j}": {f"e{(j + 1) % 3}": 1} for j in range(3)}
    V = EquivariantComplex(3, gens, {}, sigma)
    return write_json(tmp_path / "free.json", complex_to_json(V))


@pytest.fixture()
def regular_sigma_file(tmp_path):
    data = {"p": 3, "size": 3, "matrix": [[1, 0, 1], [2, 1, 1], [0, 2, 1]]}
    return write_json(tmp_path / "sigma.json", data)


class TestTateCommand:
    def test_trivial_module(self, jrun, trivial_file):
        code, report, _ = jrun(["tate", "--input", trivial_file])
        assert code == 0
        assert report["command"] == "tate"
        assert report["results"] == {"p": 3, "dim": 1, "even": 1, "odd": 1}
        assert report["ok"] is True
        with open(trivial_file, "rb") as f:
            assert report["input_sha256"] == hashlib.sha256(f.read()).hexdigest()

    def test_methods_agree(self, jrun, free_orbit_file):
        _, by_eval, _ = jrun(["tate", "--input", free_orbit_file])
        _, by_bareiss, _ = jrun(["tate", "--input", free_orbit_file, "--method", "bareiss"])
        assert by_eval["results"] == by_bareiss["results"] == {
            "p": 3,
            "dim": 3,
            "even": 0,
            "odd": 0,
        }

    def test_text_report(self, run, trivial_file):
        code, out, _ = run(["tate", "--input", trivial_file])
        assert code == 0
        assert out.startswith("command: tate\n")
        assert "even: 1" in out and "odd: 1" in out
        assert "ok: true" in out


class TestGroupCohomologyCommand:
    def test_free_orbit(self, jrun, free_orbit_file):
        code, report, _ = jrun(
            ["group-cohomology", "--input", free_orbit_file, "--max-degree", "4"]
        )
        assert code == 0
        assert report["results"]["dims"] == {"0": 1, "1": 0, "2": 0, "3": 0, "4": 0}


class TestQuasiFrobeniusCommand:
    def test_two_classes(self, jrun, tmp_path):
        path = write_json(
            tmp_path / "pair.json",
            {
                "p": 3,
                "generators": [
                    {"id": "x", "degree": 0, "action": 0},
                    {"id": "y", "degree": 0, "action": 0},
                ],
                "differential": {},
            },
        )
        code, report, _ = jrun(["quasi-frobenius", "--input", path])
        assert code == 0
        assert report["results"]["homology-dim"] == 2
        assert report["results"]["target-parity"] == [2, 2]
        assert report["results"]["certificates"] == 1
        assert report["checks"] == {"bijective": True, "certificates-verified": True}

    def test_certificate_cap(self, jrun, tmp_path):
        path = write_json(
            tmp_path / "pair.json",
            {
                "p": 3,
                "generators": [
                    {"id": "x", "degree": 0, "action": 0},
                    {"id": "y", "degree": 0, "action": 0},
                ],
                "differential": {},
            },
        )
        code, report, _ = jrun(
            ["quasi-frobenius", "--input", path, "--max-certificates", "0"]
        )
        assert code == 0
        assert report["results"]["certificates"] == 0


class TestDecomposeCommand:
    def test_regular_module(self, jrun, regular_sigma_file):
        code, report, _ = jrun(["decompose", "--sigma", regular_sigma_file])
        assert code == 0
        assert report["results"]["multiplicities"] == [0, 0, 1]
        assert report["results"]["is-free"] is True
        assert report["results"]["tate-total"] == 0
        assert report["results"]["invariant-dim"] == 1

    def test_wrong_order_is_an_error(self, jrun, tmp_path):
        path = write_json(
            tmp_path / "bad.json", {"p": 5, "size": 1, "matrix": [[0, 0, 2]]}
        )
        code, report, err = jrun(["decompose", "--sigma", path])
        assert code == 2
        assert report is None
        assert "NotOrderP" in err


class TestSmithCheckCommand:
    def test_free_module_fails_sharpened(self, run, regular_sigma_file):
        code, out, _ = run(["smith-check", "--hf-dim", "1", "--sigma", regular_sigma_file])
        assert code == 1
        assert "FAIL  sharpened" in out
        assert "PASS  classical" in out
        assert "ok: false" in out

    def test_zero_dim_passes(self, jrun, regular_sigma_file):
        code, report, _ = jrun(
            ["smith-check", "--hf-dim", "0", "--sigma", regular_sigma_file]
        )
        assert code == 0
        assert report["checks"] == {
            "sharpened": True,
            "classical": True,
            "invariant-leq-dim": True,
        }
        assert report["results"]["strictly-stronger"] is True

    def test_negative_dim_is_an_error(self, jrun, regular_sigma_file):
        code, _, err = jrun(["smith-check", "--hf-dim", "-1", "--sigma", regular_sigma_file])
        assert code == 2
        assert "ValueError" in err


class TestSpectralCommand:
    def test_action_mode(self, jrun, tmp_path):
        data = {
            "p": 3,
            "generators": [
                {"id": "v3", "degree": 1, "action": -3},
                {"id": "v5", "degree": 0, "action": 12},
                {"id": "v7", "degree": 2, "action": {"num": 3, "den": 2}},
                {"id": "v9", "degree": 2, "action": {"num": 17, "den": 2}},
            ],
            "differential": {"v5": {"v3": 2}},
            "filtered": True,
        }
        path = write_json(tmp_path / "filtered.json", data)
        code, report, _ = jrun(["spectral", "action", "--input", path])
        assert code == 0
        res = report["results"]
        assert res["stabilized-at"] == 4
        assert res["infinity"] == {"1,2": 1, "2,2": 1}
        assert res["total-homology"] == {"2": 2}
        assert len(res["pages"]) == 4
        assert res["pages"][2]["ranks"] == {"0,0": 1}
        assert report["checks"] == {"converges": True}

    def test_algebraic_mode(self, jrun, tmp_path):
        gens = [Generator(f"e{j}", 0) for j in range(3)]
        sigma = {f"e{j}": {f"e{(j + 1) % 3}": 1} for j in range(3)}
        model = EquivariantFloerModel(EquivariantComplex(3, gens, {}, sigma), i_max=2)
        path = write_json(tmp_path / "model.json", model_to_json(model))
        code, report, _ = jrun(["spectral", "algebraic", "--input", path])
        assert code == 0
        res = report["results"]
        assert res["e2"] == [0, 0] and res["einf"] == [0, 0]
        assert res["sigma-module"] == [0, 0, 1]
        assert report["checks"] == {"tate-bound": True}

    def test_algebraic_squares_the_model_once(self, jrun, tmp_path, monkeypatch):
        import smith_tate.spectral as spectral

        model = random_floer_model(3, 5)
        path = write_json(tmp_path / "model.json", model_to_json(model))
        calls = []
        real = spectral._compose

        def compose(a, b, p):
            if a is b:  # the square of the assembled columns
                calls.append(len(a))
            return real(a, b, p)

        monkeypatch.setattr(spectral, "_compose", compose)
        code, _, _ = jrun(["spectral", "algebraic", "--input", path])
        assert code == 0
        assert calls == [2 * model.base.dim()]

    def test_mode_is_required(self, run, tmp_path):
        path = write_json(tmp_path / "x.json", {})
        code, _, err = run(["spectral", "--input", path])
        assert code == 2


class TestBarcodeCommand:
    @pytest.fixture()
    def iso_pair_file(self, tmp_path):
        data = {
            "p": 3,
            "generators": [
                {"id": "a", "degree": 0, "action": 1},
                {"id": "b", "degree": 1, "action": 0},
            ],
            "differential": {"a": {"b": 1}},
            "filtered": True,
        }
        return write_json(tmp_path / "iso.json", data)

    def test_from_filtered_complex(self, jrun, iso_pair_file):
        code, report, _ = jrun(["barcode", "--input", iso_pair_file])
        assert code == 0
        res = report["results"]
        assert res["source"] == "complex"
        assert res["bars"] == [{"start": "0/1", "end": "1/1", "mult": 1}]
        assert res["finite-count"] == 1 and res["infinite-count"] == 0
        assert res["beta-tot"] == "1/1"

    def test_window_option(self, jrun, iso_pair_file):
        code, report, _ = jrun(["barcode", "--input", iso_pair_file, "--window=-100:1/3"])
        assert code == 0
        assert report["results"]["window"] == {"lower": "-100/1", "upper": "1/3"}
        assert report["results"]["window-dim"] == 1

    def test_open_window_sides(self, jrun, iso_pair_file):
        code, report, _ = jrun(["barcode", "--input", iso_pair_file, "--window", "1/3:*"])
        assert code == 0
        assert report["results"]["window"] == {"lower": "1/3", "upper": None}
        assert report["results"]["window-dim"] == 1

    def test_direct_barcode_input(self, jrun, tmp_path):
        path = write_json(
            tmp_path / "bars.json",
            {"p": 3, "bars": [{"start": "0/1", "end": None, "mult": 2}]},
        )
        code, report, _ = jrun(["barcode", "--input", path])
        assert code == 0
        assert report["results"]["source"] == "barcode"
        assert report["results"]["infinite-count"] == 2
        assert report["results"]["c-plus"] == "0/1"

    def test_window_on_bar_endpoint_is_an_error(self, jrun, iso_pair_file):
        code, _, err = jrun(["barcode", "--input", iso_pair_file, "--window", "0:2"])
        assert code == 2
        assert "SpectralEndpoint" in err

    def test_inverted_window_is_an_error(self, jrun, iso_pair_file):
        code, _, err = jrun(["barcode", "--input", iso_pair_file, "--window", "2:1"])
        assert code == 2
        assert "InadmissibleWindow" in err

    def test_window_needs_colon(self, jrun, iso_pair_file):
        code, _, err = jrun(["barcode", "--input", iso_pair_file, "--window", "nope"])
        assert code == 2
        assert "MalformedInput" in err


class TestHugeLiterals:
    """A decimal exponent whose power of 10 would pass 4300 digits, and a
    JSON integer of more digits than Python reads, are malformed input,
    refused at once instead of computed or left untyped."""

    @pytest.mark.parametrize("start", ["1e10000000", "1e-10000000"])
    @pytest.mark.parametrize("command", ["torsion", "barcode-smith"])
    def test_bar_endpoint(self, run, tmp_path, start, command):
        path = write_json(tmp_path / "b.json", {"p": 3, "bars": [{"start": start, "end": None, "mult": 1}]})
        argv = ["torsion", "--input", path] if command == "torsion" else ["barcode-smith", "--single", path, "--iterate", path]
        self._refused(run, argv)

    def test_window_bound(self, run, tmp_path):
        path = write_json(tmp_path / "b.json", _BARS)
        self._refused(run, ["barcode", "--input", path, "--window=1e10000000:*"])

    def test_integer_of_5000_digits(self, run, tmp_path):
        path = tmp_path / "in.json"
        path.write_text('{"p": 3, "generators": [{"id": "v", "degree": ' + "9" * 5000 + "}]}", encoding="utf-8")
        self._refused(run, ["tate", "--input", str(path)])

    def test_replay_window_bound_past_the_float_range(self, run, tmp_path):
        payload = {"kind": "windowed_complex", "complex": {**_edge(action_a=1), "filtered": True}, "windows": [["@", None]]}
        path = tmp_path / "repro.json"
        path.write_text(json.dumps({"op": "barcode-roundtrip", "payload": payload}).replace('"@"', "1e400"), encoding="utf-8")
        self._refused(run, ["fuzz", "--replay", str(path)])

    @staticmethod
    def _refused(run, argv):
        t0 = time.perf_counter()
        code, out, err = run(argv + ["--json"])
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: MalformedInput:")


class TestBarcodeSmithCommand:
    @pytest.fixture()
    def single_file(self, tmp_path):
        b1 = Barcode(3, [Bar(0, 1), Bar("1/2", None)])
        return write_json(tmp_path / "single.json", barcode_to_json(b1)), b1

    def test_generated_iterate_passes(self, jrun, tmp_path, single_file):
        path1, b1 = single_file
        bp = generate_iterated_barcode(b1, 3, extra_bars=2, seed=5)
        pathp = write_json(tmp_path / "iterate.json", barcode_to_json(bp))
        code, report, _ = jrun(["barcode-smith", "--single", path1, "--iterate", pathp])
        assert code == 0
        assert report["checks"] == {
            "count-inequality": True,
            "beta-direct": True,
            "beta-integral": True,
            "window-inequality": True,
        }
        assert report["results"]["m-failure-count"] == 0

    def test_tampered_iterate_fails(self, jrun, tmp_path, single_file):
        path1, b1 = single_file
        _, bad = adversarial_iterated_pair(b1, 3, 4)
        pathp = write_json(tmp_path / "bad.json", barcode_to_json(bad))
        code, report, _ = jrun(["barcode-smith", "--single", path1, "--iterate", pathp])
        assert code == 1
        assert report["ok"] is False
        assert report["results"]["m-failure-count"] >= 1

    def test_explicit_prime_override(self, jrun, tmp_path, single_file):
        path1, b1 = single_file
        bp = generate_iterated_barcode(b1, 5, seed=1)
        pathp = write_json(tmp_path / "it5.json", barcode_to_json(bp))
        code, report, _ = jrun(
            ["barcode-smith", "--single", path1, "--iterate", pathp, "-p", "5"]
        )
        assert code == 0
        assert report["results"]["p"] == 5


class TestTorsionCommand:
    def test_witness_found(self, jrun, tmp_path):
        path = write_json(
            tmp_path / "b.json",
            {
                "p": 3,
                "bars": [
                    {"start": "0/1", "end": None, "mult": 1},
                    {"start": "1/1", "end": None, "mult": 1},
                ],
            },
        )
        code, report, _ = jrun(["torsion", "--input", path])
        assert code == 0
        assert report["results"]["witness"] == {"lower": "3/4", "upper": "5/4"}
        assert report["results"]["witness-dim"] == 1
        assert report["checks"] == {
            "witness-dim-positive": True,
            "witness-avoids-zero": True,
        }

    def test_no_witness_is_still_ok(self, jrun, tmp_path):
        path = write_json(
            tmp_path / "b.json",
            {"p": 3, "bars": [{"start": "0/1", "end": None, "mult": 2}]},
        )
        code, report, _ = jrun(["torsion", "--input", path])
        assert code == 0
        assert report["results"]["witness"] is None
        assert report["checks"] == {}

    def test_empty_barcode_is_an_error(self, jrun, tmp_path):
        path = write_json(tmp_path / "b.json", {"p": 3, "bars": []})
        code, _, err = jrun(["torsion", "--input", path])
        assert code == 2
        assert "EmptyBarcode" in err


class TestMorseConstantsCommand:
    def test_defaults(self, jrun):
        code, report, _ = jrun(["morse-constants", "-p", "3"])
        assert code == 0
        res = report["results"]
        assert res["wilson"] == 2
        assert res["euler-sign"] == 2 and res["euler-u-exponent"] == 2
        assert res["resolution"] == [1, 0, 0, 0, 0, 1]
        assert res["critical-count"] == 12
        assert report["checks"] == {
            "wilson-is-minus-one": True,
            "resolution-interior-vanishes": True,
        }

    def test_parameters(self, jrun):
        code, report, _ = jrun(
            ["morse-constants", "-p", "5", "--n", "2", "--levels", "0", "--length", "4"]
        )
        assert code == 0
        res = report["results"]
        assert res["euler-sign"] == 1 and res["euler-u-exponent"] == 8
        assert res["critical-by-index"] == {"0": 5, "1": 5}
        assert len(res["resolution"]) == 4

    def test_composite_p_is_an_error(self, jrun):
        code, _, err = jrun(["morse-constants", "-p", "6"])
        assert code == 2
        assert "NotPrime" in err

    @pytest.mark.parametrize("p", [10007, 1000003])
    def test_prime_above_budget_is_an_error(self, run, p):
        # the resolution's dense p x p blocks would need gigabytes at p = 10007
        t0 = time.perf_counter()
        code, out, err = run(["morse-constants", "-p", str(p), "--json"])
        assert time.perf_counter() - t0 < 5
        assert code == 2
        assert out == ""
        assert err.startswith("error: PrimeTooLarge:")


class TestErrorPaths:
    def test_unknown_command(self, run):
        code, _, err = run(["frobnicate"])
        assert code == 2
        assert err.startswith("error: UnknownCommand:")

    def test_no_command_prints_help(self, run):
        code, out, _ = run([])
        assert code == 2
        assert "usage" in out.lower()

    def test_help_exits_zero(self, run):
        code, out, _ = run(["--help"])
        assert code == 0
        assert "usage" in out.lower()

    def test_missing_input_file(self, run, tmp_path):
        code, _, err = run(["tate", "--input", str(tmp_path / "missing.json")])
        assert code == 2
        assert "MalformedInput" in err

    def test_broken_json_reports_position(self, run, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"p": 3,\n  "generators": [}\n', encoding="utf-8")
        code, _, err = run(["tate", "--input", str(path)])
        assert code == 2
        assert "line 2" in err and "column" in err


def _edge(degree_a=0, degree_b=1, coeff=1, sigma=None, action_a=0):
    return {
        "p": 3,
        "generators": [{"id": "a", "degree": degree_a, "action": action_a}, {"id": "b", "degree": degree_b}],
        "differential": {"a": {"b": coeff}},
        "sigma": sigma or {},
    }


class TestStrictIntegers:
    """Non-integer numbers in a complex are malformed input (exit 2); they
    are never truncated and never crash with a traceback (exit 1)."""

    @pytest.mark.parametrize(
        "data",
        [
            _edge(degree_b=0.9),
            _edge(coeff=None),
            _edge(coeff=True),
            _edge(coeff=1.5),
            _edge(coeff="1"),
            _edge(sigma={"a": {"a": None}}),
            {**_edge(), "p": 3.5},
            _edge(action_a={"num": 1.5, "den": 2}),
            _edge(action_a={"num": "7"}),
            _edge(action_a={"num": True, "den": 3}),
            _edge(action_a={"num": 1, "den": "2"}),
        ],
        ids=["fractional-degree", "null-coeff", "bool-coeff", "float-coeff", "string-coeff",
             "null-sigma-coeff", "fractional-p", "fractional-action-num", "string-action-num",
             "bool-action-num", "string-action-den"],
    )
    def test_rejected(self, run, tmp_path, data):
        code, out, err = run(["tate", "--input", write_json(tmp_path / "in.json", data), "--json"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: MalformedInput:")

    def test_integral_floats_accepted(self, jrun, tmp_path):
        as_float = _edge(degree_a=0.0, degree_b=1.0, coeff=1.0)
        _, by_float, _ = jrun(["tate", "--input", write_json(tmp_path / "f.json", as_float)])
        _, by_int, _ = jrun(["tate", "--input", write_json(tmp_path / "i.json", _edge())])
        assert by_float["results"] == by_int["results"]

    def test_model_terms_rejected(self, run, tmp_path):
        data = {**_edge(), "i_max": 2, "d_terms": [{"i": None, "alpha": 0, "matrix": []}]}
        code, _, err = run(["spectral", "algebraic", "--input", write_json(tmp_path / "m.json", data)])
        assert code == 2
        assert err.startswith("error: MalformedInput:")


_SIGMA = {"p": 2, "size": 2, "matrix": [[0, 1, 1], [1, 0, 1]]}
_BARS = {"p": 3, "bars": [{"start": "0/1", "end": None, "mult": 2}]}


class TestStrictIntegersInSigmaAndBarcodeFiles:
    """Sigma-matrix and barcode files go through the same integer parser."""

    @pytest.mark.parametrize(
        "data",
        [
            {**_SIGMA, "p": 2.5},
            {**_SIGMA, "p": "3"},
            {**_SIGMA, "size": 2.5},
            {**_SIGMA, "size": "2"},
            {**_SIGMA, "matrix": [[0, 1, 1], [1, 0, 1.5]]},
            {**_SIGMA, "matrix": [[0, 1, 1], [1, "0", 1]]},
            {**_SIGMA, "matrix": [[0, 1, 1], [1, 0]]},
        ],
        ids=["fractional-p", "string-p", "fractional-size", "string-size",
             "fractional-triplet", "string-triplet", "short-triplet"],
    )
    def test_sigma_rejected(self, run, tmp_path, data):
        code, out, err = run(["decompose", "--sigma", write_json(tmp_path / "s.json", data), "--json"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: MalformedInput:")

    def test_sigma_integral_floats_accepted(self, jrun, tmp_path):
        as_float = {"p": 2.0, "size": 2.0, "matrix": [[0.0, 1, 1], [1, 0, 1.0]]}
        _, by_float, _ = jrun(["decompose", "--sigma", write_json(tmp_path / "f.json", as_float)])
        _, by_int, _ = jrun(["decompose", "--sigma", write_json(tmp_path / "i.json", _SIGMA)])
        assert by_float["results"] == by_int["results"]

    @pytest.mark.parametrize(
        "data,error",
        [
            ({**_BARS, "p": 2.5}, "MalformedInput"),
            ({**_BARS, "p": "3"}, "MalformedInput"),
            ({"p": 3, "bars": [{"start": "0/1", "end": None, "mult": 2.5}]}, "MalformedInput"),
            ({"p": 3, "bars": [{"start": "0/1", "end": None, "mult": "2"}]}, "MalformedInput"),
            ({**_BARS, "p": 4}, "NotPrime"),
        ],
        ids=["fractional-p", "string-p", "fractional-mult", "string-mult", "composite-p"],
    )
    def test_barcode_rejected(self, run, tmp_path, data, error):
        code, out, err = run(["barcode", "--input", write_json(tmp_path / "b.json", data), "--json"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {error}:")


class TestDeeplyNestedJson:
    """JSON nested past the parser's recursion limit is malformed input,
    not a traceback."""

    @pytest.mark.parametrize(
        "argv,text",
        [
            (["tate", "--input"], '{"p": 3, "generators": ' + "[" * 200_000),
            (["torsion", "--input"], '{"p": 3, "bars": ' + "[" * 200_000),
        ],
        ids=["complex", "barcode"],
    )
    def test_rejected(self, run, tmp_path, argv, text):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(argv + [str(path), "--json"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: MalformedInput:")


class TestMatrixPrimeBound:
    def test_too_large_prime_rejected(self, run, tmp_path):
        data = {**_edge(coeff=0), "p": 4294967311}
        code, out, err = run(["tate", "--input", write_json(tmp_path / "in.json", data), "--json"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: PrimeTooLarge:")
        sigma = {**_SIGMA, "p": 4294967311}
        code, _, err = run(["decompose", "--sigma", write_json(tmp_path / "s.json", sigma)])
        assert code == 2
        assert err.startswith("error: PrimeTooLarge:")

    def test_largest_prime_below_bound_accepted(self, jrun, tmp_path):
        data = {**_edge(coeff=0), "p": 16777213}
        code, report, _ = jrun(["group-cohomology", "--input", write_json(tmp_path / "in.json", data)])
        assert code == 0
        assert report["ok"] is True


class TestTextReports:
    """Without --json the results print as a tree of the JSON report:
    rationals as num/den, windows as lower/upper, tuple keys as s,k."""

    @pytest.fixture()
    def barcode_file(self, tmp_path):
        b = Barcode(3, [Bar(0, 1), Bar("1/2", None), Bar(-2, "7/3", 2)])
        return write_json(tmp_path / "b.json", barcode_to_json(b))

    def test_barcode_window(self, run, barcode_file):
        code, out, _ = run(["barcode", "--input", barcode_file, "--window=1/3:2"])
        assert code == 0
        assert "      start: -2/1\n" in out and "      end: 7/3\n" in out
        assert "      end: None\n" in out
        assert "  beta-tot: 29/3\n" in out
        assert "  window:\n    lower: 1/3\n    upper: 2/1\n  window-dim: 2\n" in out

    def test_spectral_action(self, run, tmp_path):
        gens = [
            {"id": "x", "degree": 0, "action": {"num": 1, "den": 2}},
            {"id": "y", "degree": 1, "action": 0},
            {"id": "z", "degree": 1, "action": 2},
        ]
        data = {"p": 3, "generators": gens, "differential": {"x": {"y": 1}}, "filtered": True}
        code, out, _ = run(["spectral", "action", "--input", write_json(tmp_path / "f.json", data)])
        assert code == 0
        assert "  levels:\n    - 0/1\n    - 1/2\n    - 2/1\n" in out
        assert "  infinity:\n    0,1: 1\n" in out
        assert "      dims:\n        0,1: 1\n        1,0: 1\n        2,1: 1\n      r: 1\n" in out
        assert "      ranks:\n        1,0: 1\n" in out
        assert "  total-homology:\n    1: 1\n" in out

    def test_torsion(self, run, barcode_file):
        code, out, _ = run(["torsion", "--input", barcode_file])
        assert code == 0
        assert "  witness:\n    lower: 1/4\n    upper: 17/6\n  witness-dim: 4\n" in out
        assert "  PASS  witness-avoids-zero\n" in out


class TestInhomogeneousInput:
    """Input that breaks the grading never reaches the u = 1 ranks."""

    def test_tate_differential_keeping_degree(self, run, tmp_path):
        code, _, err = run(["tate", "--input", write_json(tmp_path / "in.json", _edge(degree_b=0))])
        assert code == 2
        assert err.startswith("error: InvalidComplex:")

    def test_tate_sigma_changing_degree(self, run, tmp_path):
        data = _edge(coeff=0, sigma={"a": {"b": 1}})
        code, _, err = run(["tate", "--input", write_json(tmp_path / "in.json", data)])
        assert code == 2
        assert err.startswith("error: InvalidComplex:")

    def test_model_term_of_wrong_degree(self, run, tmp_path):
        data = {**_edge(coeff=0), "i_max": 2, "d_terms": [{"i": 1, "alpha": 0, "matrix": [[0, 1, 1]]}]}
        code, _, err = run(["spectral", "algebraic", "--input", write_json(tmp_path / "m.json", data)])
        assert code == 2
        assert err.startswith("error: InvalidComplex:")


class TestFuzz:
    @pytest.mark.parametrize(
        "op,count",
        [
            ("tate-free-vanishing", 6),
            ("quasi-frobenius", 3),
            ("sigma-decomposition", 6),
            ("spectral-action", 5),
            ("spectral-algebraic", 3),
            ("barcode-roundtrip", 5),
            ("barcode-smith", 6),
            ("torsion-detector", 8),
        ],
    )
    def test_registered_properties_hold(self, jrun, op, count, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, report, _ = jrun(["fuzz", "--op", op, "--count", str(count), "--seed", "1"])
        assert code == 0
        assert report["checks"] == {"all-instances-pass": True}
        assert report["results"]["passed"] == count
        assert "reproducer-path" not in report["results"]

    def test_adversarial_pairs_are_flagged(self, jrun, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, report, _ = jrun(
            ["fuzz", "--op", "barcode-smith", "--adversarial", "--count", "10", "--seed", "3"]
        )
        assert code == 0
        assert report["results"]["passed"] == 10

    def test_adversarial_limited_to_barcode_smith(self, jrun):
        code, _, err = jrun(
            ["fuzz", "--op", "torsion-detector", "--adversarial", "--count", "1"]
        )
        assert code == 2
        assert "MalformedInput" in err

    def test_unknown_property(self, jrun):
        code, _, err = jrun(["fuzz", "--op", "bogus", "--count", "1"])
        assert code == 2
        assert "UnknownProperty" in err

    def test_op_required(self, jrun):
        code, _, err = jrun(["fuzz", "--count", "1"])
        assert code == 2
        assert "MalformedInput" in err

    def test_count_must_be_positive(self, jrun):
        code, _, err = jrun(["fuzz", "--op", "tate-free-vanishing", "--count", "0"])
        assert code == 2

    def test_composite_p_rejected(self, jrun):
        code, _, err = jrun(["fuzz", "--op", "tate-free-vanishing", "--count", "1", "-p", "4"])
        assert code == 2
        assert "NotPrime" in err

    def test_seed_env_default_and_override(self, jrun, monkeypatch):
        monkeypatch.setenv("SMITH_TATE_SEED", "7")
        _, report, _ = jrun(["fuzz", "--op", "tate-free-vanishing", "--count", "2"])
        assert report["results"]["seed"] == 7
        _, report, _ = jrun(
            ["fuzz", "--op", "tate-free-vanishing", "--count", "2", "--seed", "9"]
        )
        assert report["results"]["seed"] == 9

    def test_bad_seed_env(self, jrun, monkeypatch):
        monkeypatch.setenv("SMITH_TATE_SEED", "twelve")
        code, _, err = jrun(["fuzz", "--op", "tate-free-vanishing", "--count", "1"])
        assert code == 2
        assert "MalformedInput" in err

    def test_identical_seeds_identical_reports(self, jrun):
        argv = ["fuzz", "--op", "barcode-smith", "--count", "5", "--seed", "11"]
        _, first, _ = jrun(argv)
        _, second, _ = jrun(argv)
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second


class TestReplay:
    @pytest.fixture()
    def tampered_payload(self):
        b1 = Barcode(3, [Bar(0, 1), Bar("1/2", None)])
        _, bad = adversarial_iterated_pair(b1, 3, 4)
        return {
            "kind": "barcode_pair",
            "p": 3,
            "single": barcode_to_json(b1),
            "iterate": barcode_to_json(bad),
        }

    def test_failing_reproducer_refails(self, jrun, tmp_path, tampered_payload):
        path = write_json(
            tmp_path / "repro.json",
            {"op": "barcode-smith", "p": 3, "seed": 0, "payload": tampered_payload},
        )
        code, report, _ = jrun(["fuzz", "--replay", path])
        assert code == 1
        assert report["checks"] == {"replay-passes": False}
        assert report["results"]["mode"] == "replay"
        # deterministic: replaying twice gives the same verdict
        code2, report2, _ = jrun(["fuzz", "--replay", path])
        assert code2 == 1
        assert report2["results"]["details"] == report["results"]["details"]

    def test_adversarial_flag_inverts_expectation(self, jrun, tmp_path, tampered_payload):
        payload = dict(tampered_payload, adversarial=True)
        path = write_json(
            tmp_path / "repro.json",
            {"op": "barcode-smith", "p": 3, "seed": 0, "payload": payload},
        )
        code, report, _ = jrun(["fuzz", "--replay", path])
        assert code == 0
        assert report["checks"] == {"replay-passes": True}

    def test_replay_requires_fields(self, jrun, tmp_path):
        path = write_json(tmp_path / "bad.json", {"op": "barcode-smith"})
        code, _, err = jrun(["fuzz", "--replay", path])
        assert code == 2
        assert "MalformedInput" in err

    def test_replay_unknown_op(self, jrun, tmp_path):
        path = write_json(tmp_path / "bad.json", {"op": "nope", "payload": {}})
        code, _, err = jrun(["fuzz", "--replay", path])
        assert code == 2
        assert "UnknownProperty" in err

    def test_replay_with_library_error_fails_cleanly(self, jrun, tmp_path):
        """An error raised after the payload is decoded is a failed verdict:
        here the window's lower end is an endpoint of a bar."""
        payload = {"kind": "windowed_complex", "complex": {**_edge(action_a=1), "filtered": True}, "windows": [["0", None]]}
        path = write_json(
            tmp_path / "repro.json",
            {"op": "barcode-roundtrip", "p": 3, "seed": 0, "payload": payload},
        )
        code, report, _ = jrun(["fuzz", "--replay", path])
        assert code == 1
        assert report["results"]["details"]["error"].startswith("SpectralEndpoint:")

    @pytest.mark.parametrize(
        "op, payload, error",
        [
            ("barcode-smith", {"kind": "barcode_pair", "single": {"p": 3, "bars": "x"}, "iterate": {"p": 3, "bars": []}},
             "MalformedInput"),
            ("tate-free-vanishing", {"kind": "complex", "complex": {**_edge(), "p": "x"}}, "MalformedInput"),
            ("tate-free-vanishing", {"kind": "complex", "complex": {**_edge(), "p": 4}}, "NotPrime"),
            ("barcode-roundtrip", {"kind": "windowed_complex", "complex": {**_edge(action_a=1), "filtered": True}, "windows": [["2", "1"]]},
             "InadmissibleWindow"),
        ],
    )
    def test_replay_of_an_undecodable_field_is_typed(self, run, tmp_path, op, payload, error):
        """An error raised while a payload field is decoded is the input's
        fault: it keeps its type, with exit code 2, as the same field passed
        to a subcommand would."""
        path = write_json(tmp_path / "repro.json", {"op": op, "payload": payload})
        code, out, err = run(["fuzz", "--replay", path, "--json"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {error}: bad {op} payload: ")


    @pytest.mark.parametrize(
        "op, payload",
        [
            ("tate-free-vanishing", {}),
            ("torsion-detector", [{"p": 3, "bars": []}]),
            (
                "barcode-roundtrip",
                {
                    "kind": "windowed_complex",
                    "complex": {"p": 3, "generators": [{"id": "a", "degree": 0}], "filtered": True},
                    "windows": [["1/0", None]],
                },
            ),
            ("barcode-smith", {"kind": "barcode_pair", "p": "x", "single": {"p": 3, "bars": []}, "iterate": {"p": 3, "bars": []}}),
        ],
    )
    def test_malformed_payload_is_typed(self, run, tmp_path, op, payload):
        path = write_json(tmp_path / "bad.json", {"op": op, "p": 3, "seed": 0, "payload": payload})
        code, out, err = run(["fuzz", "--replay", path, "--json"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: MalformedInput:")

    def test_crashing_check_on_a_valid_payload_propagates(self, run, monkeypatch, tmp_path, tampered_payload):
        import smith_tate.fuzz as fuzz

        def check(payload):
            raise TypeError("crash in the check")

        real = fuzz._FUZZ_OPS["barcode-smith"]
        monkeypatch.setitem(fuzz._FUZZ_OPS, "barcode-smith", fuzz.FuzzOp(real.name, real.generate, check))
        path = write_json(tmp_path / "repro.json", {"op": "barcode-smith", "payload": tampered_payload})
        with pytest.raises(TypeError, match="crash in the check"):
            run(["fuzz", "--replay", path])


class TestPrimalityBound:
    @pytest.fixture()
    def pair_files(self, tmp_path):
        b1 = Barcode(3, [Bar(0, 1), Bar("1/2", None)])
        bp = generate_iterated_barcode(b1, 3, extra_bars=2, seed=5)
        return write_json(tmp_path / "s.json", barcode_to_json(b1)), write_json(tmp_path / "i.json", barcode_to_json(bp))

    def test_large_prime_scale_returns(self, jrun, pair_files):
        single, iterate = pair_files
        t0 = time.perf_counter()
        # trial division up to sqrt(2^61 - 1) would take minutes
        for p in (10**14 + 31, 2**61 - 1):
            code, report, _ = jrun(["barcode-smith", "--single", single, "--iterate", iterate, "-p", str(p)])
            assert code == 1
            assert report["results"]["p"] == p
        assert time.perf_counter() - t0 < 10

    def test_prime_above_primality_bound_rejected(self, run, pair_files):
        single, iterate = pair_files
        code, out, err = run(["barcode-smith", "--single", single, "--iterate", iterate, "-p", str(2**89 - 1)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: PrimeTooLarge:")
        assert "3317044064679887385961981" in err


def test_minimize_propagates_a_crashing_check(run, monkeypatch, tmp_path):
    import smith_tate.fuzz as fuzz

    real = fuzz._FUZZ_OPS["barcode-smith"]
    full = []

    def check(payload):
        # fail on the generated payload, crash on every shrunk candidate
        if not full:
            full.append(payload)
            return False, {}
        raise TypeError("crash in the check")

    monkeypatch.setitem(fuzz._FUZZ_OPS, "barcode-smith", fuzz.FuzzOp(real.name, real.generate, check))
    with pytest.raises(TypeError, match="crash in the check"):
        run(["fuzz", "--op", "barcode-smith", "--count", "1", "--seed", "0", "--reproducer", str(tmp_path / "r.json")])


class TestTooLarge:
    """Sizes that set the work or the report size are bounded before any
    allocation, with a typed error and exit code 2."""

    def test_group_cohomology_max_degree(self, run, trivial_file):
        t0 = time.perf_counter()
        code, out, err = run(["group-cohomology", "--input", trivial_file, "--max-degree", "100000000", "--json"])
        assert time.perf_counter() - t0 < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: TooLarge:")

    @pytest.mark.parametrize("max_degree", ["-5", "-1180591620717411303424"])
    def test_group_cohomology_below_the_lowest_degree(self, jrun, trivial_file, max_degree):
        code, report, _ = jrun(["group-cohomology", "--input", trivial_file, f"--max-degree={max_degree}"])
        assert code == 0
        assert report["results"]["dims"] == {}

    def test_group_cohomology_at_the_limit(self, jrun, trivial_file):
        code, report, _ = jrun(["group-cohomology", "--input", trivial_file, "--max-degree", "10000"])
        assert code == 0
        assert len(report["results"]["dims"]) == 10_001

    @pytest.mark.parametrize(
        "bar",
        [
            {"start": "1", "end": None},  # the total count of two such bars has 4301 digits
            {"start": "0", "end": "1e4299"},  # beta-tot, a rational of 8600 digits
        ],
    )
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_a_report_value_past_the_digit_limit(self, run, tmp_path, bar, flags):
        """Every input value reads, but the report holds a number of more
        digits than Python writes as text."""
        m = 10**4300 - 1
        path = write_json(tmp_path / "b.json", {"p": 3, "bars": [{"start": "0", "end": None, "mult": m}, {**bar, "mult": m}]})
        code, out, err = run(["barcode", "--input", path] + flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: TooLarge:")

    @pytest.mark.parametrize("extra", [["--length", "1000000000"], ["--levels", "1000000000"]])
    def test_morse_constants_sizes(self, run, extra):
        """--length sets one dimension per degree and --levels 2p critical
        points per level."""
        t0 = time.perf_counter()
        code, out, err = run(["morse-constants", "-p", "251", "--json"] + extra)
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: TooLarge:")

    def test_sigma_size(self, run, tmp_path):
        path = write_json(tmp_path / "sigma.json", {"p": 3, "size": 100_000, "matrix": []})
        t0 = time.perf_counter()
        code, out, err = run(["decompose", "--sigma", path, "--json"])
        assert time.perf_counter() - t0 < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: TooLarge:")

    def test_bareiss_coefficient_array(self, run, jrun, tmp_path):
        """The parity blocks of a 243-generator tensor power need about
        243 x 243 x 244 coefficient cells over F_p[u]; the u = 1 route
        still runs on them."""
        base = ChainComplex(5, [Generator("a", 0), Generator("b", 0), Generator("c", 1)], {"a": {"c": 1}})
        path = write_json(tmp_path / "tp243.json", complex_to_json(tensor_power(base)))
        t0 = time.perf_counter()
        code, out, err = run(["tate", "--input", path, "--method", "bareiss", "--json"])
        assert time.perf_counter() - t0 < 5
        assert code == 2
        assert out == ""
        assert err.startswith("error: TooLarge: Bareiss coefficient array")
        code, report, _ = jrun(["tate", "--input", path])
        assert code == 0
        assert (report["results"]["even"], report["results"]["odd"], report["results"]["dim"]) == (1, 1, 243)

    def test_bareiss_checks_both_blocks_before_eliminating_either(self, run, tmp_path):
        """500 free orbits at p = 3 in one degree: the even parity block
        (1 - sigma, no u) passes every Bareiss limit, and the odd one (N,
        which carries u) fails the cell limit.  Both are checked before
        either is eliminated, so the refusal comes at once."""
        gens, sigma = [], {}
        for o in range(500):
            ids = [f"o{o:03d}e{j}" for j in range(3)]
            gens += [{"id": g, "degree": 0} for g in ids]
            sigma.update({g: {ids[(j + 1) % 3]: 1} for j, g in enumerate(ids)})
        path = write_json(tmp_path / "orbits500.json", {"p": 3, "generators": gens, "sigma": sigma})
        t0 = time.perf_counter()
        code, out, err = run(["tate", "--input", path, "--method", "bareiss", "--json"])
        assert time.perf_counter() - t0 < 5
        assert (code, out) == (2, "")
        assert err.startswith("error: TooLarge: Bareiss coefficient array")

    def test_homology_array(self, jrun, tmp_path):
        """One degree of 1500 generators with d = 0: all 1500 are cocycles.
        Homology reduces sparse columns and builds no array, so the
        convergence check answers at once."""
        gens = [{"id": f"g{i:04d}", "degree": 0, "action": 0} for i in range(1500)]
        path = write_json(tmp_path / "flat1500.json", {"p": 3, "generators": gens, "differential": {}, "filtered": True})
        t0 = time.perf_counter()
        code, report, err = jrun(["spectral", "action", "--input", path])
        assert time.perf_counter() - t0 < 2
        assert (code, err) == (0, "")
        assert report["results"]["total-homology"] == {"0": 1500}

    def test_fuzz_sigma_decomposition_size(self, run, jrun):
        """p Jordan multiplicities and a matrix of up to --max-gens rows are
        bounded before generating."""
        for extra in (["-p", "16777213"], ["-p", "7", "--max-gens", "10000"]):
            t0 = time.perf_counter()
            code, out, err = run(["fuzz", "--op", "sigma-decomposition", "--count", "1", "--json"] + extra)
            assert time.perf_counter() - t0 < 1
            assert code == 2
            assert out == ""
            assert err.startswith("error: TooLarge: sigma-decomposition size")
        code, report, _ = jrun(["fuzz", "--op", "sigma-decomposition", "--count", "2", "-p", "509"])
        assert code == 0
        assert report["results"]["passed"] == 2

    def test_decompose_bounds_the_prime_before_its_multiplicities(self, run, jrun, tmp_path):
        """decompose and smith-check list p Jordan multiplicities: a prime
        near 2^24 is refused with TooLarge at once, and the largest prime
        within the bound decomposes from three ranks."""
        unipotent = [[0, 0, 1], [0, 1, 1], [1, 1, 1]]  # one Jordan block of size 2
        big = write_json(tmp_path / "big.json", {"p": 16777213, "size": 2, "matrix": unipotent})
        for argv in (["decompose", "--sigma", big], ["smith-check", "--sigma", big, "--hf-dim", "1"]):
            t0 = time.perf_counter()
            code, out, err = run(argv + ["--json"])
            assert time.perf_counter() - t0 < 1
            assert code == 2
            assert out == ""
            assert err.startswith("error: TooLarge: p, the number of Jordan multiplicities is 16777213, above the limit of 4096")
        t0 = time.perf_counter()
        code, report, _ = jrun(["decompose", "--sigma", write_json(tmp_path / "ok.json", {"p": 4093, "size": 2, "matrix": unipotent})])
        assert time.perf_counter() - t0 < 1
        assert code == 0
        assert report["results"]["multiplicities"] == [0, 1] + [0] * 4091

    @pytest.mark.parametrize("op", ["tate-free-vanishing", "spectral-algebraic"])
    def test_fuzz_free_orbit_generators(self, run, jrun, op):
        """p generators per free orbit are bounded before generating, for
        the largest matrix prime and for a large --max-gens alike."""
        for extra in (["-p", "16777213"], ["-p", "7", "--max-gens", "10000"]):
            t0 = time.perf_counter()
            code, out, err = run(["fuzz", "--op", op, "--count", "1", "--json"] + extra)
            assert time.perf_counter() - t0 < 1
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: TooLarge: {op} generators")
        code, report, _ = jrun(["fuzz", "--op", op, "--count", "2", "-p", "7"])
        assert code == 0
        assert report["results"]["passed"] == 2


    @staticmethod
    def _two_degrees(tmp_path, degree):
        data = {
            "p": 2,
            "generators": [{"id": "a", "degree": degree}, {"id": "b", "degree": degree + 1, "action": -1}],
            "differential": {},
            "sigma": {},
        }
        return write_json(tmp_path / "huge.json", data)

    @pytest.mark.parametrize("command", [["tate"], ["group-cohomology"], ["spectral", "algebraic"]])
    def test_huge_generator_degree(self, run, jrun, tmp_path, command):
        """Degrees become int64 in tate.parity_split, so one of 2^62 or more
        in size is refused there; the degree shifts stay inside int64."""
        for degree in (2**63, 2**63 + 1, -(2**63) - 1, 2**62):
            code, out, err = run(command + ["--input", self._two_degrees(tmp_path, degree), "--json"])
            assert code == 2
            assert out == ""
            assert err.startswith("error: TooLarge: largest |generator degree|")
        code, _, _ = jrun(command + ["--input", self._two_degrees(tmp_path, 2**62 - 2)])
        assert code == 0

    @pytest.mark.parametrize("command", [["barcode"], ["spectral", "action"]])
    def test_huge_degree_in_a_filtered_command(self, jrun, tmp_path, command):
        code, _, _ = jrun(command + ["--input", self._two_degrees(tmp_path, 2**63 + 1)])
        assert code == 0


def _four_degree_model(p: int, orbits: int, unpaired: int) -> dict:
    """The default model of a complex of free orbits in degrees 0 to 3,
    orbits per degree, at action -degree: d pairs orbit b of degree 0 and 2
    with orbit b one degree up, for every b from unpaired on."""
    from smith_tate.complexes import complex_from_json

    gens, sigma, diff = [], {}, {}
    for k in range(4):
        for b in range(orbits):
            ids = [f"d{k}o{b:03d}e{j}" for j in range(p)]
            gens += [{"id": g, "degree": k, "action": -k} for g in ids]
            sigma.update({g: {ids[(j + 1) % p]: 1} for j, g in enumerate(ids)})
            if k % 2 == 0 and b >= unpaired:
                diff.update({g: {f"d{k + 1}o{b:03d}e{j}": 1} for j, g in enumerate(ids)})
    base = complex_from_json({"p": p, "generators": gens, "differential": diff, "sigma": sigma})
    return model_to_json(EquivariantFloerModel(base, i_max=2))


class TestDenseArrays:
    """No whole operator is made dense: the spectral pages cut no array
    from sparse columns, and Bareiss eliminates one parity's block at a time."""

    @staticmethod
    def _shapes(monkeypatch) -> list:
        """The shape of every array _dense builds from now on, in every
        module that calls it."""
        import sys

        from smith_tate import complexes

        shapes, real = [], complexes._dense

        def recording(a, rows):
            m = real(a, rows)
            shapes.append(m.shape)
            return m

        for name, mod in list(sys.modules.items()):
            if name.startswith("smith_tate.") and getattr(mod, "_dense", None) is real:
                monkeypatch.setattr(mod, "_dense", recording)
        return shapes

    def test_spectral_algebraic_cuts_no_block(self, jrun, tmp_path, monkeypatch):
        """12 generators in each of four degrees: homology and the induced
        maps run on sparse columns, so no block is made dense, neither one
        degree's 12 x 12 nor the whole 48 x 48."""
        path = write_json(tmp_path / "model.json", _four_degree_model(3, 4, 2))
        shapes = self._shapes(monkeypatch)
        code, report, _ = jrun(["spectral", "algebraic", "--input", path])
        assert code == 0
        assert report["results"]["e1-even"] == {str(k): 6 for k in range(4)}
        assert shapes == []

    def test_bareiss_cuts_one_parity_at_a_time(self, jrun, tmp_path, monkeypatch):
        """48 generators give 96 labels: each polynomial parity block that
        Bareiss eliminates is 48 x 48, never the 96 x 96 whole, and its rows
        are written from the sparse columns, with no array cut from them."""
        import smith_tate.ratfun as ratfun

        data = _four_degree_model(3, 4, 2)
        data = {k: data[k] for k in ("p", "generators", "differential", "sigma")}
        path = write_json(tmp_path / "complex.json", data)
        dense = self._shapes(monkeypatch)
        shapes, real = [], ratfun.bareiss_rank

        def recording(mat, p):
            shapes.append((len(mat), *{len(row) for row in mat}))
            return real(mat, p)

        monkeypatch.setattr(ratfun, "bareiss_rank", recording)
        code, report, _ = jrun(["tate", "--input", path, "--method", "bareiss"])
        assert code == 0
        assert sorted(shapes) == [(48, 48), (48, 48)]
        assert dense == []
        _, by_evaluation, _ = jrun(["tate", "--input", path])
        assert report["results"] == by_evaluation["results"]


class TestSharedParser:
    """dispatch builds the argparse parser once per process and no parse
    leaves state behind for the next one."""

    def test_built_once(self, run, monkeypatch, trivial_file):
        import smith_tate.cli as cli

        calls = []
        real = cli.build_parser

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for i in range(20):
                argv = ["tate", "--input", trivial_file] if i % 2 else ["group-cohomology", "--input", trivial_file]
                assert run(argv)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1

    def test_no_state_carries_over(self, run, monkeypatch, tmp_path, trivial_file):
        import smith_tate.cli as cli

        iso = write_json(
            tmp_path / "iso.json",
            {
                "p": 3,
                "generators": [{"id": "a", "degree": 0, "action": 1}, {"id": "b", "degree": 1, "action": 0}],
                "differential": {"a": {"b": 1}},
                "filtered": True,
            },
        )
        fuzz = ["fuzz", "--op", "tate-free-vanishing", "--count", "2", "--seed", "4"]
        sequence = [
            ["barcode", "--input", iso, "--window", "1/3:2"],
            ["barcode", "--input", iso],
            fuzz + ["-p", "5"],
            fuzz,
            ["tate", "--input", trivial_file, "--method", "bogus"],
            ["tate", "--input", trivial_file],
            ["no-such-command"],
            ["tate", "--input", trivial_file],
        ]

        def outcome(argv):
            code, out, err = run(argv + ["--json"])
            report = json.loads(out) if out.strip() else None
            if report is not None:
                report.pop("timing_ms")
            return code, report, err

        shared = [outcome(argv) for argv in sequence]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [outcome(argv) for argv in sequence]
        assert shared == fresh
        assert "window" not in shared[1][1]["results"] and "window" in shared[0][1]["results"]
        assert shared[2][1]["results"]["p"] == 5 and shared[3][1]["results"]["p"] == 3
        assert [c for c, _, _ in shared] == [0, 0, 0, 0, 2, 0, 2, 0]

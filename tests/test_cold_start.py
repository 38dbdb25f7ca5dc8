"""What a fresh process loads: `import smith_tate` loads no submodule, and
each subcommand loads only the modules it runs.  The cohomology,
quasi-Frobenius, barcode, torsion, spectral sequence, decompose and
smith-check subcommands, and the fuzz op on free complexes, run on sparse
columns and Python ints, so on sparse inputs they leave numpy unloaded.
Each load check runs in its own interpreter, since this one has imported
every module already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = {"cli", "complexes", "errors", "fp_core", "tate"}

_POINT = {"p": 3, "generators": [{"id": "v", "degree": 0}], "sigma": {}}
_ISO = {
    "p": 3,
    "generators": [{"id": "a", "degree": 0, "action": 1}, {"id": "b", "degree": 1, "action": 0}],
    "differential": {"a": {"b": 1}},
    "filtered": True,
}
_BARS = {"p": 3, "bars": [{"start": "0/1", "end": "1/1", "mult": 2}, {"start": "-1/2", "end": None, "mult": 1}]}
_SIGMA = {"p": 3, "size": 4, "matrix": [[0, 0, 1], [2, 1, 1], [3, 2, 1], [1, 3, 1]]}


def _tensor_cube() -> dict:
    """The p = 3 tensor power of x -> y beside a free z: 27 generators."""
    from smith_tate.complexes import ChainComplex, Generator, complex_to_json, tensor_power

    base = ChainComplex(3, [Generator("x", 0), Generator("y", 1), Generator("z", 1)], {"x": {"y": 1}})
    return complex_to_json(tensor_power(base))


def _loaded(code: str) -> tuple[set[str], bool]:
    """(the smith_tate submodules a fresh interpreter has loaded after code,
    whether it loaded numpy); code must not print."""
    probe = (
        code
        + "\nimport json, sys\nprint(json.dumps([[m.split('.', 1)[1] for m in sys.modules"
        " if m.startswith('smith_tate.')], 'numpy' in sys.modules]))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    modules, numpy = json.loads(res.stdout.splitlines()[-1])
    return set(modules), numpy


def _after_run(argv: list[str]) -> tuple[set[str], bool]:
    code = (
        "import contextlib, io\nfrom smith_tate.cli import dispatch\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert dispatch({argv!r}) == 0"
    )
    return _loaded(code)


def _input(tmp_path, payload: dict) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_package_import_loads_no_submodule():
    assert _loaded("import smith_tate") == (set(), False)


def test_every_export_is_listed_by_dir():
    import smith_tate

    assert set(smith_tate.__all__) <= set(dir(smith_tate))


@pytest.mark.parametrize("command", ["tate", "group-cohomology"])
def test_cohomology_runs_load_the_core(tmp_path, command):
    assert _after_run([command, "--input", _input(tmp_path, _POINT), "--json"]) == (CORE, False)


@pytest.mark.parametrize("command", ["tate", "group-cohomology"])
def test_cohomology_runs_on_a_tensor_power_leave_numpy_unloaded(tmp_path, command):
    assert _after_run([command, "--input", _input(tmp_path, _tensor_cube()), "--json"]) == (CORE, False)


def test_the_bareiss_route_loads_ratfun_and_numpy(tmp_path):
    path = _input(tmp_path, _tensor_cube())
    assert _after_run(["tate", "--method", "bareiss", "--input", path, "--json"]) == (CORE | {"ratfun"}, True)


def test_barcode_run_loads_the_core_and_persistence(tmp_path):
    assert _after_run(["barcode", "--input", _input(tmp_path, _ISO), "--json"]) == (CORE | {"persistence"}, False)


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["barcode"], _BARS),
        (["barcode", "--window=1/2:*"], _ISO),
        (["barcode", "--window=-1:1/2"], _BARS),
        (["torsion"], _BARS),
    ],
    ids=["barcode-bars", "barcode-complex-window", "barcode-bars-window", "torsion"],
)
def test_barcode_and_torsion_runs_leave_numpy_unloaded(tmp_path, argv, payload):
    path = _input(tmp_path, payload)
    assert _after_run([*argv, "--input", path, "--json"]) == (CORE | {"persistence"}, False)


def test_barcode_on_a_large_prime_free_complex_leaves_numpy_unloaded(tmp_path):
    """Two free orbits at p = 31, 62 generators: sigma is checked as sigma^p
    by composing one-entry columns, and the barcode never reads the norm,
    whose dense p x p orbit blocks would send its products to numpy."""
    from smith_tate.complexes import complex_to_json
    from smith_tate.random_instances import random_free_equivariant

    path = _input(tmp_path, complex_to_json(random_free_equivariant(31, 0, max_blocks=2)))
    assert _after_run(["barcode", "--input", path, "--json"]) == (CORE | {"persistence"}, False)


def test_spectral_action_run_leaves_numpy_unloaded(tmp_path):
    """The action pages come from the persistence pairing and their
    convergence check from sparse homology, so no array is built."""
    path = _input(tmp_path, _ISO)
    assert _after_run(["spectral", "action", "--input", path, "--json"]) == (CORE | {"persistence", "spectral"}, False)


def test_quasi_frobenius_run_leaves_numpy_unloaded(tmp_path):
    """Class coordinates and the induced map are sparse columns, and the
    report's matrix a list of int rows."""
    assert _after_run(["quasi-frobenius", "--input", _input(tmp_path, _ISO), "--json"]) == (CORE, False)


def test_spectral_algebraic_run_leaves_numpy_unloaded(tmp_path):
    """The page differentials are induced as sparse columns, ranked and
    decomposed as they are."""
    path = _input(tmp_path, _POINT)
    want = CORE | {"module_decomp", "persistence", "spectral"}
    assert _after_run(["spectral", "algebraic", "--input", path, "--json"]) == (want, False)


def test_fuzz_on_free_complexes_leaves_numpy_unloaded():
    """The generators conjugate sparse columns; only the sigma sampler builds arrays."""
    want = CORE | {"fuzz", "module_decomp", "persistence", "random_instances", "spectral"}
    assert _after_run(["fuzz", "--op", "tate-free-vanishing", "--count", "3", "--json"]) == (want, False)


@pytest.mark.parametrize("argv", [["decompose"], ["smith-check", "--hf-dim", "1"]], ids=["decompose", "smith-check"])
def test_sigma_runs_on_a_small_sigma_leave_numpy_unloaded(tmp_path, argv):
    """A sigma file is read into sparse columns, and below the size floor
    of fp_core.column_rank every rank reduces them sparse."""
    path = _input(tmp_path, _SIGMA)
    assert _after_run([*argv, "--sigma", path, "--json"]) == (CORE | {"module_decomp"}, False)


def _imports_cli(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "smith_tate.cli" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            return node.module == "smith_tate.cli" or (
                node.module == "smith_tate" and any(a.name == "cli" for a in node.names)
            )
        return node.module == "cli" or (node.module is None and any(a.name == "cli" for a in node.names))
    return False


def test_no_module_imports_cli():
    """`python -m smith_tate.cli` runs cli as __main__; a module importing
    smith_tate.cli would compile and run it a second time."""
    offenders = [
        path.name
        for path in sorted((SRC / "smith_tate").glob("*.py"))
        if any(_imports_cli(node) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert offenders == []

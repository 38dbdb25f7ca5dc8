"""What a fresh process loads: `import smith_tate` loads no submodule, and
each subcommand loads only the modules it runs.  Each load check runs in its own
interpreter, since this one has imported every module already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = {"cli", "complexes", "errors", "fp_core", "tate", "ratfun"}

_POINT = {"p": 3, "generators": [{"id": "v", "degree": 0}], "sigma": {}}
_ISO = {
    "p": 3,
    "generators": [{"id": "a", "degree": 0, "action": 1}, {"id": "b", "degree": 1, "action": 0}],
    "differential": {"a": {"b": 1}},
    "filtered": True,
}


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


def _after_run(argv: list[str]) -> set[str]:
    code = (
        "import contextlib, io\nfrom smith_tate.cli import dispatch\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert dispatch({argv!r}) == 0"
    )
    return _loaded(code)[0]


def test_package_import_loads_no_submodule():
    assert _loaded("import smith_tate") == (set(), False)


def test_every_export_is_listed_by_dir():
    import smith_tate

    assert set(smith_tate.__all__) <= set(dir(smith_tate))


@pytest.mark.parametrize("command", ["tate", "group-cohomology"])
def test_cohomology_runs_load_the_core(tmp_path, command):
    path = tmp_path / "point.json"
    path.write_text(json.dumps(_POINT), encoding="utf-8")
    assert _after_run([command, "--input", str(path), "--json"]) == CORE


def test_barcode_run_loads_the_core_and_persistence(tmp_path):
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(_ISO), encoding="utf-8")
    assert _after_run(["barcode", "--input", str(path), "--json"]) == CORE | {"persistence"}


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

"""Self-test of the benchmark: python3 -m pytest perfbench -q

Runs every workload end to end on its tiny op list, plants a wrong answer
to check that the correctness gate catches it, and checks the refusals.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(capsys, *argv) -> tuple[int, dict | None]:
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return code, last


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_end_to_end(capsys, workload, trace):
    code, result = _run(capsys, "--workload", workload, "--seed", "0", "--seconds", "0",
                        "--trace", str(trace), "--tiny")
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_planted_wrong_answer_fails_the_run(capsys, monkeypatch):
    import smith_tate.cli

    real = smith_tate.cli.tate_cohomology_dims

    def wrong(V, **kwargs):
        even, odd = real(V, **kwargs)
        return even + 1, odd

    monkeypatch.setattr(smith_tate.cli, "tate_cohomology_dims", wrong)
    code, result = _run(capsys, "--workload", "tate-large", "--seed", "0", "--seconds", "0", "--tiny")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_input_drift_is_refused(capsys, monkeypatch):
    refs = harness.load_references()
    refs["input_sets"]["cli-small"]["0"] = "0" * 64
    monkeypatch.setattr(harness, "load_references", lambda: refs)
    code, result = _run(capsys, "--workload", "cli-small", "--seed", "0", "--seconds", "0", "--tiny")
    assert code != 0 and result is None


def test_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "0", "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert res.returncode != 0
    assert not any(line.startswith("{") for line in res.stdout.splitlines())


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert harness.tail(list(range(1, 301))) == (95.0, 285)
    assert harness.tail(list(range(1, 59))) == (75.0, 44)
    assert harness.tail(list(range(1, 15))) == (100.0, 14)

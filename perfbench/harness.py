"""Running op lists through ``smith_tate.cli.dispatch`` and judging them.

One client, one thread, closed loop: each op starts when the previous one
has returned.  Reports are captured in memory and checked after the pass,
so checking never sits between two timed ops.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_REPORT_KEYS = ("command", "input_sha256", "results", "checks", "ok")
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Outcome:
    code: int | None
    out: str
    err: str
    seconds: float


def resolve_argv(op, workdir: Path) -> list[str]:
    return [str(workdir / f"{op.id}.{t[1:]}.json") if t.startswith("@") else t for t in op.argv]


def write_inputs(ops, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        for name, data in op.files.items():
            (workdir / f"{op.id}.{name}.json").write_bytes(data)


def run_pass(ops, argvs, cli_module, tracer=None) -> list[Outcome]:
    """Run every op once, in order, through the current ``cli.dispatch``."""
    outcomes = []
    clock = time.perf_counter
    for i, (op, argv) in enumerate(zip(ops, argvs)):
        if tracer is not None:
            tracer.current_op = i
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_module.dispatch(argv + ["--json"])
        except Exception as e:  # an untyped crash is a failed op, not a harness crash
            code = None
            err.write(f"crash: {type(e).__name__}: {e}")
        outcomes.append(Outcome(code, out.getvalue(), err.getvalue(), clock() - t0))
    return outcomes


def _error_type(err: str) -> str | None:
    m = re.match(r"error: (\w+):", err)
    return m.group(1) if m else None


def digest(o: Outcome, workdir: Path) -> str:
    """sha256 of the report fields that define the answer; timing_ms and
    any other key are left out.  Ops that print no report (exit 2) are
    identified by their error line, with the work directory masked."""
    if o.out.strip():
        rep = json.loads(o.out)
        core = {k: rep.get(k) for k in _REPORT_KEYS}
        text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    else:
        text = f"exit {o.code}: {o.err.replace(str(workdir), '@')}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _lookup(rep: dict, path: str):
    cur = rep
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return "<missing>"
        cur = cur[part]
    return cur


def judge(op, want: dict, o: Outcome, ref: str | None, workdir: Path) -> tuple[str, str | None]:
    """(digest, failure reason or None) for one outcome."""
    if o.code != op.exit_code:
        return "", f"exit {o.code}, expected {op.exit_code}: {o.err.strip()[:200]}"
    try:
        d = digest(o, workdir)
        rep = json.loads(o.out) if o.out.strip() else {}
    except (json.JSONDecodeError, AttributeError) as e:
        return "", f"unreadable report: {e}"
    for path, value in want.items():
        got = _error_type(o.err) if path == "error" else _lookup(rep, path)
        if got != value:
            return d, f"{path} = {got!r}, expected {value!r}"
    if ref is not None and d != ref:
        return d, f"report digest {d[:12]} differs from reference {ref[:12]}"
    return d, None


def typed_errors(outcomes, error_names: set[str]) -> int:
    return sum(1 for o in outcomes if o.code == 2 and _error_type(o.err) in error_names)


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of the ladder with at
    least ten values beyond it, by nearest rank."""
    n = len(values)
    for q in _TAIL_LADDER:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return q, sorted(values)[rank - 1]
    return 100.0, max(values)


# ---------------------------------------------------------------------------
# references and provenance


def load_references() -> dict:
    if not REFERENCES.exists():
        return {"default_seed": DEFAULT_SEED, "digests": {}, "input_sets": {}}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop.  Recorded to show machine drift;
    never used to scale a result."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i
    return time.perf_counter() - t0


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "calibration_s": calibration_seconds(),
    }

"""smith_tate benchmark: replay a seed-generated op list through the CLI.

    python3 perfbench/run.py --workload tate-large --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every op was
correct.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_k] = "1"

import harness  # noqa: E402  (after the thread pins, before numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("tate-large", "filtered-large", "cli-small")
SETUP_SAMPLES = 5  # this process plus four fresh ones
MIN_PASSES = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cold_start_ms": "ms",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="run only the few ops flagged tiny (self-test)")
    ap.add_argument("--setup-only", action="store_true", help="time one set-up and exit (internal)")
    return ap.parse_args(argv)


class Refused(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _import_program():
    if not (SRC / "smith_tate" / "cli.py").is_file():
        raise Refused(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import smith_tate

    origin = Path(smith_tate.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise Refused(f"smith_tate imported from {origin}, not from {SRC}")


class WorkloadRun:
    """One workload at one seed: inputs, expectations, references and the
    warm-up pass.  Building it is the set-up that setup_s times."""

    def __init__(self, args, t0: float):
        _import_program()
        import smith_tate.cli
        import smith_tate.errors
        import workloads

        self.cli = smith_tate.cli
        self.error_names = {
            name for name, obj in vars(smith_tate.errors).items()
            if isinstance(obj, type) and issubclass(obj, smith_tate.errors.SmithTateError)
        }
        self.args = args
        all_ops = workloads.generate(args.workload, args.seed)
        self.input_sha = workloads.input_set_sha256(all_ops)
        refs = harness.load_references()
        recorded = refs["input_sets"].get(args.workload, {}).get(str(args.seed))
        if recorded is not None and recorded != self.input_sha:
            raise Refused(
                f"input set of {args.workload} at seed {args.seed} is {self.input_sha[:16]}, "
                f"recorded {recorded[:16]}: the generators changed, so results are not comparable"
            )
        self.input_recorded = recorded is not None
        self.ops = [op for op in all_ops if op.tiny] if args.tiny else all_ops
        self.wants = [op.want() for op in self.ops]
        self.workdir = harness.WORK_DIR / f"{os.getpid()}-{args.workload}"
        try:
            harness.write_inputs(self.ops, self.workdir)
            self.argvs = [harness.resolve_argv(op, self.workdir) for op in self.ops]
            warm = harness.run_pass(self.ops, self.argvs, self.cli)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0
        stored = refs["digests"].get(args.workload, {}) if args.seed == refs["default_seed"] else {}
        self.refs = [stored.get(op.id) for op in self.ops]
        self.warm_failures = []
        for i, o in enumerate(warm):
            d, why = harness.judge(self.ops[i], self.wants[i], o, self.refs[i], self.workdir)
            if why:
                self.warm_failures.append(f"{self.ops[i].id}: {why}")
            if self.refs[i] is None:
                self.refs[i] = d  # later passes must reproduce the warm pass

    def check(self, outcomes) -> list[str]:
        failures = []
        for i, o in enumerate(outcomes):
            _, why = harness.judge(self.ops[i], self.wants[i], o, self.refs[i], self.workdir)
            if why:
                failures.append(f"{self.ops[i].id}: {why}")
        return failures

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _subprocess_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _setup_sample(args) -> float:
    """Set-up time of a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, env=_subprocess_env())
    if res.returncode != 0:
        raise Refused(f"set-up sample failed: {res.stderr.strip()[-300:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def _cold_start(s: WorkloadRun) -> float:
    """Wall time of a fresh CLI process running the first op, which must
    reproduce the warm pass's report."""
    cmd = [sys.executable, "-m", "smith_tate.cli", *s.argvs[0], "--json"]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=s.workdir, capture_output=True, text=True, timeout=120, env=_subprocess_env())
    elapsed = time.perf_counter() - t0
    o = harness.Outcome(res.returncode, res.stdout, res.stderr, 0.0)
    _, why = harness.judge(s.ops[0], s.wants[0], o, s.refs[0], s.workdir)
    if why:
        raise Refused(f"cold-start run of {s.ops[0].id} is wrong: {why}")
    return elapsed


def _measure(s: WorkloadRun, seconds: float):
    """Untraced passes until `seconds` of wall time (at least MIN_PASSES).

    One cold start follows every pass, and the set-up samples are spread
    over the run, so every metric samples the machine over the same span.
    """
    pass_times, op_times, failures = [], [], []
    setups, colds = [s.setup_s], []
    deadline = time.perf_counter() + seconds
    stride = 1
    while True:
        t0 = time.perf_counter()
        outcomes = harness.run_pass(s.ops, s.argvs, s.cli)
        pass_times.append(time.perf_counter() - t0)
        op_times.append([o.seconds for o in outcomes])
        failures += s.check(outcomes)
        colds.append(_cold_start(s))
        if len(pass_times) == 1:
            budget = seconds - (SETUP_SAMPLES - 1) * s.setup_s
            stride = max(1, int(budget / (time.perf_counter() - t0)) // SETUP_SAMPLES)
        if len(setups) < SETUP_SAMPLES and len(pass_times) % stride == 0:
            setups.append(_setup_sample(s.args))
        # The fresh processes evicted this one's caches, which would slow
        # the first ops of the next pass: refill them with an untimed op.
        harness.run_pass(s.ops[:1], s.argvs[:1], s.cli)
        if time.perf_counter() >= deadline and len(pass_times) >= MIN_PASSES:
            setups += [_setup_sample(s.args) for _ in range(SETUP_SAMPLES - len(setups))]
            return pass_times, op_times, failures, setups, colds


def _upper_quartile(samples) -> float:
    return statistics.quantiles(samples, n=4)[2]


def _end_to_end(s: WorkloadRun, prov: dict):
    pass_times, op_times, failures, setups, colds = _measure(s, s.args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # An op's time is the upper quartile of its repetitions, one per pass.
    # On a shared machine the speed switches every few tens of milliseconds
    # between a fast state and one up to 2x slower.  The share of fast time
    # drifts from minute to minute, and some minutes have none, so the
    # minimum and the median follow the drift; the slow state is there in
    # every run, and the upper quartile sits in it.  The same holds for
    # the cold starts.  The best and all-sample figures stay in the
    # provenance.
    typical = [_upper_quartile(samples) for samples in zip(*op_times)]
    best = [min(samples) for samples in zip(*op_times)]
    everything = [t for p in op_times for t in p]
    pct, tail_s = harness.tail(typical)
    prov.update(
        passes=len(pass_times), pass_s=pass_times, op_tail_percentile=pct, op_count=len(typical),
        setup_samples_s=setups, cold_start_samples_ms=[t * 1000 for t in colds],
        ops_per_s_all=len(everything) / sum(pass_times), op_p50_all_ms=statistics.median(everything) * 1000,
        op_tail_all_ms=harness.tail(everything)[1] * 1000, ops_per_s_best=len(best) / sum(best),
        op_q3_ms={op.id: t * 1000 for op, t in zip(s.ops, typical)},
        op_best_ms={op.id: t * 1000 for op, t in zip(s.ops, best)},
    )
    values = {
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
        "cold_start_ms": _upper_quartile(colds) * 1000,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, failures, len(everything)


def _per_layer(s: WorkloadRun, prov: dict):
    """Alternate untraced and traced passes until `seconds` of pass time."""
    import spans

    tracer = spans.Tracer()
    untraced, traced, failures, attempted, report_bytes, typed = [], [], [], 0, 0, 0
    while True:
        t0 = time.perf_counter()
        outcomes = harness.run_pass(s.ops, s.argvs, s.cli)
        untraced.append(time.perf_counter() - t0)
        failures += s.check(outcomes)
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced_outcomes = harness.run_pass(s.ops, s.argvs, s.cli, tracer)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        # the traced pass must reproduce the untraced digests exactly
        failures += s.check(traced_outcomes)
        attempted += len(outcomes) + len(traced_outcomes)
        report_bytes += sum(len(o.out.encode("utf-8")) for o in traced_outcomes)
        typed += harness.typed_errors(traced_outcomes, s.error_names)
        if sum(untraced) + sum(traced) >= s.args.seconds:
            break
    layer = spans.layer_metrics(tracer, len(traced))
    layer["cli.report_bytes"] = report_bytes / len(traced)
    layer["cli.errors"] = typed / len(traced)
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    harness.OUT_DIR.mkdir(exist_ok=True)
    span_path = harness.OUT_DIR / f"spans-{s.args.workload}-seed{s.args.seed}.json"
    tracer.write(span_path)
    prov.update(untraced_pass_s=untraced, traced_pass_s=traced, spans=str(span_path.relative_to(ROOT)),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in layer.items()}
    return metrics, failures, attempted


def run_workload(args) -> int:
    s = WorkloadRun(args, time.perf_counter())
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": s.setup_s}))
            return 0
        prov = harness.provenance(args.workload, args.seed, args.trace)
        prov.update(input_set_sha256=s.input_sha, input_set_recorded=s.input_recorded,
                    ops_per_pass=len(s.ops), tiny=args.tiny)
        metrics, failures, attempted = (_per_layer if args.trace else _end_to_end)(s, prov)
        prov["failed_frac"] = len(failures) / attempted
        for f in (s.warm_failures + failures)[:20]:
            print(f"FAILED {f}", file=sys.stderr)
        correct = not failures and not s.warm_failures
        result = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        harness.OUT_DIR.mkdir(exist_ok=True)
        out = harness.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({"provenance": prov, **result}, indent=2) + "\n", encoding="utf-8")
        print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
              f"failed {len(failures)}/{attempted}  failed_frac {prov['failed_frac']:.6g}")
        width = max(len(k) for k in metrics)
        for k, v in metrics.items():
            print(f"  {k:<{width}}  {v['value']:>14.6g}  {v['unit']}")
        print("provenance: " + json.dumps(prov, sort_keys=True))
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        s.close()


def run_all(args) -> int:
    """Every workload in its own process; one combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{w}: no result (exit {res.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except ImportError as e:
        print(f"refused: cannot import the program: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

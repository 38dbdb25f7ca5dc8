"""Rewrite perfbench/references.json from the current program.

    python3 perfbench/record.py [workload ...]

Records, for every workload named (all of them by default), the sha256
of the generated input set at seeds 0 to SEEDS-1, and the report digest
of every op at the default seed.  The other workloads keep their stored
references.  Each op must first pass its exit-code and independent-route
checks.  Run it only when the op lists are meant to change: a program
change that alters a digest or an input set is exactly what the
benchmark exists to catch.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import smith_tate.cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = 100


def main(argv: list[str]) -> int:
    unknown = set(argv) - set(workloads.WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    refs = harness.load_references()
    digests, input_sets = refs["digests"], refs["input_sets"]
    for w in argv or workloads.WORKLOADS:
        input_sets[w] = {str(s): workloads.input_set_sha256(workloads.generate(w, s)) for s in range(SEEDS)}
        ops = workloads.generate(w, harness.DEFAULT_SEED)
        workdir = harness.WORK_DIR / f"record-{w}"
        try:
            harness.write_inputs(ops, workdir)
            argvs = [harness.resolve_argv(op, workdir) for op in ops]
            outcomes = harness.run_pass(ops, argvs, smith_tate.cli)
            digests[w] = {}
            for op, o in zip(ops, outcomes):
                d, why = harness.judge(op, op.want(), o, None, workdir)
                if why:
                    print(f"{w} {op.id}: {why}", file=sys.stderr)
                    return 1
                digests[w][op.id] = d
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{w}: {len(ops)} ops, {SEEDS} input sets")
    refs = {"default_seed": harness.DEFAULT_SEED, "digests": digests, "input_sets": input_sets}
    harness.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

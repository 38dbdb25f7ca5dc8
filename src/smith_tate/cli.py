"""Command-line front end.

Loads JSON instances, runs the computations and checkers, and emits a
report: a table by default, machine-readable JSON with --json.  Every
report carries the command name, a digest of the input, a results tree,
and one pass/fail line per check; the process exits 0 when all checks
pass, 1 when one fails, and 2 on malformed input or usage errors.

Subcommands: tate, group-cohomology, quasi-frobenius, decompose,
smith-check, spectral (action|algebraic), barcode, barcode-smith,
torsion, morse-constants, fuzz (in the fuzz module).  Rationals cross the
JSON boundary as "num/den" strings to stay exact.

A process loads only the modules its subcommand runs: tate and the JSON
codec at import, every other module inside the handlers that call it.
numpy loads only where dense algebra runs, inside the functions that
build or use arrays, so tate, group-cohomology, quasi-frobenius, barcode,
torsion, spectral, decompose and smith-check on sparse inputs never load it.
Those handlers import their functions each time they run, never into a
table or default built at import, so a profiler that wraps module
attributes sees every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .complexes import (
    _FAILURE_DISPLAY_CAP,
    ActionWindow,
    _digest_params,
    _json_text,
    _parse_bound,
    _read_json_files,
    _sigma_from_json,
    complex_from_json,
)
from .errors import MalformedInput, SmithTateError, UnknownCommand
from .fp_core import check_prime
from .tate import group_cohomology_dims, quasi_frobenius, tate_cohomology_dims


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (input digest, results tree, checks)


def _cmd_tate(args):
    digest, (data,) = _read_json_files(args.input)
    V = complex_from_json(data)
    even, odd = tate_cohomology_dims(V, method=args.method)
    results = {"p": V.p, "dim": V.dim(), "even": even, "odd": odd}
    return digest, results, {}


def _cmd_group_cohomology(args):
    digest, (data,) = _read_json_files(args.input)
    V = complex_from_json(data)
    dims = group_cohomology_dims(V, max_degree=args.max_degree)
    return digest, {"p": V.p, "dims": dims}, {}


def _cmd_quasi_frobenius(args):
    digest, (data,) = _read_json_files(args.input)
    V = complex_from_json(data)
    res = quasi_frobenius(V, max_certificates=args.max_certificates)
    results = {
        "p": res.p,
        "homology-dim": len(res.labels),
        "source-parity": list(res.source_parity_dims),
        "target-parity": list(res.target_parity_dims),
        "induced-matrix": res.induced_matrix,
        "certificates": len(res.certificates),
    }
    checks = {
        "bijective": res.is_bijective,
        "certificates-verified": all(c.verified for c in res.certificates),
    }
    return digest, results, checks


def _cmd_decompose(args):
    from .module_decomp import decompose, tate_and_invariant_dims

    digest, (data,) = _read_json_files(args.sigma)
    p, s = _sigma_from_json(data)
    d = decompose(s, p)
    tate_total, invariant = tate_and_invariant_dims(d)
    results = {
        "p": d.p,
        "multiplicities": list(d.multiplicities),
        "dim": d.dim,
        "free-rank": d.free_rank,
        "is-free": d.is_free,
        "tate-total": tate_total,
        "invariant-dim": invariant,
    }
    return digest, results, {}


def _cmd_smith_check(args):
    from .module_decomp import smith_chain_check

    files, (data,) = _read_json_files(args.sigma)
    digest = _digest_params(files, "hf-dim", args.hf_dim)
    p, s = _sigma_from_json(data)
    rep = smith_chain_check(args.hf_dim, s, p)
    results = {
        "p": rep.p,
        "hf-dim": rep.hf_phi_dim,
        "multiplicities": list(rep.decomposition.multiplicities),
        "sharpened-bound": rep.sharpened_bound,
        "invariant-dim": rep.invariant_dim,
        "module-dim": rep.module_dim,
        "strictly-stronger": rep.sharpened_strictly_stronger,
    }
    checks = {
        "sharpened": rep.holds_sharpened,
        "classical": rep.holds_classical,
        "invariant-leq-dim": rep.holds_invariant_leq_dim,
    }
    return digest, results, checks


def _cmd_spectral(args):
    from .spectral import action_ss_pages, algebraic_ss_pages, model_from_json

    digest, (data,) = _read_json_files(args.input)
    if args.mode == "action":
        fc = complex_from_json(data)
        pages = action_ss_pages(fc)
        results = {
            "levels": pages.levels,
            "pages": [
                {"r": pg.r, "dims": pg.dims, "ranks": pg.differential_ranks}
                for pg in pages.pages
            ],
            "infinity": pages.infinity,
            "total-homology": pages.total_homology,
            "stabilized-at": pages.stabilized_at,
        }
        checks = {"converges": pages.converges}
    else:
        model = model_from_json(data)
        pages = algebraic_ss_pages(model)
        results = {
            "p": pages.p,
            "e1-even": pages.e1_even_dims,
            "e1-odd": pages.e1_odd_dims,
            "e2-by-degree": pages.e2_by_degree,
            "e2": list(pages.e2_dims),
            "einf": list(pages.einf_dims),
            "sigma-module": (
                list(pages.sigma_module.multiplicities) if pages.sigma_module else None
            ),
            "sigma-module-tate-dim": pages.sigma_module_tate_dim,
        }
        checks = {"tate-bound": pages.tate_bound_holds}
    return digest, results, checks


def _cmd_barcode(args):
    from .persistence import bar_stats, barcode_from_filtered, barcode_from_json, barcode_to_json, window_dim

    digest, (data,) = _read_json_files(args.input)
    if isinstance(data, dict) and "bars" in data and "generators" not in data:
        b = barcode_from_json(data)
        source = "barcode"
    else:
        fc = complex_from_json(data)
        b = barcode_from_filtered(fc)
        source = "complex"
    st = bar_stats(b)
    results = {
        "p": b.p,
        "source": source,
        "bars": barcode_to_json(b)["bars"],
        "finite-count": st.finite_count,
        "infinite-count": st.infinite_count,
        "total-count": st.total_count,
        "beta-tot": st.beta_tot,
        "beta-max": st.beta_max,
        "c-plus": st.c_plus,
        "c-minus": st.c_minus,
    }
    if args.window is not None:
        if ":" not in args.window:
            raise MalformedInput("window must be LO:HI; use inf/-inf/* for an open side")
        w = ActionWindow(*map(_parse_bound, args.window.split(":", 1)))
        results["window"] = w
        results["window-dim"] = window_dim(b, w)
    return digest, results, {}


def _cmd_barcode_smith(args):
    from .persistence import barcode_from_json, smith_barcode_check

    digest, (single, iterate) = _read_json_files(args.single, args.iterate)
    b1, bp = barcode_from_json(single), barcode_from_json(iterate)
    p = args.p if args.p is not None else b1.p
    check_prime(p)
    rep = smith_barcode_check(b1, bp, p)
    results = {
        "p": p,
        "beta-tot-single": rep.beta_tot_single,
        "beta-tot-iterate": rep.beta_tot_iterate,
        "m-failure-count": len(rep.m_failures),
        "m-failures": [
            {"t": t, "single": m1, "iterate": mp}
            for (t, m1, mp) in rep.m_failures[:_FAILURE_DISPLAY_CAP]
        ],
        "window-failure-count": len(rep.window_failures),
        "window-failures": [
            {"window": w, "single": d1, "iterate": dp}
            for (w, d1, dp) in rep.window_failures[:_FAILURE_DISPLAY_CAP]
        ],
    }
    checks = {
        "count-inequality": rep.m_ok,
        "beta-direct": rep.beta_direct_ok,
        "beta-integral": rep.beta_integral_ok,
        "window-inequality": rep.window_ok,
    }
    return digest, results, checks


def _cmd_torsion(args):
    from .persistence import _avoids_zero, barcode_from_json, torsion_witness, window_dim

    digest, (data,) = _read_json_files(args.input)
    b = barcode_from_json(data)
    w = torsion_witness(b)
    if w is None:
        return digest, {"p": b.p, "witness": None}, {}
    d = window_dim(b, w)
    results = {"p": b.p, "witness": w, "witness-dim": d}
    checks = {
        "witness-dim-positive": d >= 1,
        "witness-avoids-zero": _avoids_zero(w),
    }
    return digest, results, checks


def _cmd_morse_constants(args):
    from .morse_bzp import enumerate_critical_points, local_euler_constant, resolution_homology, wilson_constant

    digest = _digest_params("morse-constants", args.p, args.n, args.levels, args.length)
    wil = wilson_constant(args.p)
    eu = local_euler_constant(args.n, args.p)
    pts = enumerate_critical_points(args.p, args.levels)
    res = resolution_homology(args.p, args.length)
    by_index: dict[int, int] = {}
    for cp in pts:
        by_index[cp.index] = by_index.get(cp.index, 0) + 1
    results = {
        "p": args.p,
        "wilson": wil,
        "euler-sign": eu.sign,
        "euler-u-exponent": eu.u_exponent,
        "critical-count": len(pts),
        "critical-by-index": by_index,
        "resolution": list(res),
    }
    checks = {
        "wilson-is-minus-one": wil == (args.p - 1) % args.p,
        "resolution-interior-vanishes": res[0] == 1 and not any(res[1:-1]),
    }
    return digest, results, checks


def _cmd_fuzz(args):
    from . import fuzz

    return fuzz._cmd_fuzz(args)


# ---------------------------------------------------------------------------
# parser, report emission, dispatch


_COMMANDS = {
    "tate": _cmd_tate,
    "group-cohomology": _cmd_group_cohomology,
    "quasi-frobenius": _cmd_quasi_frobenius,
    "decompose": _cmd_decompose,
    "smith-check": _cmd_smith_check,
    "spectral": _cmd_spectral,
    "barcode": _cmd_barcode,
    "barcode-smith": _cmd_barcode_smith,
    "torsion": _cmd_torsion,
    "morse-constants": _cmd_morse_constants,
    "fuzz": _cmd_fuzz,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")

    ap = argparse.ArgumentParser(
        prog="smith-tate",
        description="Exact Z/pZ-equivariant cohomology, barcode, and bound checkers.",
    )
    sub = ap.add_subparsers(dest="command", metavar="command")

    t = sub.add_parser("tate", parents=[common], help="Tate cohomology parity dimensions")
    t.add_argument("--input", required=True, help="equivariant complex JSON file")
    t.add_argument(
        "--method",
        choices=("evaluation", "bareiss"),
        default="evaluation",
        help="evaluation: F_p ranks of the parity blocks at u = 1, exact because they are "
        "homogeneous (default); bareiss: fraction-free elimination over F_p[u], the "
        "independent route",
    )

    g = sub.add_parser("group-cohomology", parents=[common], help="group hypercohomology dimensions")
    g.add_argument("--input", required=True, help="equivariant complex JSON file")
    g.add_argument("--max-degree", type=int, default=None)

    q = sub.add_parser("quasi-frobenius", parents=[common], help="p-power map into the p-fold power")
    q.add_argument("--input", required=True, help="complex JSON file")
    q.add_argument("--max-certificates", type=int, default=None)

    d = sub.add_parser("decompose", parents=[common], help="Jordan block multiplicities of sigma")
    d.add_argument("--sigma", required=True, help="sigma matrix JSON file")

    s = sub.add_parser("smith-check", parents=[common], help="fixed-point dimension chain")
    s.add_argument("--hf-dim", type=int, required=True, help="dimension being bounded")
    s.add_argument("--sigma", required=True, help="sigma matrix JSON file")

    sp = sub.add_parser("spectral", parents=[common], help="spectral sequence pages")
    sp.add_argument("mode", choices=("action", "algebraic"))
    sp.add_argument("--input", required=True, help="filtered complex or model JSON file")

    b = sub.add_parser("barcode", parents=[common], help="barcode and bar statistics")
    b.add_argument("--input", required=True, help="filtered complex or barcode JSON file")
    b.add_argument("--window", default=None, help="LO:HI window to evaluate")

    bs = sub.add_parser("barcode-smith", parents=[common], help="single vs p-th iterate comparison")
    bs.add_argument("--single", required=True, help="barcode JSON file")
    bs.add_argument("--iterate", required=True, help="barcode JSON file of the p-th iterate")
    bs.add_argument("-p", type=int, default=None, help="prime scale factor (default: barcode's p)")

    to = sub.add_parser("torsion", parents=[common], help="zero-avoiding witness window")
    to.add_argument("--input", required=True, help="barcode JSON file")

    m = sub.add_parser("morse-constants", parents=[common], help="local constants and resolution")
    m.add_argument("-p", type=int, required=True)
    m.add_argument("--n", type=int, default=1, help="iterate exponent for the local constant")
    m.add_argument("--levels", type=int, default=1, help="critical levels to enumerate")
    m.add_argument("--length", type=int, default=6, help="resolution truncation length")

    f = sub.add_parser("fuzz", parents=[common], help="seeded property fuzzing")
    f.add_argument("--op", default=None, help="registered property name")
    f.add_argument("--seed", type=int, default=None, help="base seed (default: SMITH_TATE_SEED or 0)")
    f.add_argument("--count", type=int, default=100)
    f.add_argument("-p", type=int, default=3)
    f.add_argument("--max-gens", type=int, default=None, help="size bound for generated instances")
    f.add_argument("--adversarial", action="store_true", help="tampered pairs the checker must flag")
    f.add_argument("--reproducer", default=None, help="path for the failure reproducer JSON")
    f.add_argument("--replay", default=None, help="re-run a reproducer JSON instead of generating")

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once; parse_args gives a fresh Namespace per call."""
    return build_parser()


def _print_tree(value, indent: str) -> None:
    if isinstance(value, dict):
        if not value:
            print(f"{indent}(none)")
            return
        for k in sorted(value, key=str):
            v = value[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _print_tree(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(value, list):
        if not value:
            print(f"{indent}(none)")
            return
        for v in value:
            if isinstance(v, (dict, list)):
                print(f"{indent}-")
                _print_tree(v, indent + "  ")
            else:
                print(f"{indent}- {v}")
    else:
        print(f"{indent}{value}")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(_json_text(report))
        return
    results = json.loads(_json_text(report["results"]))  # raises before any line is printed
    print(f"command: {report['command']}")
    print(f"input:   sha256:{report['input_sha256']}")
    print("results:")
    _print_tree(results, "  ")
    if report["checks"]:
        print("checks:")
        for name in sorted(report["checks"]):
            print(f"  {'PASS' if report['checks'][name] else 'FAIL'}  {name}")
    print(f"ok: {str(report['ok']).lower()}  ({report['timing_ms']} ms)")


def dispatch(argv=None) -> int:
    """Run one subcommand; print the report; return the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    t0 = time.perf_counter()
    parser = _parser()
    try:
        if argv and not argv[0].startswith("-") and argv[0] not in _COMMANDS:
            raise UnknownCommand(
                f"unknown command {argv[0]!r}; expected one of: {', '.join(sorted(_COMMANDS))}"
            )
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
        if args.command is None:
            parser.print_help()
            return 2
        digest, results, checks = _COMMANDS[args.command](args)
        report = {
            "command": args.command,
            "input_sha256": digest,
            "results": results,
            "checks": dict(checks),
            "ok": all(checks.values()),
            "timing_ms": int((time.perf_counter() - t0) * 1000),
        }
        _emit(report, args.json)
    except (SmithTateError, ValueError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    return 0 if report["ok"] else 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

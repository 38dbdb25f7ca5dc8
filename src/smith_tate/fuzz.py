"""The fuzz subcommand: registered properties with seeded generators and
payload checkers.

A payload is a self-contained JSON instance tagged by "kind"; check()
consumes only the payload, so a written reproducer replays bit-for-bit.
On a failure the payload is shrunk by greedy single-component deletion
and written as a reproducer JSON that fuzz --replay re-runs.  The cli
module loads this one only when it runs fuzz.

Public functions of the other modules are looked up through their module
at call time, so a profiler that wraps module attributes sees every call.
"""

from __future__ import annotations

import copy
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import complexes, fp_core, module_decomp, persistence, random_instances, spectral, tate
from .complexes import (
    _FAILURE_DISPLAY_CAP,
    ActionWindow,
    EquivariantComplex,
    _digest_params,
    _frac_str,
    _json_text,
    _parse_bound,
    _read_json_files,
    _shown,
    _sigma_from_json,
    _sigma_to_json,
    _sparse,
)
from .errors import MalformedInput, SmithTateError, UnknownProperty, check_size
from .persistence import _avoids_zero, _midpoint_probes

MAX_FUZZ_SIZE = 512  # the size one fuzz instance may reach, FuzzOp.size


@dataclass(frozen=True)
class FuzzOp:
    name: str
    generate: Callable  # (rng, p, args) -> payload dict
    check: Callable  # (payload) -> (ok, details dict)
    size: Callable | None = None  # (p, args) -> (what, largest count an instance reaches)


class _BadPayload(Exception):
    """A payload without a field its check reads, with a field of the wrong
    JSON type, or with one its decoder refuses; args are (SmithTateError
    type, message).  fuzz --replay raises it as that type, MalformedInput
    unless a decoder raised another (exit 2).  A library error raised after
    decoding is a failed verdict instead (exit 1)."""


_REQUIRED = object()


def _field(payload, key: str, kind: type = dict, default=_REQUIRED):
    """payload[key], which must be a JSON value of type kind (an int is
    never a bool), or default when key is absent and a default is given."""
    if not isinstance(payload, dict):
        raise _BadPayload(MalformedInput, f"payload must be a JSON object, got {type(payload).__name__}")
    if key not in payload:
        if default is _REQUIRED:
            raise _BadPayload(MalformedInput, f"payload needs a field {key!r} of type {kind.__name__}")
        return default
    value = payload[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise _BadPayload(MalformedInput, f"payload field {key!r} must be of type {kind.__name__}, got {_shown(value)}")
    return value


def _decoded(payload, key: str, decode: Callable):
    """decode(payload[key]) of a JSON object field."""
    try:
        return decode(_field(payload, key))
    except SmithTateError as e:
        raise _BadPayload(type(e), f"field {key!r}: {e}") from None


def _payload_window(pair) -> ActionWindow:
    """The window of a payload's [lo, hi] pair, bounds read like --window's."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise _BadPayload(MalformedInput, f"window must be a [lo, hi] pair, got {_shown(pair)}")
    try:
        return ActionWindow(*map(_parse_bound, pair))
    except SmithTateError as e:
        raise _BadPayload(type(e), str(e)) from None


def _free_orbit_size(orbits: Callable) -> Callable:
    """FuzzOp.size of an op whose instances hold at most orbits(p, args)
    free orbits of p generators each."""
    return lambda p, args: ("generators (p per free orbit)", p * orbits(p, args))


def _tate_free_orbits(p, args):
    return max(1, 21 // p) if args.max_gens is None else args.max_gens


def _gen_tate_free(rng, p, args):
    V = random_instances.random_free_equivariant(p, rng, max_blocks=_tate_free_orbits(p, args))
    return {"kind": "complex", "complex": complexes.complex_to_json(V)}


def _check_tate_free(payload):
    V = _decoded(payload, "complex", complexes.complex_from_json)
    dims = tate.tate_cohomology_dims(V)
    return dims == (0, 0), {"even": dims[0], "odd": dims[1]}


def _gen_quasi_frobenius(rng, p, args):
    V = random_instances.random_chain_complex(p, rng, max_dim=args.max_gens or 6)
    return {"kind": "complex", "complex": complexes.complex_to_json(V)}


def _check_quasi_frobenius(payload):
    V = _decoded(payload, "complex", complexes.complex_from_json)
    res = tate.quasi_frobenius(V)
    total = sum(V.homology_dims().values())
    ok = (
        res.is_bijective
        and res.target_parity_dims == (total, total)
        and all(c.verified for c in res.certificates)
    )
    details = {
        "bijective": res.is_bijective,
        "homology-dim": total,
        "target-parity": list(res.target_parity_dims),
        "certificates": len(res.certificates),
    }
    return ok, details


def _sigma_size(p, args):
    # p Jordan multiplicities and p powers to rank, of a matrix with at most --max-gens rows
    return "size (the larger of p and --max-gens)", max(p, args.max_gens or 12)


def _gen_sigma_decomposition(rng, p, args):
    s, mults = random_instances.random_sigma_with_multiplicities(p, rng, max_dim=args.max_gens or 12)
    return {"kind": "sigma", "sigma": _sigma_to_json(s.p, _sparse(s.a)), "expected": list(mults)}


def _check_sigma_decomposition(payload):
    p, s = _decoded(payload, "sigma", _sigma_from_json)
    expected = _field(payload, "expected", list, None)
    d = module_decomp.decompose(s, p)
    n = len(s)
    tate_total, invariant = module_decomp.tate_and_invariant_dims(d)
    direct_invariant = n - fp_core.column_rank(complexes._affine(s, 1, -1, p), n, p)
    # cross-check against the complex concentrated in degree 0: its Tate
    # cohomology must count the non-free blocks once per parity
    gens = [(f"v{i:0{len(str(n))}d}", 0, Fraction(0)) for i in range(n)]  # sorted as the matrix's indices
    V = EquivariantComplex._of(p, gens, [{}] * n, s)
    direct_tate = tate.tate_cohomology_dims(V)
    ok = (
        invariant == direct_invariant
        and direct_tate == (tate_total // 2, tate_total // 2)
    )
    if expected is not None:
        ok = ok and tuple(expected) == d.multiplicities
    details = {
        "multiplicities": list(d.multiplicities),
        "invariant-dim": invariant,
        "direct-invariant-dim": direct_invariant,
        "tate-total": tate_total,
        "direct-tate": list(direct_tate),
    }
    return ok, details


def _gen_spectral_action(rng, p, args):
    fc = random_instances.random_filtered_complex(p, rng, max_gens=args.max_gens or 15)
    return {"kind": "complex", "complex": complexes.complex_to_json(fc)}


def _check_spectral_action(payload):
    fc = _decoded(payload, "complex", complexes.complex_from_json)
    pages = spectral.action_ss_pages(fc)
    details = {
        "stabilized-at": pages.stabilized_at,
        "total-homology": dict(pages.total_homology),
    }
    return pages.converges, details


def _algebraic_orbits(p, args):
    return max(0, args.max_gens // p) if args.max_gens else 3


def _gen_spectral_algebraic(rng, p, args):
    kwargs = {"max_orbits": _algebraic_orbits(p, args)}
    if args.max_gens:
        kwargs["max_trivial"] = args.max_gens
    model = random_instances.random_floer_model(p, rng, **kwargs)
    return {"kind": "model", "model": spectral.model_to_json(model)}


def _check_spectral_algebraic(payload):
    model = _decoded(payload, "model", spectral.model_from_json)
    pages = spectral.algebraic_ss_pages(model)
    direct = tate.tate_cohomology_dims(model.base)
    ok = pages.tate_bound_holds and tuple(pages.einf_dims) == direct
    details = {
        "e2": list(pages.e2_dims),
        "einf": list(pages.einf_dims),
        "direct-tate": list(direct),
        "bound-holds": pages.tate_bound_holds,
    }
    return ok, details


def _gen_barcode_roundtrip(rng, p, args):
    fc = random_instances.random_filtered_complex(p, rng, max_gens=args.max_gens or 12)
    _, _, scale, ticks = fc._level_table
    probes = [Fraction(x, 2 * scale) for x in _midpoint_probes([2 * t for t in ticks], 2 * scale)]
    windows: list[list] = [[None, None]]
    for _ in range(5):
        shape = rng.randrange(3)
        if shape == 0:
            windows.append([None, _frac_str(rng.choice(probes))])
        elif shape == 1:
            windows.append([_frac_str(rng.choice(probes)), None])
        elif len(probes) >= 2:
            a, b = sorted(rng.sample(probes, 2))
            windows.append([_frac_str(a), _frac_str(b)])
    return {"kind": "windowed_complex", "complex": complexes.complex_to_json(fc), "windows": windows}


def _check_barcode_roundtrip(payload):
    fc = _decoded(payload, "complex", complexes.complex_from_json)
    windows = [(pair, _payload_window(pair)) for pair in _field(payload, "windows", list, [])]
    b = persistence.barcode_from_filtered(fc)
    failures = []
    for pair, w in windows:
        got = persistence.window_dim(b, w)
        want = sum(complexes.window_truncate(fc, w).homology_dims().values())
        if got != want:
            failures.append({"window": pair, "barcode": got, "homology": want})
    return not failures, {"bars": len(b.bars), "failures": failures}


def _gen_barcode_smith(rng, p, args):
    if args.adversarial:
        b1 = random_instances.random_barcode(p, rng, max_bars=args.max_gens or 8)
        for _ in range(1000):
            if any(bar.finite for bar in b1.bars):
                break
            b1 = random_instances.random_barcode(p, rng, max_bars=args.max_gens or 8)
        _, bp = random_instances.adversarial_iterated_pair(b1, p, rng)
        adversarial = True
    else:
        b1 = random_instances.random_barcode(p, rng, max_bars=args.max_gens or 8)
        bp = persistence.generate_iterated_barcode(
            b1, p, extra_bars=rng.randint(0, 3), seed=rng.randrange(2**30)
        )
        adversarial = False
    return {
        "kind": "barcode_pair",
        "p": p,
        "adversarial": adversarial,
        "single": persistence.barcode_to_json(b1),
        "iterate": persistence.barcode_to_json(bp),
    }


def _check_barcode_smith(payload):
    b1, bp = (_decoded(payload, key, persistence.barcode_from_json) for key in ("single", "iterate"))
    adversarial = _field(payload, "adversarial", bool, False)
    rep = persistence.smith_barcode_check(b1, bp, _field(payload, "p", int, b1.p))
    details = {
        "report-ok": rep.ok,
        "m-failures": len(rep.m_failures),
        "window-failures": len(rep.window_failures),
    }
    if adversarial:
        # the pair was tampered with, so the checker must flag it
        return (not rep.ok), details
    return rep.ok, details


def _gen_torsion_detector(rng, p, args):
    mode = rng.randrange(4)
    max_bars = args.max_gens or 8
    if mode == 0:
        b = random_instances.random_barcode(p, rng, max_bars=max_bars, normalized=True)
    elif mode == 1:
        b = random_instances.random_barcode(p, rng, max_bars=max_bars, distinct_infinite=True)
    elif mode == 2:
        b = random_instances.random_barcode(p, rng, max_bars=max_bars, allow_finite=False)
    else:
        b = random_instances.random_barcode(p, rng, max_bars=max_bars)
    return {"kind": "barcode", "barcode": persistence.barcode_to_json(b)}


def _check_torsion_detector(payload):
    b = _decoded(payload, "barcode", persistence.barcode_from_json)
    if not b.bars:
        return True, {"empty": True}
    st = persistence.bar_stats(b)
    expect = any(bar.finite for bar in b.bars) or (
        st.c_plus is not None and st.c_plus > st.c_minus
    )
    w = persistence.torsion_witness(b)
    if w is None:
        return (not expect), {"witness": None, "expected": expect}
    dim_ok = persistence.window_dim(b, w) >= 1
    avoids = _avoids_zero(w)
    details = {
        "witness": w,
        "expected": expect,
        "dim-positive": dim_ok,
        "avoids-zero": avoids,
    }
    return expect and dim_ok and avoids, details


_FUZZ_OPS: dict[str, FuzzOp] = {
    op.name: op
    for op in (
        FuzzOp("tate-free-vanishing", _gen_tate_free, _check_tate_free, _free_orbit_size(_tate_free_orbits)),
        FuzzOp("quasi-frobenius", _gen_quasi_frobenius, _check_quasi_frobenius),
        FuzzOp("sigma-decomposition", _gen_sigma_decomposition, _check_sigma_decomposition, _sigma_size),
        FuzzOp("spectral-action", _gen_spectral_action, _check_spectral_action),
        FuzzOp(
            "spectral-algebraic", _gen_spectral_algebraic, _check_spectral_algebraic, _free_orbit_size(_algebraic_orbits)
        ),
        FuzzOp("barcode-roundtrip", _gen_barcode_roundtrip, _check_barcode_roundtrip),
        FuzzOp("barcode-smith", _gen_barcode_smith, _check_barcode_smith),
        FuzzOp("torsion-detector", _gen_torsion_detector, _check_torsion_detector),
    )
}


# ---------------------------------------------------------------------------
# reproducer minimization: greedy single-component deletion


def _complex_json_without(cj: dict, gid: str) -> dict:
    out = {k: v for k, v in cj.items() if k not in ("generators", "differential", "sigma")}
    out["generators"] = [g for g in cj["generators"] if g["id"] != gid]

    def strip(cm: dict) -> dict:
        return {
            s: {t: c for t, c in row.items() if t != gid}
            for s, row in cm.items()
            if s != gid
        }

    out["differential"] = strip(cj.get("differential", {}))
    if "sigma" in cj:
        out["sigma"] = strip(cj["sigma"])
    return out


def _triplets_without(trips: list, k: int) -> list:
    """The [row, col, value] triplets off row and column k, with every index
    above k shifted down by one."""
    return [[r - (r > k), c - (c > k), v] for (r, c, v) in trips if r != k and c != k]


def _model_json_without(mj: dict, gid: str) -> dict:
    # term matrices are indexed by sorted generator order, so deleting a
    # generator shifts every index above its slot down by one
    ids = sorted(g["id"] for g in mj["generators"])
    k = ids.index(gid)
    out = _complex_json_without(mj, gid)
    out["d_terms"] = [
        {
            "i": item["i"],
            "alpha": item["alpha"],
            "matrix": _triplets_without(item.get("matrix", []), k),
        }
        for item in mj.get("d_terms", [])
    ]
    return out


def _sigma_json_without(sj: dict, k: int) -> dict:
    return {**sj, "size": int(sj["size"]) - 1, "matrix": _triplets_without(sj.get("matrix", []), k)}


def _shrink_candidates(payload: dict):
    kind = payload.get("kind")
    if kind in ("complex", "windowed_complex"):
        windows = payload.get("windows", [])
        for i in range(len(windows)):
            yield {**payload, "windows": windows[:i] + windows[i + 1 :]}
        for g in payload["complex"]["generators"]:
            yield {**payload, "complex": _complex_json_without(payload["complex"], g["id"])}
    elif kind == "model":
        mj = payload["model"]
        terms = mj.get("d_terms", [])
        for i in range(len(terms)):
            yield {**payload, "model": {**mj, "d_terms": terms[:i] + terms[i + 1 :]}}
        for gid in sorted(g["id"] for g in mj["generators"]):
            yield {**payload, "model": _model_json_without(mj, gid)}
    elif kind == "sigma":
        if "expected" in payload:
            yield {k: v for k, v in payload.items() if k != "expected"}
        for k in range(int(payload["sigma"].get("size", 0))):
            yield {**payload, "sigma": _sigma_json_without(payload["sigma"], k)}
    elif kind in ("barcode", "barcode_pair"):
        for key in ("barcode",) if kind == "barcode" else ("single", "iterate"):
            bj = payload[key]
            bars = bj.get("bars", [])
            for i in range(len(bars)):
                yield {**payload, key: {**bj, "bars": bars[:i] + bars[i + 1 :]}}


def _minimize(check: Callable, payload: dict) -> dict:
    """Greedily delete components while the payload keeps failing check.

    Candidates that no longer decode (deleting a generator can break
    square-zero or equivariance) or that the library rejects with a
    SmithTateError count as passing and are skipped; any other exception is
    a crash of the check and propagates.
    """
    best = copy.deepcopy(payload)
    budget = 400
    improved = True
    while improved and budget > 0:
        improved = False
        for cand in _shrink_candidates(best):
            budget -= 1
            try:
                ok, _ = check(cand)
            except (SmithTateError, _BadPayload):
                ok = True
            if not ok:
                best = cand
                improved = True
                break
            if budget <= 0:
                break
    return best


def _cmd_fuzz(args):
    if args.replay is not None:
        digest, (rep,) = _read_json_files(args.replay)
        if not isinstance(rep, dict) or "op" not in rep or "payload" not in rep:
            raise MalformedInput("reproducer JSON needs 'op' and 'payload' fields")
        op = _FUZZ_OPS.get(str(rep["op"]))
        if op is None:
            raise UnknownProperty(f"unknown property {_shown(rep['op'])}")
        try:
            ok, details = op.check(rep["payload"])
        except _BadPayload as e:
            error, message = e.args
            raise error(f"bad {op.name} payload: {message}") from None
        except SmithTateError as e:
            ok, details = False, {"error": f"{type(e).__name__}: {e}"}
        results = {"mode": "replay", "op": op.name, "details": details}
        return digest, results, {"replay-passes": ok}

    if args.op is None:
        raise MalformedInput("fuzz needs --op NAME (or --replay FILE)")
    op = _FUZZ_OPS.get(args.op)
    if op is None:
        raise UnknownProperty(
            f"unknown property {args.op!r}; registered: {', '.join(sorted(_FUZZ_OPS))}"
        )
    if args.adversarial and op.name != "barcode-smith":
        raise MalformedInput("--adversarial applies only to barcode-smith")
    if args.max_gens is not None and args.max_gens < 1:
        raise MalformedInput("--max-gens must be at least 1")
    fp_core.check_prime(args.p)
    if op.size is not None:
        what, size = op.size(args.p, args)
        check_size(f"{op.name} {what}", size, MAX_FUZZ_SIZE)
    seed = args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("SMITH_TATE_SEED", "0"))
        except ValueError as e:
            raise MalformedInput("SMITH_TATE_SEED must be an integer") from e
    if args.count < 1:
        raise MalformedInput("--count must be at least 1")
    digest = _digest_params(
        "fuzz", op.name, args.p, seed, args.count, args.max_gens, args.adversarial
    )
    passed = 0
    failures = []
    for i in range(args.count):
        instance_seed = seed * 1_000_003 + i
        payload = op.generate(random.Random(instance_seed), args.p, args)
        try:
            ok, details = op.check(payload)
        except SmithTateError as e:
            ok, details = False, {"error": f"{type(e).__name__}: {e}"}
        if ok:
            passed += 1
            continue
        minimized = _minimize(op.check, payload)
        failures.append(
            {
                "index": i,
                "seed": instance_seed,
                "details": details,
                "reproducer": {
                    "op": op.name,
                    "p": args.p,
                    "seed": instance_seed,
                    "payload": minimized,
                },
            }
        )
    results = {
        "mode": "fuzz",
        "op": op.name,
        "p": args.p,
        "seed": seed,
        "count": args.count,
        "passed": passed,
        "failed": len(failures),
        "failures": failures[:_FAILURE_DISPLAY_CAP],
    }
    if failures:
        path = args.reproducer or f"reproducer-{op.name}-{failures[0]['seed']}.json"
        with open(path, "w", encoding="utf-8") as f:
            f.write(_json_text(failures[0]["reproducer"]) + "\n")
        results["reproducer-path"] = path
    return digest, results, {"all-instances-pass": not failures}

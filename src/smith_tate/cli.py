"""Command-line front end.

Loads JSON instances, runs the computations and checkers, and emits a
report: a table by default, machine-readable JSON with --json.  Every
report carries the command name, a digest of the input, a results tree,
and one pass/fail line per check; the process exits 0 when all checks
pass, 1 when one fails, and 2 on malformed input or usage errors.

Subcommands: tate, group-cohomology, quasi-frobenius, decompose,
smith-check, spectral (action|algebraic), barcode, barcode-smith,
torsion, morse-constants, fuzz.

The fuzz driver generates seeded random instances for a registered
property, checks each, and on failure writes a minimized, self-contained
reproducer JSON that can be re-run with --replay.  Rationals cross the
JSON boundary as "num/den" strings to stay exact.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .complexes import (
    ActionWindow,
    EquivariantComplex,
    Generator,
    _coeff_map,
    _frac_str,
    _json_object,
    _rational,
    _read_json_files,
    _strict_int,
    _triplets_from_json,
    _triplets_to_json,
    complex_from_json,
    complex_to_json,
    window_truncate,
)
from .errors import (
    MalformedInput,
    SmithTateError,
    UnknownCommand,
    UnknownProperty,
    check_size,
)
from .fp_core import FpMatrix, _check_matrix_prime, check_prime, fixed_dim
from .module_decomp import decompose, smith_chain_check, tate_and_invariant_dims
from .morse_bzp import (
    enumerate_critical_points,
    local_euler_constant,
    resolution_homology,
    wilson_constant,
)
from .persistence import (
    _midpoint_probes,
    bar_stats,
    barcode_from_filtered,
    barcode_from_json,
    barcode_to_json,
    generate_iterated_barcode,
    smith_barcode_check,
    torsion_witness,
    window_dim,
)
from .random_instances import (
    adversarial_iterated_pair,
    random_barcode,
    random_chain_complex,
    random_filtered_complex,
    random_floer_model,
    random_free_equivariant,
    random_sigma_with_multiplicities,
)
from .spectral import (
    action_ss_pages,
    algebraic_ss_pages,
    model_from_json,
    model_to_json,
)
from .tate import group_cohomology_dims, quasi_frobenius, tate_cohomology_dims

_FAILURE_DISPLAY_CAP = 20
MAX_SIGMA_SIZE = 4096  # the dense size x size sigma matrix is allocated up front
MAX_FUZZ_SIZE = 512  # the size one fuzz instance may reach, FuzzOp.size


# ---------------------------------------------------------------------------
# JSON plumbing


_escape = json.encoder.encode_basestring_ascii
# the text of a JSON scalar, by exact type; subclasses take the slow branch
_SCALAR_TEXT = {
    str: _escape,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    Fraction: lambda x: _escape(_frac_str(x)),
    np.int64: lambda v: int.__repr__(int(v)),
}


def _json_text(x) -> str:
    """json.dumps(x, indent=2, sort_keys=True), byte for byte, for a results
    tree once converted to plain JSON, written in one pass into one list.

    The conversion happens as it writes: exact rationals become "num/den"
    strings, numpy integers ints, an ActionWindow its {"lower", "upper"}
    object, an array its list of rows, a tuple a list, and a tuple key its
    members joined by commas (any other key its str).
    """
    out: list[str] = []
    _write_json(x, "\n", out)
    return "".join(out)


def _write_json(x, nl: str, out: list) -> None:
    """Append the text of x, whose closing bracket goes after nl; scalar
    members are written without a call of their own."""
    text = _SCALAR_TEXT.get(type(x))
    if text is not None:
        out.append(text(x))
        return
    inner = nl + "  "
    if isinstance(x, ActionWindow):
        x = {"lower": x.lower, "upper": x.upper}
    elif isinstance(x, np.ndarray):
        x = np.atleast_2d(x).astype(np.int64).tolist()
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        sep = "{" + inner
        keys = (k if type(k) is str else ",".join(map(str, k)) if isinstance(k, tuple) else str(k) for k in x)
        for k, v in sorted(zip(keys, x.values())):
            text = _SCALAR_TEXT.get(type(v))
            if text is None:
                out.append(sep + _escape(k) + ": ")
                _write_json(v, inner, out)
            else:
                out.append(sep + _escape(k) + ": " + text(v))
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        sep = "[" + inner
        for v in x:
            text = _SCALAR_TEXT.get(type(v))
            if text is None:
                out.append(sep)
                _write_json(v, inner, out)
            else:
                out.append(sep + text(v))
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(x, str):
        out.append(_escape(x))
    elif isinstance(x, (int, np.integer)):
        out.append(int.__repr__(int(x)))
    else:
        raise TypeError(f"cannot write {type(x).__name__} as JSON")


def _digest_params(*parts) -> str:
    text = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# sigma matrix files: {"p": prime, "size": n, "matrix": [[row, col, value], ...]}


def _sigma_from_json(data) -> FpMatrix:
    data = _json_object(data, "sigma")
    if "p" not in data or "size" not in data:
        raise MalformedInput("sigma JSON needs integer fields 'p' and 'size'")
    p = _strict_int(data["p"], "'p'")
    n = _strict_int(data["size"], "'size'")
    _check_matrix_prime(p)
    if n < 0:
        raise MalformedInput("'size' must be nonnegative")
    check_size("sigma 'size'", n, MAX_SIGMA_SIZE)
    return FpMatrix(_triplets_from_json(data.get("matrix", []), n, p), p)


def _sigma_to_json(m: FpMatrix) -> dict:
    return {"p": m.p, "size": m.rows, "matrix": _triplets_to_json(m.a)}


# ---------------------------------------------------------------------------
# window bounds: --window LO:HI, or a payload's [lo, hi] pair


def _parse_bound(v):
    """None for an open side: null, or "", "*", "inf", "+inf" or "-inf" in
    any case; else the rational v."""
    if v is None or isinstance(v, str) and v.strip().lower() in ("", "*", "inf", "+inf", "-inf"):
        return None
    return _rational(v, "window bound")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (input digest, results tree, checks)


def _cmd_tate(args):
    digest, (data,) = _read_json_files(args.input)
    V = complex_from_json(data, expect="equivariant")
    even, odd = tate_cohomology_dims(V, method=args.method)
    results = {"p": V.p, "dim": V.dim(), "even": even, "odd": odd}
    return digest, results, {}


def _cmd_group_cohomology(args):
    digest, (data,) = _read_json_files(args.input)
    V = complex_from_json(data, expect="equivariant")
    dims = group_cohomology_dims(V, max_degree=args.max_degree)
    return digest, {"p": V.p, "dims": dims}, {}


def _cmd_quasi_frobenius(args):
    digest, (data,) = _read_json_files(args.input)
    V = complex_from_json(data, expect="chain")
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
    digest, (data,) = _read_json_files(args.sigma)
    s = _sigma_from_json(data)
    d = decompose(s)
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
    files, (data,) = _read_json_files(args.sigma)
    digest = _digest_params(files, "hf-dim", args.hf_dim)
    s = _sigma_from_json(data)
    rep = smith_chain_check(args.hf_dim, s)
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
    digest, (data,) = _read_json_files(args.input)
    if args.mode == "action":
        fc = complex_from_json(data, expect="filtered")
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
    digest, (data,) = _read_json_files(args.input)
    if isinstance(data, dict) and "bars" in data and "generators" not in data:
        b = barcode_from_json(data)
        source = "barcode"
    else:
        fc = complex_from_json(data, expect="filtered")
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


def _avoids_zero(w: ActionWindow) -> bool:
    """Whether the window lies on one side of action 0."""
    return (w.lower is not None and w.lower > 0) or (w.upper is not None and w.upper < 0)


def _cmd_torsion(args):
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
        "wilson": wil.value,
        "euler-sign": eu.sign.value,
        "euler-u-exponent": eu.u_exponent,
        "critical-count": len(pts),
        "critical-by-index": by_index,
        "resolution": list(res),
    }
    checks = {
        "wilson-is-minus-one": wil.value == (args.p - 1) % args.p,
        "resolution-interior-vanishes": res[0] == 1 and not any(res[1:-1]),
    }
    return digest, results, checks


# ---------------------------------------------------------------------------
# fuzz: registered properties with seeded generators and payload checkers
#
# A payload is a self-contained JSON instance tagged by "kind"; check()
# consumes only the payload, so a written reproducer replays bit-for-bit.


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
        raise _BadPayload(MalformedInput, f"payload field {key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def _decoded(payload, key: str, decode: Callable, **kwargs):
    """decode(payload[key], **kwargs) of a JSON object field."""
    try:
        return decode(_field(payload, key), **kwargs)
    except SmithTateError as e:
        raise _BadPayload(type(e), f"field {key!r}: {e}") from None


def _payload_window(pair) -> ActionWindow:
    """The window of a payload's [lo, hi] pair, bounds read like --window's."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise _BadPayload(MalformedInput, f"window must be a [lo, hi] pair, got {pair!r}")
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
    V = random_free_equivariant(p, rng, max_blocks=_tate_free_orbits(p, args))
    return {"kind": "complex", "complex": complex_to_json(V)}


def _check_tate_free(payload):
    V = _decoded(payload, "complex", complex_from_json, expect="equivariant")
    dims = tate_cohomology_dims(V)
    return dims == (0, 0), {"even": dims[0], "odd": dims[1]}


def _gen_quasi_frobenius(rng, p, args):
    V = random_chain_complex(p, rng, max_dim=args.max_gens or 6)
    return {"kind": "complex", "complex": complex_to_json(V)}


def _check_quasi_frobenius(payload):
    V = _decoded(payload, "complex", complex_from_json, expect="chain")
    res = quasi_frobenius(V)
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
    s, mults = random_sigma_with_multiplicities(p, rng, max_dim=args.max_gens or 12)
    return {"kind": "sigma", "sigma": _sigma_to_json(s), "expected": list(mults)}


def _check_sigma_decomposition(payload):
    s = _decoded(payload, "sigma", _sigma_from_json)
    expected = _field(payload, "expected", list, None)
    d = decompose(s)
    n = s.rows
    tate_total, invariant = tate_and_invariant_dims(d)
    direct_invariant = fixed_dim(s.a, s.p)
    # cross-check against the complex concentrated in degree 0: its Tate
    # cohomology must count the non-free blocks once per parity
    gens = [Generator(f"v{i}", 0) for i in range(n)]
    V = EquivariantComplex(s.p, gens, {}, _coeff_map(s.a, [g.id for g in gens]))
    direct_tate = tate_cohomology_dims(V)
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
    fc = random_filtered_complex(p, rng, max_gens=args.max_gens or 15)
    return {"kind": "complex", "complex": complex_to_json(fc)}


def _check_spectral_action(payload):
    fc = _decoded(payload, "complex", complex_from_json, expect="filtered")
    pages = action_ss_pages(fc)
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
    model = random_floer_model(p, rng, **kwargs)
    return {"kind": "model", "model": model_to_json(model)}


def _check_spectral_algebraic(payload):
    model = _decoded(payload, "model", model_from_json)
    pages = algebraic_ss_pages(model)
    direct = tate_cohomology_dims(model.base)
    ok = pages.tate_bound_holds and tuple(pages.einf_dims) == direct
    details = {
        "e2": list(pages.e2_dims),
        "einf": list(pages.einf_dims),
        "direct-tate": list(direct),
        "bound-holds": pages.tate_bound_holds,
    }
    return ok, details


def _gen_barcode_roundtrip(rng, p, args):
    fc = random_filtered_complex(p, rng, max_gens=args.max_gens or 12)
    probes = _midpoint_probes(fc.actions())
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
    return {"kind": "windowed_complex", "complex": complex_to_json(fc), "windows": windows}


def _check_barcode_roundtrip(payload):
    fc = _decoded(payload, "complex", complex_from_json, expect="filtered")
    windows = [(pair, _payload_window(pair)) for pair in _field(payload, "windows", list, [])]
    b = barcode_from_filtered(fc)
    failures = []
    for pair, w in windows:
        got = window_dim(b, w)
        want = sum(window_truncate(fc, w).homology_dims().values())
        if got != want:
            failures.append({"window": pair, "barcode": got, "homology": want})
    return not failures, {"bars": len(b.bars), "failures": failures}


def _gen_barcode_smith(rng, p, args):
    if args.adversarial:
        b1 = random_barcode(p, rng, max_bars=args.max_gens or 8)
        for _ in range(1000):
            if any(bar.finite for bar in b1.bars):
                break
            b1 = random_barcode(p, rng, max_bars=args.max_gens or 8)
        _, bp = adversarial_iterated_pair(b1, p, rng)
        adversarial = True
    else:
        b1 = random_barcode(p, rng, max_bars=args.max_gens or 8)
        bp = generate_iterated_barcode(
            b1, p, extra_bars=rng.randint(0, 3), seed=rng.randrange(2**30)
        )
        adversarial = False
    return {
        "kind": "barcode_pair",
        "p": p,
        "adversarial": adversarial,
        "single": barcode_to_json(b1),
        "iterate": barcode_to_json(bp),
    }


def _check_barcode_smith(payload):
    b1, bp = (_decoded(payload, key, barcode_from_json) for key in ("single", "iterate"))
    adversarial = _field(payload, "adversarial", bool, False)
    rep = smith_barcode_check(b1, bp, _field(payload, "p", int, b1.p))
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
        b = random_barcode(p, rng, max_bars=max_bars, normalized=True)
    elif mode == 1:
        b = random_barcode(p, rng, max_bars=max_bars, distinct_infinite=True)
    elif mode == 2:
        b = random_barcode(p, rng, max_bars=max_bars, allow_finite=False)
    else:
        b = random_barcode(p, rng, max_bars=max_bars)
    return {"kind": "barcode", "barcode": barcode_to_json(b)}


def _check_torsion_detector(payload):
    b = _decoded(payload, "barcode", barcode_from_json)
    if not b.bars:
        return True, {"empty": True}
    st = bar_stats(b)
    expect = any(bar.finite for bar in b.bars) or (
        st.c_plus is not None and st.c_plus > st.c_minus
    )
    w = torsion_witness(b)
    if w is None:
        return (not expect), {"witness": None, "expected": expect}
    dim_ok = window_dim(b, w) >= 1
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
            raise UnknownProperty(f"unknown property {rep['op']!r}")
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
    check_prime(args.p)
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
    print(f"command: {report['command']}")
    print(f"input:   sha256:{report['input_sha256']}")
    print("results:")
    _print_tree(json.loads(_json_text(report["results"])), "  ")
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
    except (SmithTateError, ValueError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "input_sha256": digest,
        "results": results,
        "checks": dict(checks),
        "ok": all(checks.values()),
        "timing_ms": int((time.perf_counter() - t0) * 1000),
    }
    _emit(report, args.json)
    return 0 if report["ok"] else 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

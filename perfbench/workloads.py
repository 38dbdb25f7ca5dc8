"""Seed-generated op lists for the three benchmark workloads.

Each workload is a fixed list of CLI invocations.  The seed picks the
random instances; the list's shape (which commands, how many, at which
sizes) does not depend on it, so the work per pass stays comparable
across seeds.  Inputs whose cost depends strongly on their structure (the
large tensor powers, the planted filtered complexes, the iterate pairs)
fix that structure per op slot and leave only coefficients, offsets,
endpoints and basis changes to the seed.

An op carries its expected exit code and, through ``want``, the values an
independent route says its report must contain.  ``want`` is computed in
set-up, outside the timed loop.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from smith_tate.complexes import (
    ActionWindow,
    ChainComplex,
    Generator,
    complex_to_json,
    tensor_power,
    window_truncate,
)
from smith_tate.persistence import Bar, Barcode, barcode_to_json, generate_iterated_barcode
from smith_tate.random_instances import (
    adversarial_iterated_pair,
    planted_filtered_complex,
    random_barcode,
    random_chain_complex,
    random_equivariant_filtered,
    random_filtered_complex,
    random_floer_model,
    random_free_equivariant,
    random_sigma_with_multiplicities,
)
from smith_tate.spectral import model_to_json
from smith_tate.tate import tate_cohomology_dims

@dataclass
class Op:
    """One CLI invocation.  ``@name`` tokens in argv are replaced by the
    path of ``files[name]`` once the files are written."""

    id: str
    argv: list[str]
    files: dict[str, bytes] = field(default_factory=dict)
    exit_code: int = 0
    want: Callable[[], dict] = dict  # report path -> expected value
    tiny: bool = False


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def input_set_sha256(ops: list[Op]) -> str:
    """Digest of everything the program receives: argv and file bytes."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.id, op.argv, op.exit_code]).encode("utf-8"))
        for name in sorted(op.files):
            h.update(name.encode("utf-8") + b"\0" + op.files[name] + b"\0")
    return h.hexdigest()


def _homology_total(cx) -> int:
    return sum(cx.homology_dims().values())


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# structured instances


def graded_base(p: int, degrees: list[int], pairs: list[tuple[int, int]], rng) -> ChainComplex:
    """A complex with the given degree pattern (shifted by a random even
    amount) and one matched pair per entry of ``pairs``, with random
    nonzero coefficients, conjugated by a random degree-preserving
    unipotent change of basis.  Homology dimension and the parity pattern,
    which set the cost of the Tate computation on its tensor power, are
    fixed by the arguments."""
    n = len(degrees)
    shift = 2 * rng.randint(-1, 1)
    degs = [d + shift for d in degrees]
    d = np.zeros((n, n), dtype=np.int64)
    for src, tgt in pairs:
        assert degs[tgt] == degs[src] + 1
        d[tgt, src] = 1 + rng.randrange(p - 1)
    e = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if degs[i] == degs[j]:
                e[i, j] = rng.randrange(p)
    pm = (np.eye(n, dtype=np.int64) + e) % p
    inv = np.eye(n, dtype=np.int64)
    term = np.eye(n, dtype=np.int64)
    for _ in range(n):
        term = (-term @ e) % p
        inv = (inv + term) % p
    dc = (pm @ d @ inv) % p
    gens = [Generator(f"x{i}", degs[i], 0) for i in range(n)]
    diff = {
        f"x{c}": {f"x{r}": int(dc[r, c]) for r in np.nonzero(dc[:, c])[0]}
        for c in range(n)
        if dc[:, c].any()
    }
    return ChainComplex(p, gens, diff)


def _levels(rng, count: int) -> list[Fraction]:
    vals: set[Fraction] = set()
    while len(vals) < count:
        vals.add(Fraction(rng.randint(-40, 80), rng.choice((1, 2, 4))))
    return sorted(vals)


def planted_complex(p: int, finite: int, infinite: int, levels: int, rng, shape):
    """Planted filtered complex with exactly ``finite`` mult-1 finite bars
    and ``infinite`` infinite bars, endpoints drawn from ``levels``
    distinct action values.  ``shape`` picks which of the sorted levels
    each endpoint takes, which sets the pages and the cost; ``rng`` picks
    the level values, coefficients and basis change."""
    pool = _levels(rng, levels)
    bars = []
    for _ in range(finite):
        i, j = sorted(shape.sample(range(levels), 2))
        bars.append((pool[i], pool[j], 1))
    starts = [pool[shape.randrange(levels)] for _ in range(infinite)]
    return planted_filtered_complex(p, bars, starts, rng)


def sized_barcode(p: int, finite: int, infinite: int, rng, shape=None) -> Barcode:
    """A barcode with exactly the given bar counts and pairwise distinct
    endpoints, so the number of probe points of an iterate comparison is
    fixed by the counts.  Multiplicities come from ``shape`` when given,
    else from ``rng``."""
    mult = shape or rng
    grid = rng.sample(range(-480, 480), 2 * finite + infinite)
    ends = [Fraction(k, 12) for k in grid]
    bars = [Bar(*sorted(ends[2 * i: 2 * i + 2]), mult.randint(1, 3)) for i in range(finite)]
    bars += [Bar(e, None, mult.randint(1, 3)) for e in ends[2 * finite:]]
    return Barcode(p, bars)


def sized_equivariant(p: int, dims: tuple[int, int], rng, make=random_equivariant_filtered, **kwargs):
    """``make(p, rng, **kwargs)`` for the first sub-seed whose
    ``random_equivariant_filtered`` base has a dimension within ``dims``;
    Tate and page costs grow steeply with that dimension."""
    while True:
        sub = random.Random(rng.randrange(2**32))
        probe = random.Random()
        probe.setstate(sub.getstate())
        if dims[0] <= random_equivariant_filtered(p, probe, **kwargs).dim() <= dims[1]:
            out = make(p, sub, **kwargs)
            base = getattr(out, "base", out)
            if dims[0] <= base.dim() <= dims[1]:
                return out


def with_dim(make, dims: tuple[int, int], rng):
    """``make(sub_rng)`` for the first sub-seed whose result (or its base)
    has a dimension within ``dims``."""
    while True:
        out = make(random.Random(rng.randrange(2**32)))
        if dims[0] <= getattr(out, "base", out).dim() <= dims[1]:
            return out


def _generic_window(cx, rng) -> ActionWindow:
    """A bounded window whose ends avoid every action value of cx."""
    acts = cx.actions()
    mids = [(lo + hi) / 2 for lo, hi in zip(acts, acts[1:])]
    lo, hi = sorted(rng.sample(mids, 2))
    return ActionWindow(lo, hi)


# ---------------------------------------------------------------------------
# op constructors


def _tate_tensor(oid, p, degrees, pairs, rng, *, method=None, group=False, tiny=False) -> Op:
    V = graded_base(p, degrees, pairs, rng)
    T = tensor_power(V)
    files = {"in": _dump(complex_to_json(T))}
    if group:
        return Op(oid, ["group-cohomology", "--input", "@in"], files, tiny=tiny)
    argv = ["tate", "--input", "@in"] + (["--method", method] if method else [])

    def want():
        h = _homology_total(V)
        return {"results.even": h, "results.odd": h, "results.dim": T.dim()}

    return Op(oid, argv, files, want=want, tiny=tiny)


def _spectral_algebraic(oid, model, tiny=False) -> Op:
    def want():
        return {"results.einf": list(tate_cohomology_dims(model.base)), "ok": True}

    return Op(oid, ["spectral", "algebraic", "--input", "@in"], {"in": _dump(model_to_json(model))}, want=want, tiny=tiny)


def _quasi_frobenius(oid, rng, tiny=False) -> Op:
    V = random_chain_complex(3, rng, max_dim=6)
    return Op(oid, ["quasi-frobenius", "--input", "@in"], {"in": _dump(complex_to_json(V))},
              want=lambda: {"ok": True}, tiny=tiny)


def _morse(oid, rng, tiny=False) -> Op:
    argv = ["morse-constants", "-p", str(rng.choice((3, 5, 7, 11))), "--n", str(rng.randint(1, 4)),
            "--levels", str(rng.randint(1, 3)), "--length", str(rng.randint(4, 8))]
    return Op(oid, argv, want=lambda: {"ok": True}, tiny=tiny)


def _barcode_smith(oid, b1: Barcode, bp: Barcode, adversarial: bool, tiny=False) -> Op:
    files = {"single": _dump(barcode_to_json(b1)), "iterate": _dump(barcode_to_json(bp))}
    argv = ["barcode-smith", "--single", "@single", "--iterate", "@iterate"]
    if adversarial:
        return Op(oid, argv, files, exit_code=1, want=lambda: {"ok": False}, tiny=tiny)
    return Op(oid, argv, files, want=lambda: {"ok": True}, tiny=tiny)


# (p, degree pattern, matched pairs) per tensor-power slot; n = len(pattern)^p
_TENSOR_SLOTS = {
    27: [(3, [0, 1, 2], [(0, 1)]), (3, [0, 0, 1], [(1, 2)]), (3, [-1, 0, 2], []),
         (3, [0, 1, 1], [(0, 1)]), (3, [0, 2, 3], [(1, 2)]), (3, [0, 1, 3], [(0, 1)])],
    36: [(2, [0, 1, 1, 2, 3, 3], [(0, 1), (3, 4)]), (2, [0, 0, 1, 2, 2, 3], [(1, 2)]),
         (2, [0, 1, 2, 2, 3, 4], [(0, 1), (3, 4)]), (2, [-1, 0, 0, 1, 1, 2], [(2, 3)])],
    49: [(2, [0, 1, 1, 2, 2, 3, 4], [(0, 1), (4, 5)])],
    64: [(3, [0, 1, 1, 3], [(0, 1)])],
}


# Generator-count bands of the random equivariant inputs.  Their cost
# still moves with the seed, so they are kept cheaper than every
# tensor-power op, whose cost the seed does not move.  With 40 ops, 26 of
# them tensor powers, the median op falls among tensor powers of nearly
# equal cost, and so does the tail op (the 75th percentile, 11th from the
# top).
#
# No op takes over about 0.25 s, so that a pass is short and each op gets
# a few dozen repetitions in a run.
_EQF_DIMS = [(8, 10), (10, 12)]
_MODEL_DIMS = (5, 8)


def tate_large(seed: int) -> list[Op]:
    ops: list[Op] = []

    def rng(oid):
        return random.Random(f"tate-large:{seed}:{oid}")

    # first op: also the cold-start op, so keep it small
    for n in (27, 36, 49, 64):
        for k, (p, degs, pairs) in enumerate(_TENSOR_SLOTS[n]):
            oid = f"tate-tp{n}-{k}"
            ops.append(_tate_tensor(oid, p, degs, pairs, rng(oid), tiny=(n == 27 and k == 0)))
            oid = f"group-tp{n}-{k}"
            ops.append(_tate_tensor(oid, p, degs, pairs, rng(oid), group=True, tiny=(n == 27 and k == 0)))
    for k, (p, degs, pairs) in enumerate(_TENSOR_SLOTS[27][:2]):
        oid = f"tate-bareiss-tp27-{k}"
        ops.append(_tate_tensor(oid, p, degs, pairs, rng(oid), method="bareiss", tiny=(k == 0)))
    for k in range(5):
        oid = f"tate-eqf-{k}"
        V = sized_equivariant((5, 7)[k % 2], _EQF_DIMS[k // 2 % 2], rng(oid), max_orbits=6, max_trivial=8)
        ops.append(Op(oid, ["tate", "--input", "@in"], {"in": _dump(complex_to_json(V))}, tiny=(k == 0)))
    for k in range(5):
        oid = f"algebraic-{k}"
        model = sized_equivariant((5, 7)[k % 2], _MODEL_DIMS, rng(oid), make=random_floer_model,
                                  max_orbits=4, max_trivial=6)
        ops.append(_spectral_algebraic(oid, model, tiny=(k == 0)))
    # the quasi-Frobenius map and the Morse constants, so that every layer
    # is timed by a workload with a bound
    for k in range(2):
        ops.append(_quasi_frobenius(f"quasi-frobenius-{k}", rng(f"quasi-frobenius-{k}"), tiny=(k == 0)))
        ops.append(_morse(f"morse-{k}", rng(f"morse-{k}"), tiny=(k == 0)))
    return ops


# (finite bars, infinite bars) -> 2 * finite + infinite generators
_BARCODE_SLOTS = [(70, 10), (90, 20), (120, 10), (140, 20)]
# (finite bars, infinite bars, distinct levels) for the action spectral sequence
_SPECTRAL_SLOTS = [(8, 4, 8), (11, 4, 8), (14, 4, 9)]
# (finite, infinite) bars of the single barcode in an iterate comparison.
# Both lists keep each op under about 0.25 s; see _EQF_DIMS.  The sizes
# span enough range for the scaling exponents of the traced run.
_SMITH_SLOTS = [(5, 4), (6, 4)]


def filtered_large(seed: int) -> list[Op]:
    ops: list[Op] = []

    def rng(oid):
        return random.Random(f"filtered-large:{seed}:{oid}")

    def shape(oid):
        return random.Random(f"filtered-large:shape:{oid}")

    for k, (fin, inf) in enumerate(_BARCODE_SLOTS):
        for windowed, rep in ((False, 0), (True, 0), (False, 1), (True, 1)):
            oid = f"barcode-{2 * fin + inf}{'-window' if windowed else ''}-{rep}"
            r = rng(oid)
            fc, planted = planted_complex(3, fin, inf, 40, r, shape(oid))
            argv = ["barcode", "--input", "@in"]
            counts = {
                "results.finite-count": sum(b.multiplicity for b in planted.bars if b.finite),
                "results.infinite-count": sum(b.multiplicity for b in planted.bars if not b.finite),
            }
            if windowed:
                w = _generic_window(fc, r)
                argv.append(f"--window={_frac(w.lower)}:{_frac(w.upper)}")

                def want(fc=fc, w=w, counts=counts):
                    return {**counts, "results.window-dim": _homology_total(window_truncate(fc, w))}
            else:
                def want(counts=counts):
                    return counts
            ops.append(Op(oid, argv, {"in": _dump(complex_to_json(fc))}, want=want, tiny=(k == 0 and rep == 0)))
    for k, (fin, inf, lev) in enumerate(_SPECTRAL_SLOTS):
        oid = f"action-{2 * fin + inf}-{lev}"
        fc, _ = planted_complex(3, fin, inf, lev, rng(oid), shape(oid))
        ops.append(Op(oid, ["spectral", "action", "--input", "@in"], {"in": _dump(complex_to_json(fc))},
                      want=lambda: {"checks.converges": True}, tiny=(k == 0)))
    for k, (fin, inf) in enumerate(_SMITH_SLOTS):
        for adversarial in (False, True):
            oid = f"smith-{fin + inf}{'-tampered' if adversarial else ''}"
            r = rng(oid)
            b1 = sized_barcode(3, fin, inf, r, shape(oid))
            if adversarial:
                _, bp = adversarial_iterated_pair(b1, 3, r)
            else:
                bp = generate_iterated_barcode(b1, 3, extra_bars=3, seed=r.randrange(2**30))
            ops.append(_barcode_smith(oid, b1, bp, adversarial, tiny=(k == 0)))
    for k in range(18):
        oid = f"torsion-{k}"
        b = sized_barcode(3, 6 + k % 4, 2 + k % 3, rng(oid))
        ops.append(Op(oid, ["torsion", "--input", "@in"], {"in": _dump(barcode_to_json(b))},
                      want=lambda: {"ok": True}, tiny=(k == 0)))
    return ops


_FUZZ_PROPERTIES = (
    "tate-free-vanishing",
    "quasi-frobenius",
    "sigma-decomposition",
    "spectral-action",
    "spectral-algebraic",
    "barcode-roundtrip",
    "barcode-smith",
    "torsion-detector",
)


# Size bands of the heavier tiny ops (fuzz default sizes reach 15
# generators and 8 bars).  Their cost grows steeply with size, and the
# 95th-percentile op would otherwise be whichever instance the seed made
# largest.
_SMALL_ACTION_DIMS = (6, 9)
_SMALL_MODEL_DIMS = (4, 8)
_SMALL_SMITH_BARS = (3, 2)  # finite, infinite; the iterate gets 2 extra bars


def cli_small(seed: int) -> list[Op]:
    ops: list[Op] = []

    def rng(oid):
        return random.Random(f"cli-small:{seed}:{oid}")

    def add(oid, argv, files=None, exit_code=0, want=None, tiny=False):
        ops.append(Op(oid, argv, files or {}, exit_code, want or (lambda: {"ok": exit_code == 0}), tiny))

    for k in range(34):
        tiny = k == 0
        p = 3
        r = rng(f"tate-{k}")
        V = random_free_equivariant(p, r)
        add(f"tate-free-{k}", ["tate", "--input", "@in"], {"in": _dump(complex_to_json(V))},
            want=lambda: {"results.even": 0, "results.odd": 0}, tiny=tiny)
        V = random_equivariant_filtered(p, rng(f"group-{k}"))
        add(f"group-{k}", ["group-cohomology", "--input", "@in"], {"in": _dump(complex_to_json(V))}, tiny=tiny)
        ops.append(_quasi_frobenius(f"quasi-frobenius-{k}", rng(f"qf-{k}"), tiny=tiny))
        s, mults = random_sigma_with_multiplicities(p, rng(f"decompose-{k}"))
        sig = {"sigma": _dump(_sigma_json(s))}
        add(f"decompose-{k}", ["decompose", "--sigma", "@sigma"], sig,
            want=lambda mults=mults: {"results.multiplicities": list(mults)}, tiny=tiny)
        r = rng(f"smith-check-{k}")
        s, mults = random_sigma_with_multiplicities(p, r)
        hf = r.randint(0, sum(mults[:-1]))
        add(f"smith-check-{k}", ["smith-check", "--hf-dim", str(hf), "--sigma", "@sigma"],
            {"sigma": _dump(_sigma_json(s))}, tiny=tiny)
        fc = with_dim(lambda r: random_filtered_complex(p, r, max_gens=15), _SMALL_ACTION_DIMS, rng(f"action-{k}"))
        add(f"action-{k}", ["spectral", "action", "--input", "@in"], {"in": _dump(complex_to_json(fc))}, tiny=tiny)
        model = with_dim(lambda r: random_floer_model(p, r), _SMALL_MODEL_DIMS, rng(f"algebraic-{k}"))
        ops.append(_spectral_algebraic(f"algebraic-{k}", model, tiny=tiny))
        r = rng(f"barcode-{k}")
        fc = random_filtered_complex(p, r, max_gens=12)
        while len(fc.actions()) < 3:
            fc = random_filtered_complex(p, r, max_gens=12)
        w = _generic_window(fc, r)

        def want(fc=fc, w=w):
            return {"results.window-dim": _homology_total(window_truncate(fc, w))}

        add(f"barcode-window-{k}", ["barcode", "--input", "@in", f"--window={_frac(w.lower)}:{_frac(w.upper)}"],
            {"in": _dump(complex_to_json(fc))}, want=want, tiny=tiny)
        b = random_barcode(p, rng(f"barcode-json-{k}"))
        add(f"barcode-json-{k}", ["barcode", "--input", "@in"], {"in": _dump(barcode_to_json(b))}, tiny=tiny)
        r = rng(f"smith-{k}")
        b1 = sized_barcode(p, *_SMALL_SMITH_BARS, r)
        bp = generate_iterated_barcode(b1, p, extra_bars=2, seed=r.randrange(2**30))
        ops.append(_barcode_smith(f"smith-{k}", b1, bp, False, tiny=tiny))
        b = random_barcode(p, rng(f"torsion-{k}"), distinct_infinite=True)
        add(f"torsion-{k}", ["torsion", "--input", "@in"], {"in": _dump(barcode_to_json(b))}, tiny=tiny)
        ops.append(_morse(f"morse-{k}", rng(f"morse-{k}"), tiny=tiny))
    base_seed = random.Random(f"cli-small:{seed}:fuzz").randrange(10**6)
    for i, prop in enumerate(_FUZZ_PROPERTIES):
        add(f"fuzz-{prop}", ["fuzz", "--op", prop, "--count", "3", "--seed", str(base_seed + i),
                             "--reproducer", "@reproducer"], want=lambda: {"checks.all-instances-pass": True},
            tiny=(i == 0))
    add("fuzz-barcode-smith-adversarial", ["fuzz", "--op", "barcode-smith", "--adversarial", "--count", "3",
                                           "--seed", str(base_seed), "--reproducer", "@reproducer"],
        want=lambda: {"checks.all-instances-pass": True})
    # a reproducer whose iterate lost a bar: replay must keep failing
    r = rng("replay")
    b1 = sized_barcode(3, 4, 2, r)
    _, bp = adversarial_iterated_pair(b1, 3, r)
    rep = {"op": "barcode-smith", "p": 3, "seed": 0,
           "payload": {"kind": "barcode_pair", "p": 3, "adversarial": False,
                       "single": barcode_to_json(b1), "iterate": barcode_to_json(bp)}}
    add("fuzz-replay-tampered", ["fuzz", "--replay", "@rep"], {"rep": _dump(rep)}, exit_code=1,
        want=lambda: {"checks.replay-passes": False}, tiny=True)
    # malformed inputs: typed errors, exit 2
    r = rng("malformed")
    V = graded_base(3, [0, 1, 2], [(0, 1)], r)
    bad = complex_to_json(V)
    bad["differential"] = {"x1": {"x2": 1}, "x0": {"x1": 1}}
    add("malformed-square", ["tate", "--input", "@in"], {"in": _dump({**bad, "sigma": {}})}, exit_code=2,
        want=lambda: {"error": "InvalidComplex"}, tiny=True)
    fc = random_filtered_complex(3, r, max_gens=12)
    edge = _frac(fc.actions()[0])
    add("malformed-window", ["barcode", "--input", "@in", f"--window={edge}:inf"],
        {"in": _dump(complex_to_json(fc))}, exit_code=2, want=lambda: {"error": "SpectralEndpoint"})
    add("malformed-prime", ["morse-constants", "-p", "9"], exit_code=2, want=lambda: {"error": "NotPrime"})
    return ops


def _sigma_json(m) -> dict:
    trips = [[int(r), int(c), int(m.a[r, c])] for r, c in zip(*np.nonzero(m.a))]
    return {"p": m.p, "size": m.rows, "matrix": trips}


GENERATORS = {"tate-large": tate_large, "filtered-large": filtered_large, "cli-small": cli_small}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[Op]:
    ops = GENERATORS[workload](seed)
    ids = [op.id for op in ops]
    assert len(set(ids)) == len(ids), "op ids must be unique"
    return ops

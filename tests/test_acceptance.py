"""Full-scale verification gate: ten end-to-end scenarios at fixed seeds.

Each test drives one library guarantee over hundreds of random instances,
asserts its wall-clock budget where one applies, and prints a single
summary line.  A failure here points at a broken invariant rather than a
unit regression, so every assertion message carries the instance seed.
"""

import json
import random
import time

import numpy as np
from oracles import rank

from smith_tate.cli import dispatch
from smith_tate.complexes import ActionWindow, EquivariantComplex, Generator, _dense, _sparse, tensor_power, window_truncate
from smith_tate.fp_core import FpMatrix
from smith_tate.module_decomp import decompose, tate_and_invariant_dims
from smith_tate.morse_bzp import local_euler_constant, resolution_homology, wilson_constant
from smith_tate.persistence import (
    Bar,
    Barcode,
    bar_stats,
    barcode_from_filtered,
    barcode_to_json,
    generate_iterated_barcode,
    smith_barcode_check,
    torsion_witness,
    window_dim,
)
from smith_tate.random_instances import (
    adversarial_iterated_pair,
    random_barcode,
    random_chain_complex,
    random_filtered_complex,
    random_floer_model,
    random_free_equivariant,
    random_sigma_matrix,
    random_sigma_with_multiplicities,
)
from smith_tate.spectral import action_ss_pages, algebraic_ss_pages
from smith_tate.tate import quasi_frobenius, tate_cohomology_dims

from oracles import sigma_block

PRIMES_TO_97 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _report(label: str, detail: str) -> None:
    print(f"PASS  {label}: {detail}")


def test_criterion_01_free_complexes_have_vanishing_tate():
    t0 = time.perf_counter()
    primes = (2, 3, 5, 7)
    for i in range(500):
        p = primes[i % 4]
        cx = random_free_equivariant(p, i)
        assert cx.dim() <= 21, f"seed {i}, p={p}: instance too large"
        dims = tate_cohomology_dims(cx)
        assert dims == (0, 0), f"seed {i}, p={p}: expected vanishing, got {dims}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.2f}s"
    _report("free-tate-vanishing", f"500 instances, p in {primes}, {elapsed:.2f}s")


def test_criterion_02_quasi_frobenius_bijective_with_certificates():
    t0 = time.perf_counter()
    primes = (3, 5)
    certificates = 0
    cross_checked = 0
    for i in range(200):
        p = primes[i % 2]
        V = random_chain_complex(p, i, max_dim=6)
        res = quasi_frobenius(V, coefficient_pairs=[(1, 1), (1, 2), (2, 1)])
        n = sum(V.homology_dims().values())
        assert res.is_bijective, f"seed {i}, p={p}: induced map not bijective"
        assert res.target_parity_dims == (n, n), f"seed {i}, p={p}: {res.target_parity_dims} != ({n}, {n})"
        assert sum(res.source_parity_dims) == n, f"seed {i}, p={p}"
        for cert in res.certificates:
            assert cert.verified, f"seed {i}, p={p}: certificate ({cert.left}, {cert.right}) not verified"
            assert cert.constant_component_zero and cert.invariant, f"seed {i}, p={p}"
        certificates += len(res.certificates)
        # a few small targets recomputed from scratch through the tensor model
        if cross_checked < 3 and p == 3 and 0 < V.dim() <= 4:
            assert tate_cohomology_dims(tensor_power(V)) == res.target_parity_dims, f"seed {i}"
            cross_checked += 1
    assert certificates >= 200, f"only {certificates} additivity certificates found"
    assert cross_checked >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    _report("quasi-frobenius", f"200 instances, {certificates} certificates, {elapsed:.2f}s")


def _module_complex(sigma: FpMatrix) -> EquivariantComplex:
    """The degree-zero module with the given order-p action and no differential."""
    p = sigma.p
    n = sigma.a.shape[0]
    ids = [f"g{j}" for j in range(n)]
    gens = [Generator(gid, 0) for gid in ids]
    sdict = {ids[c]: {ids[r]: int(sigma.a[r, c]) for r in np.nonzero(sigma.a[:, c])[0]} for c in range(n)}
    return EquivariantComplex(p, gens, {}, sdict)


def test_criterion_03_multiplicity_identities():
    t0 = time.perf_counter()
    primes = (2, 3, 5, 7)
    for i in range(500):
        p = primes[i % 4]
        sigma, mults = random_sigma_with_multiplicities(p, i)
        n = sigma.a.shape[0]
        small = sum(mults[: p - 1])
        dims = tate_cohomology_dims(_module_complex(sigma))
        assert dims == (small, small), f"seed {i}, p={p}: Tate {dims} vs multiplicities {mults}"
        fixed = n - rank(FpMatrix((sigma.a - np.eye(n, dtype=np.int64)) % p, p))
        assert sum(mults) == fixed, f"seed {i}, p={p}: {mults} vs fixed-space dim {fixed}"
    elapsed = time.perf_counter() - t0
    _report("multiplicity-identities", f"500 instances, p in {primes}, {elapsed:.2f}s")


def test_criterion_04_sharpened_bound_vs_invariant_bound():
    t0 = time.perf_counter()
    primes = (2, 3, 5, 7)
    for i in range(100):
        p = primes[i % 4]
        mults = [0] * p
        mults[i % (p - 1)] = 1 + (i % 3)
        planted = random_sigma_matrix(p, tuple(mults), i)
        dec = decompose(_sparse(planted.a), p)
        assert dec.multiplicities == tuple(mults), f"seed {i}, p={p}"
        td, inv = tate_and_invariant_dims(dec)
        assert td == 2 * inv, f"seed {i}, p={p}: no free part but bounds differ ({td} vs {2 * inv})"

        mults[p - 1] = 1 + (i % 2)
        planted = random_sigma_matrix(p, tuple(mults), 1000 + i)
        dec = decompose(_sparse(planted.a), p)
        assert dec.multiplicities == tuple(mults), f"seed {i}, p={p}"
        td, inv = tate_and_invariant_dims(dec)
        assert td < 2 * inv, f"seed {i}, p={p}: free part planted but bound not sharper ({td} vs {2 * inv})"
    elapsed = time.perf_counter() - t0
    _report("sharpened-bound", f"100 paired instances, p in {primes}, {elapsed:.2f}s")


def test_criterion_05_spectral_sequences():
    t0 = time.perf_counter()
    primes = (2, 3, 5)
    for i in range(200):
        p = primes[i % 3]
        fc = random_filtered_complex(p, i, max_gens=15, max_levels=6)
        pages = action_ss_pages(fc)
        hom = fc.homology_dims()
        by_degree: dict[int, int] = {}
        for (_, k), d in pages.infinity.items():
            by_degree[k] = by_degree.get(k, 0) + d
        for k in set(hom) | set(by_degree):
            assert by_degree.get(k, 0) == hom.get(k, 0), f"seed {i}, p={p}, degree {k}"

    formula_checked = 0
    for i in range(200):
        p = primes[i % 3]
        deform = i % 2 == 0
        model = random_floer_model(p, 10_000 + i, deform=deform)
        res = algebraic_ss_pages(model)
        assert res.tate_bound_holds, f"seed {i}, p={p}: Tate dimension bound violated"
        if deform:
            continue
        base = model.base
        assert res.e1_even_dims == base.homology_dims(), f"seed {i}, p={p}"
        assert res.e1_odd_dims == base.homology_dims(), f"seed {i}, p={p}"
        for k, m10 in res.d10_induced.items():
            reps = base.homology_basis(k)
            if not reps:
                continue
            sig_k = sigma_block(base, k)
            star = np.zeros((len(reps), len(reps)), dtype=np.int64)
            for c, z in enumerate(reps):
                star[:, c] = base.express_in_homology(k, (sig_k @ z) % p)
            ident = np.eye(len(reps), dtype=np.int64)
            assert np.array_equal(_dense(m10, len(reps)) % p, (ident - star) % p), f"seed {i}, degree {k}: d10 != 1 - sigma*"
            norm = np.zeros_like(star)
            power = ident.copy()
            for _ in range(p):
                norm = (norm + power) % p
                power = (power @ star) % p
            assert np.array_equal(_dense(res.d21_induced[k], len(reps)) % p, norm), f"seed {i}, degree {k}: d21 != N(sigma*)"
            r10 = rank(FpMatrix((ident - star) % p, p))
            r21 = rank(FpMatrix(norm, p))
            expect = {"one": len(reps) - r10 - r21, "theta": len(reps) - r21 - r10}
            assert res.e2_by_degree[k] == expect, f"seed {i}, degree {k}"
            formula_checked += 1
    assert formula_checked >= 50, f"only {formula_checked} degreewise formula checks ran"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"
    _report("spectral-sequences", f"200 filtered + 200 models, {formula_checked} formula checks, {elapsed:.2f}s")


def test_criterion_06_window_dimension_counts():
    t0 = time.perf_counter()
    primes = (2, 3, 5)
    checked = 0
    for i in range(300):
        p = primes[i % 3]
        fc = random_filtered_complex(p, i, max_gens=12)
        bc = barcode_from_filtered(fc)
        levels = sorted({g.action for g in fc.generators})
        probes = [levels[0] - 1] + [(a + b) / 2 for a, b in zip(levels, levels[1:])] + [levels[-1] + 1]
        rng = random.Random(9000 + i)
        for _ in range(20):
            kind = rng.randrange(4)
            if kind == 0:
                lo, hi = sorted(rng.sample(range(len(probes)), 2))
                w = ActionWindow(probes[lo], probes[hi])
            elif kind == 1:
                w = ActionWindow(None, rng.choice(probes))
            elif kind == 2:
                w = ActionWindow(rng.choice(probes), None)
            else:
                w = ActionWindow(None, None)
            direct = sum(window_truncate(fc, w).homology_dims().values())
            assert window_dim(bc, w) == direct, f"seed {i}, p={p}, window {w}"
            checked += 1
    assert checked == 6000
    elapsed = time.perf_counter() - t0
    _report("window-dimensions", f"300 complexes x 20 windows, {elapsed:.2f}s")


def test_criterion_07_iterate_certification():
    t0 = time.perf_counter()
    primes = (2, 3, 5, 7)
    for i in range(1000):
        p = primes[i % 4]
        b1 = random_barcode(p, i)
        bp = generate_iterated_barcode(b1, p, extra_bars=i % 3, seed=i)
        rep = smith_barcode_check(b1, bp, p)
        assert rep.ok, f"seed {i}, p={p}: generated iterate rejected"
    for i in range(100):
        p = primes[i % 4]
        b1 = None
        for attempt in range(50):
            cand = random_barcode(p, 20_000 + 100 * i + attempt)
            if any(bar.end is not None for bar in cand.bars):
                b1 = cand
                break
        assert b1 is not None, f"no finite bar found near seed block {i}"
        _, bad = adversarial_iterated_pair(b1, p, i)
        rep = smith_barcode_check(b1, bad, p)
        assert not rep.ok, f"seed {i}, p={p}: tampered iterate accepted"
        violations = len(rep.m_failures) + len(rep.window_failures)
        violations += (not rep.beta_direct_ok) + (not rep.beta_integral_ok)
        assert violations >= 1, f"seed {i}, p={p}: rejection without a flagged violation"
    elapsed = time.perf_counter() - t0
    _report("iterate-certification", f"1000 valid + 100 adversarial pairs, {elapsed:.2f}s")


def test_criterion_08_torsion_witnesses():
    t0 = time.perf_counter()
    primes = (2, 3, 5, 7)
    for i in range(100):
        p = primes[i % 4]
        b = random_barcode(p, i, normalized=True)
        assert torsion_witness(b) is None, f"seed {i}, p={p}: witness on an identity-normalized barcode"
    for i in range(100):
        p = primes[i % 4]
        b = random_barcode(p, 30_000 + i, distinct_infinite=True)
        stats = bar_stats(b)
        assert stats.c_plus > stats.c_minus, f"seed {i}, p={p}: generator broke its contract"
        w = torsion_witness(b)
        assert w is not None, f"seed {i}, p={p}: no witness despite distinct infinite starts"
        assert window_dim(b, w) >= 1, f"seed {i}, p={p}: witness window {w} is empty"
        away = (w.lower is not None and w.lower > 0) or (w.upper is not None and w.upper < 0)
        assert away, f"seed {i}, p={p}: witness closure touches 0: {w}"
    elapsed = time.perf_counter() - t0
    _report("torsion-witnesses", f"100 normalized + 100 separated barcodes, {elapsed:.2f}s")


def test_criterion_09_constants():
    t0 = time.perf_counter()
    for p in PRIMES_TO_97:
        assert wilson_constant(p) == p - 1, f"p={p}"
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for n in range(21):
            c = local_euler_constant(n, p)
            assert c.sign == pow(p - 1, n, p) == (-1) ** n % p, f"n={n}, p={p}"
            assert c.u_exponent == n * (p - 1), f"n={n}, p={p}"
    for p in (2, 3, 5, 7):
        res = resolution_homology(p, 10)
        assert len(res) == 10, f"p={p}"
        assert res[0] == 1, f"p={p}: leading dimension {res[0]}"
        # the final slot is a truncation artifact of the finite resolution
        assert all(v == 0 for v in res[1:-1]), f"p={p}: interior dimensions {res}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.3f}s"
    _report("morse-constants", f"wilson to 97, euler n<=20 p<=31, resolutions, {elapsed:.3f}s")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()

    def run_json(argv):
        code = dispatch(argv + ["--json"])
        out = capsys.readouterr().out
        return code, json.loads(out)

    # a tampered pair written as a replay reproducer must fail, every time
    b1 = Barcode(3, [Bar(0, 1), Bar("1/2", None)])
    _, bad = adversarial_iterated_pair(b1, 3, 4)
    repro = {
        "op": "barcode-smith",
        "p": 3,
        "seed": 0,
        "payload": {"kind": "barcode_pair", "p": 3, "single": barcode_to_json(b1), "iterate": barcode_to_json(bad)},
    }
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(repro))
    replay_reports = []
    for _ in range(2):
        code, report = run_json(["fuzz", "--replay", str(path)])
        assert code == 1, "tampered reproducer must re-fail on replay"
        assert report["checks"] == {"replay-passes": False}
        report.pop("timing_ms")
        replay_reports.append(report)
    assert replay_reports[0] == replay_reports[1]

    # identical seeds give identical reports, byte for byte outside timing
    for op, count in (("barcode-smith", 25), ("spectral-algebraic", 10), ("tate-free-vanishing", 15)):
        raw = []
        for _ in range(2):
            code, report = run_json(["fuzz", "--op", op, "--count", str(count), "--seed", "123"])
            assert code == 0, f"op {op} unexpectedly failed"
            assert isinstance(report.pop("timing_ms"), (int, float))
            raw.append(json.dumps(report, sort_keys=True))
        assert raw[0] == raw[1], f"op {op}: same seed produced different reports"
    elapsed = time.perf_counter() - t0
    _report("cli-determinism", f"replay re-fails twice, 3 ops seed-stable, {elapsed:.2f}s")

"""Barcodes: extraction, window counts, iterate comparison, torsion windows."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smith_tate.persistence as persistence
from smith_tate.cli import dispatch
from smith_tate.complexes import ActionWindow, ChainComplex, FilteredComplex, Generator, _frac_str, complex_from_json
from smith_tate.errors import (
    EmptyBarcode,
    FiltrationViolation,
    InadmissibleWindow,
    MalformedInput,
    SpectralEndpoint,
)
from smith_tate.persistence import (
    Bar,
    Barcode,
    bar_stats,
    barcode_from_filtered,
    barcode_from_json,
    barcode_to_json,
    generate_iterated_barcode,
    persistence_pairing,
    scale_barcode,
    smith_barcode_check,
    torsion_witness,
    window_dim,
)
from smith_tate.random_instances import (
    adversarial_iterated_pair,
    planted_filtered_complex,
    random_barcode,
    random_filtered_complex,
)

from oracles import (
    action_violations_by_fractions,
    bar_stats_by_fractions,
    barcode_from_json_by_fractions,
    barcode_from_filtered_by_fractions,
    canonical_bars_by_fractions,
    filtration_order_by_fractions,
    finite_bar_count_at,
    integrate_finite_count_by_regions,
    midpoint_probes_by_fractions,
    persistence_pairing_dense,
    smith_barcode_check_per_window,
    torsion_witness_by_fractions,
    window_dim_by_fractions,
)


def spans(b):
    return [(bar.start, bar.end, bar.multiplicity) for bar in b.bars]


class TestBar:
    def test_orientation_enforced(self):
        with pytest.raises(MalformedInput):
            Bar(1, 1)
        with pytest.raises(MalformedInput):
            Bar(2, 1)

    def test_multiplicity_must_be_positive_int(self):
        with pytest.raises(MalformedInput):
            Bar(0, 1, 0)
        with pytest.raises(MalformedInput):
            Bar(0, 1, -2)
        with pytest.raises(MalformedInput):
            Bar(0, 1, True)
        with pytest.raises(MalformedInput):
            Bar(0, 1, 1.5)

    def test_endpoints_coerced(self):
        bar = Bar("1/2", 2)
        assert bar.start == Fraction(1, 2)
        assert bar.finite and bar.length() == Fraction(3, 2)
        assert not Bar(0, None).finite

    def test_half_open_containment(self):
        bar = Bar(0, 2)
        assert not bar.contains(Fraction(0))
        assert bar.contains(Fraction(2))
        inf = Bar(1, None)
        assert inf.contains(Fraction(100))
        assert not inf.contains(Fraction(1))


class TestBarcode:
    def test_merge_and_sort(self):
        b = Barcode(3, [Bar(1, None, 2), Bar(0, 2), Bar(0, 2)])
        assert spans(b) == [(Fraction(0), Fraction(2), 2), (Fraction(1), None, 2)]

    def test_equality_is_canonical(self):
        assert Barcode(3, [Bar(0, 1), Bar(0, 1)]) == Barcode(3, [Bar(0, 1, 2)])
        assert Barcode(3, []) != Barcode(5, [])


class TestBarcodeFromFiltered:
    def test_cancelling_pair(self):
        fc = FilteredComplex(3, [Generator("a", 0, 1), Generator("b", 1, 0)], {"a": {"b": 1}})
        assert spans(barcode_from_filtered(fc)) == [(Fraction(0), Fraction(1), 1)]

    def test_no_differential_gives_infinite_bars(self):
        fc = FilteredComplex(
            3,
            [Generator("x", 0, 0), Generator("y", 1, 1), Generator("z", 0, 2)],
            {},
        )
        assert spans(barcode_from_filtered(fc)) == [
            (Fraction(0), None, 1),
            (Fraction(1), None, 1),
            (Fraction(2), None, 1),
        ]

    def test_planted_barcode_recovered(self):
        fc, planted = planted_filtered_complex(3, [(0, 2, 1)], [Fraction(1)], 7)
        assert barcode_from_filtered(fc) == planted

    def test_rejects_non_filtered(self):
        from smith_tate.complexes import ChainComplex

        cx = ChainComplex(3, [Generator("a", 0, 0), Generator("b", 1, 0)], {"a": {"b": 1}})
        with pytest.raises(FiltrationViolation):
            barcode_from_filtered(cx)


class TestWindowDim:
    def setup_method(self):
        self.b = Barcode(3, [Bar(0, 2), Bar(1, None)])

    def test_bounded_window(self):
        assert window_dim(self.b, ActionWindow(Fraction(1, 2), Fraction(3, 2))) == 1

    def test_right_open_window(self):
        assert window_dim(self.b, ActionWindow(Fraction(3, 2), None)) == 1

    def test_empty_region(self):
        assert window_dim(self.b, ActionWindow(-10, -5)) == 0

    def test_left_open_window(self):
        assert window_dim(self.b, ActionWindow(None, Fraction(3, 2))) == 2

    def test_whole_line_counts_infinite_bars(self):
        assert window_dim(self.b, ActionWindow(None, None)) == 1

    def test_endpoint_collision_rejected(self):
        with pytest.raises(SpectralEndpoint):
            window_dim(self.b, ActionWindow(0, 1))
        with pytest.raises(SpectralEndpoint):
            window_dim(self.b, ActionWindow(None, 2))


class TestBarStats:
    def test_counts_and_lengths(self):
        stats = bar_stats(Barcode(3, [Bar(0, 2, 2), Bar(1, 3)]))
        assert (stats.finite_count, stats.infinite_count, stats.total_count) == (3, 0, 6)
        assert stats.beta_tot == Fraction(6)
        assert stats.beta_max == Fraction(2)
        assert stats.c_plus is None and stats.c_minus is None

    def test_extremal_starts(self):
        stats = bar_stats(Barcode(3, [Bar(0, 1), Bar(Fraction(1, 2), None), Bar(2, None)]))
        assert stats.c_minus == Fraction(1, 2)
        assert stats.c_plus == Fraction(2)

    def test_require_extremal_starts(self):
        with pytest.raises(EmptyBarcode):
            bar_stats(Barcode(3, [Bar(0, 1)]), require_extremal_starts=True)
        stats = bar_stats(Barcode(3, [Bar(0, None, 2)]), require_extremal_starts=True)
        assert stats.c_plus == stats.c_minus == Fraction(0)

    def test_empty_barcode_stats(self):
        stats = bar_stats(Barcode(3, []))
        assert stats.total_count == 0
        assert stats.beta_max == Fraction(0)

    def test_pointwise_count(self):
        b = Barcode(3, [Bar(0, 2, 2), Bar(1, 3)])
        assert finite_bar_count_at(b, Fraction(1, 2)) == 2
        assert finite_bar_count_at(b, Fraction(3, 2)) == 3
        assert finite_bar_count_at(b, Fraction(5, 2)) == 1
        assert finite_bar_count_at(b, Fraction(4)) == 0


class TestSmithBarcodeCheck:
    def setup_method(self):
        self.b1 = Barcode(3, [Bar(0, 1), Bar(Fraction(1, 2), None)])

    def test_generated_iterate_passes(self):
        bp = generate_iterated_barcode(self.b1, 3, extra_bars=2, seed=5)
        report = smith_barcode_check(self.b1, bp, 3)
        assert report.ok
        assert report.m_ok and report.beta_direct_ok and report.beta_integral_ok
        assert report.window_ok
        assert report.beta_tot_single == Fraction(1)
        assert report.m_failures == () and report.window_failures == ()

    def test_missing_scaled_bar_flagged(self):
        report = smith_barcode_check(self.b1, Barcode(3, [Bar(Fraction(3, 2), None)]), 3)
        assert not report.ok
        assert not report.m_ok
        assert report.m_failures == (
            (Fraction(1, 4), 1, 0),
            (Fraction(3, 4), 1, 0),
        )
        assert not report.beta_direct_ok
        assert not report.window_ok
        assert len(report.window_failures) == 8

    def test_exact_scaling(self):
        b1 = Barcode(3, [Bar(0, 1)])
        bp = generate_iterated_barcode(b1, 3)
        assert spans(bp) == [(Fraction(0), Fraction(3), 1)]
        assert smith_barcode_check(b1, bp, 3).ok

    def test_adversarial_pair_always_flagged(self):
        for seed in range(8):
            single, bad = adversarial_iterated_pair(self.b1, 3, seed)
            assert single == self.b1
            assert not smith_barcode_check(single, bad, 3).ok

    def test_adversarial_needs_finite_bar(self):
        with pytest.raises(ValueError):
            adversarial_iterated_pair(Barcode(3, [Bar(0, None)]), 3, 1)


class TestTorsionWitness:
    def test_distinct_infinite_starts(self):
        b = Barcode(3, [Bar(0, None), Bar(1, None)])
        w = torsion_witness(b)
        assert (w.lower, w.upper) == (Fraction(3, 4), Fraction(5, 4))
        assert window_dim(b, w) == 1

    def test_negative_extremal_start(self):
        b = Barcode(3, [Bar(-1, None), Bar(0, None)])
        w = torsion_witness(b)
        assert (w.lower, w.upper) == (Fraction(-5, 4), Fraction(-3, 4))
        assert window_dim(b, w) == 1

    def test_finite_bar_right_of_zero(self):
        b = Barcode(3, [Bar(0, None), Bar(1, 2)])
        w = torsion_witness(b)
        assert (w.lower, w.upper) == (Fraction(3, 2), Fraction(5, 2))
        assert window_dim(b, w) == 1

    def test_finite_bar_left_of_zero(self):
        b = Barcode(3, [Bar(-3, -1)])
        w = torsion_witness(b)
        assert (w.lower, w.upper) == (Fraction(-2), Fraction(-1, 2))
        assert window_dim(b, w) == 1
        assert w.upper < 0

    def test_finite_bar_ending_at_zero(self):
        b = Barcode(3, [Bar(-2, 0)])
        w = torsion_witness(b)
        assert (w.lower, w.upper) == (Fraction(-5, 2), Fraction(-1))
        assert window_dim(b, w) == 1

    def test_no_witness_when_nothing_nonzero(self):
        assert torsion_witness(Barcode(3, [Bar(0, None, 2)])) is None

    def test_empty_barcode_rejected(self):
        with pytest.raises(EmptyBarcode):
            torsion_witness(Barcode(3, []))

    def test_witness_closure_avoids_zero(self):
        for seed in range(40):
            b = random_barcode(3, seed, normalized=True)
            if not b.bars:
                continue
            w = torsion_witness(b)
            if w is None:
                continue
            assert window_dim(b, w) >= 1
            assert (w.lower > 0) or (w.upper < 0)


class TestScaling:
    def test_scale_barcode(self):
        b = Barcode(3, [Bar(0, 1), Bar(Fraction(1, 2), None)])
        assert spans(scale_barcode(b, 3)) == [
            (Fraction(0), Fraction(3), 1),
            (Fraction(3, 2), None, 1),
        ]

    def test_scale_must_be_positive(self):
        with pytest.raises(InadmissibleWindow):
            scale_barcode(Barcode(3, [Bar(0, 1)]), 0)

    def test_gamma_dominates_longest_bar(self):
        b = Barcode(3, [Bar(0, 1), Bar(Fraction(1, 2), None)])
        # gamma = 1 dominates the longest finite bar, gamma = 1/2 does not
        assert 1 >= bar_stats(b).beta_max > Fraction(1, 2)


class TestJson:
    def test_round_trip(self):
        b = Barcode(3, [Bar(0, 1), Bar(Fraction(1, 2), None)])
        data = barcode_to_json(b)
        assert data == {
            "p": 3,
            "bars": [
                {"start": "0/1", "end": "1/1", "mult": 1},
                {"start": "1/2", "end": None, "mult": 1},
            ],
        }
        assert barcode_from_json(data) == b

    def test_integer_fraction_strings(self):
        b = barcode_from_json({"p": 3, "bars": [{"start": "3/1", "end": None, "mult": 1}]})
        assert b.bars[0].start == Fraction(3)

    @pytest.mark.parametrize(
        "data",
        [
            {"bars": []},
            {"p": 3, "bars": [{"start": "x", "end": None, "mult": 1}]},
            {"p": 3, "bars": [{"start": "0/1", "end": "0/1", "mult": 1}]},
            {"p": 3, "bars": "none"},
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(MalformedInput):
            barcode_from_json(data)


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_iterate_generator_always_passes(seed):
    b1 = random_barcode(3, seed)
    bp = generate_iterated_barcode(b1, 3, extra_bars=seed % 4, seed=seed + 1)
    assert smith_barcode_check(b1, bp, 3).ok


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_beta_tot_is_the_integral_of_the_count(seed):
    b = random_barcode(3, seed)
    assert integrate_finite_count_by_regions(b) == bar_stats(b).beta_tot


@given(st.sampled_from((2, 3, 5)), st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_barcode_matches_homology_of_full_complex(p, seed):
    fc = random_filtered_complex(p, seed, max_gens=10)
    b = barcode_from_filtered(fc)
    total = sum(d for d in fc.homology_dims().values())
    assert sum(bar.multiplicity for bar in b.bars if not bar.finite) == total


# ---------------------------------------------------------------------------
# the prefix-sum iterate check against the per-window reference route

PRIMES = (2, 3, 5, 7)


def _window_shape(w):
    return (w.lower is None, w.upper is None)


def _assert_same_report(b1, bp, p):
    report = smith_barcode_check(b1, bp, p)
    assert report == smith_barcode_check_per_window(b1, bp, p), (b1, bp, p)
    for _, *counts in report.m_failures + report.window_failures:
        assert all(type(c) is int for c in counts)
    return report


def test_iterate_check_matches_reference_on_criterion_07_pairs():
    for i in range(1000):
        p = PRIMES[i % 4]
        b1 = random_barcode(p, i)
        assert _assert_same_report(b1, generate_iterated_barcode(b1, p, extra_bars=i % 3, seed=i), p).ok
    for i in range(100):
        p = PRIMES[i % 4]
        candidates = (random_barcode(p, 20_000 + 100 * i + attempt) for attempt in range(50))
        b1 = next(cand for cand in candidates if any(bar.finite for bar in cand.bars))
        _, bad = adversarial_iterated_pair(b1, p, i)
        assert not _assert_same_report(b1, bad, p).ok


def test_iterate_check_matches_reference_on_unrelated_pairs():
    shapes = set()
    m_failed = 0
    for i in range(200):
        p = PRIMES[i % 4]
        report = _assert_same_report(random_barcode(p, 40_000 + i, max_bars=10), random_barcode(p, 50_000 + i), p)
        shapes |= {_window_shape(w) for w, _, _ in report.window_failures}
        m_failed += not report.m_ok
    # whole line, (-inf, t], (a, inf) and (a, t] all fail somewhere
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}
    assert m_failed > 0


def _grid_pair(p, seed):
    """Bars on a coarse grid, so that starts and ends are shared within a
    barcode and coincide with the scaled endpoints of the other one."""
    rng = random.Random(seed)
    grid = [Fraction(k, 2) for k in range(-4, 5)]

    def bars(scale, count):
        out = []
        for _ in range(count):
            a, b = sorted(rng.sample(grid, 2))
            end = None if rng.random() < 0.3 else b * scale
            out.append(Bar(a * scale, end, rng.randint(1, 3)))
        # equal bars given separately are merged by Barcode
        return out + out[: rng.randint(0, 2)]

    return Barcode(p, bars(1, rng.randint(1, 8))), Barcode(p, bars(p, rng.randint(1, 8)))


def test_iterate_check_matches_reference_on_shared_endpoints():
    merged = 0
    for i in range(200):
        p = PRIMES[i % 4]
        b1, bp = _grid_pair(p, i)
        merged += any(bar.multiplicity > 3 for bar in b1.bars + bp.bars)
        _assert_same_report(b1, bp, p)
        _assert_same_report(b1, scale_barcode(b1, p), p)
    assert merged > 0


@pytest.mark.parametrize("block", [1, 40, 150])
def test_iterate_check_is_independent_of_the_row_blocks(monkeypatch, block):
    # a block of 1 probe pair holds one row; 150 pairs hold several rows
    monkeypatch.setattr("smith_tate.persistence._PAIR_BLOCK", block)
    for i in range(20):
        p = PRIMES[i % 4]
        _assert_same_report(random_barcode(p, 60_000 + i, max_bars=10), random_barcode(p, 70_000 + i), p)
        _assert_same_report(*_grid_pair(p, 80_000 + i), p)


@pytest.mark.parametrize("big", [2**59, 2**70])
def test_iterate_check_counts_exactly_at_huge_multiplicity(big):
    # both barcodes hold under 2^61 bars at 2^59 (int64 counts), over it at 2^70
    b1 = Barcode(3, [Bar(0, 2, big), Bar(1, None, big + 1), Bar(Fraction(1, 2), 3)])
    bp = Barcode(3, [Bar(0, 6, big - 1), Bar(3, None, big), Bar(Fraction(3, 2), 9, 2)])
    report = _assert_same_report(b1, bp, 3)
    assert (ActionWindow(None, None), big + 1, big) in report.window_failures
    assert report.m_failures[0] == (Fraction(1, 4), big, big - 1)


def test_bar_stats_count_exactly_at_huge_multiplicity():
    big = 2**70
    stats = bar_stats(Barcode(3, [Bar(0, 2, big), Bar(1, 2, 3), Bar(1, None, big + 1)]))
    assert (stats.finite_count, stats.infinite_count, stats.total_count) == (big + 3, big + 1, 3 * big + 7)
    assert stats.beta_tot == 2 * big + 3
    assert all(type(v) is int for v in (stats.finite_count, stats.infinite_count, stats.total_count))


def test_iterate_check_on_empty_barcodes():
    report = _assert_same_report(Barcode(3, []), Barcode(3, []), 3)
    assert report.ok
    report = _assert_same_report(Barcode(3, [Bar(0, None)]), Barcode(3, []), 3)
    assert report.window_failures == (
        (ActionWindow(None, None), 1, 0),
        (ActionWindow(None, Fraction(1)), 1, 0),
        (ActionWindow(Fraction(-1), None), 1, 0),
        (ActionWindow(Fraction(-1), Fraction(1)), 1, 0),
    )


def test_iterate_check_rejects_nonpositive_scale():
    b = Barcode(3, [Bar(0, 1)])
    for p in (0, -3):
        with pytest.raises(InadmissibleWindow):
            smith_barcode_check(b, b, p)


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_integral_check_matches_region_sum(seed):
    p = PRIMES[seed % 4]
    b1, bp = _grid_pair(p, seed)
    for single, iterate in ((b1, bp), (b1, scale_barcode(b1, p)), (random_barcode(p, seed), bp)):
        by_regions = integrate_finite_count_by_regions(iterate) >= p * integrate_finite_count_by_regions(single)
        assert smith_barcode_check(single, iterate, p).beta_integral_ok == by_regions


def test_beta_integral_reads_the_probe_counts(monkeypatch):
    """beta-integral sums the probe counts over the regions' lengths; it
    does not compare the two beta_tot values that beta-direct compares.
    Shifting every cover by one probe moves the counts onto regions of
    other lengths and flips beta-integral alone."""
    b1 = Barcode(3, [Bar(0, 1, 2), Bar(-10, None), Bar(20, None)])
    bp = Barcode(3, [Bar(-30, 0), Bar(-30, None), Bar(60, None)])
    rep = smith_barcode_check(b1, bp, 3)
    assert rep.beta_direct_ok and rep.beta_integral_ok
    real = persistence._probe_counts

    def shifted(*args):
        counts = real(*args)
        return dataclasses.replace(counts, cover=np.roll(counts.cover, 1))

    monkeypatch.setattr(persistence, "_probe_counts", shifted)
    rep = smith_barcode_check(b1, bp, 3)
    assert rep.beta_direct_ok and not rep.beta_integral_ok


# ---------------------------------------------------------------------------
# the level-index route against the rational oracles

# rationals near 2^62 whose neighbours differ by about 2^-124
HUGE = [Fraction(2**62 + k, 2**62 - 1) for k in (-3, -1, 0, 1, 2)] + [Fraction(-(2**62) - 1, 2**62 - 3)]


def _windows(levels, rng, count=60):
    """The whole line, plus windows whose ends are open, below or above every
    level, or strictly between two adjacent levels."""
    ends = [None] + midpoint_probes_by_fractions(sorted(levels))
    out = [ActionWindow(None, None)]
    for _ in range(count):
        a, t = rng.choice(ends), rng.choice(ends)
        if a is not None and t is not None:
            if a == t:
                continue
            a, t = min(a, t), max(a, t)
        out.append(ActionWindow(a, t))
    return out


def _assert_barcode_matches_oracles(b, rng):
    assert spans(b) == canonical_bars_by_fractions(b.bars)
    assert b.endpoints() == sorted({x for bar in b.bars for x in (bar.start, bar.end) if x is not None})
    # split every bar into unit bars and shuffle them: canonicalisation merges them back
    units = [Bar(bar.start, bar.end) for bar in b.bars for _ in range(bar.multiplicity)]
    rng.shuffle(units)
    assert Barcode(b.p, units) == b
    assert spans(Barcode(b.p, units)) == canonical_bars_by_fractions(units)
    assert bar_stats(b) == bar_stats_by_fractions(b)
    for w in _windows(b.endpoints(), rng):
        assert window_dim(b, w) == window_dim_by_fractions(b, w), (b, w)
    for x in b.endpoints():
        for w in (ActionWindow(None, x), ActionWindow(x, None), ActionWindow(x - 1, x), ActionWindow(x, x + 1)):
            with pytest.raises(SpectralEndpoint):
                window_dim(b, w)
            with pytest.raises(SpectralEndpoint):
                window_dim_by_fractions(b, w)
        assert finite_bar_count_at(b, x) == sum(bar.multiplicity for bar in b.bars if bar.finite and bar.contains(x))
    if b.bars:
        assert torsion_witness(b) == torsion_witness_by_fractions(b)
    assert barcode_from_json(json.dumps(barcode_to_json(b))) == b


def _assert_complex_matches_oracles(fc, rng):
    assert fc.filtration_order() == filtration_order_by_fractions(fc)
    assert fc.action_violations() == action_violations_by_fractions(fc)
    b = barcode_from_filtered(fc)
    assert spans(b) == barcode_from_filtered_by_fractions(fc)
    _assert_barcode_matches_oracles(b, rng)


def _planted_bars(rng, levels):
    """Finite and infinite bars on a few levels, with shared starts,
    repeated bars and multiplicities."""
    finite, infinite = [], []
    for _ in range(rng.randint(1, 12)):
        a, e = sorted(rng.sample(levels, 2))
        finite.append((a, e, rng.randint(1, 3)))
    finite += [finite[0], (finite[0][0], max(levels) + 1, 1)]
    infinite = [finite[0][0]] + [rng.choice(levels) for _ in range(rng.randint(0, 4))]
    return finite, infinite


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("seed", range(8))
def test_filtered_layer_matches_fraction_oracles(p, seed):
    rng = random.Random(1000 * p + seed)
    _assert_complex_matches_oracles(random_filtered_complex(p, seed, max_gens=30, max_levels=8), rng)
    for levels in (
        [Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3))) for _ in range(6)],
        HUGE,
    ):
        levels = sorted(set(levels))
        fc, planted = planted_filtered_complex(p, *_planted_bars(rng, levels), seed)
        _assert_complex_matches_oracles(fc, rng)
        assert barcode_from_filtered(fc) == planted


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("seed", range(10))
def test_barcodes_from_json_match_fraction_oracles(p, seed):
    rng = random.Random(seed)
    for kwargs in ({}, {"normalized": True}, {"distinct_infinite": True}, {"allow_finite": False}):
        b1 = random_barcode(p, 100 * seed + p, max_bars=12, **kwargs)
        b1 = barcode_from_json(json.dumps(barcode_to_json(b1)))
        _assert_barcode_matches_oracles(b1, rng)
        _assert_barcode_matches_oracles(generate_iterated_barcode(b1, p, extra_bars=4, seed=seed), rng)
        _assert_barcode_matches_oracles(scale_barcode(b1, Fraction(p, 7)), rng)
        if any(bar.finite for bar in b1.bars):
            _, bp = adversarial_iterated_pair(b1, p, seed)
            _assert_barcode_matches_oracles(bp, rng)


def test_tied_actions_sort_by_id():
    gens = [Generator(g, 0, a) for g, a in (("c", 1), ("a", 1), ("d", -1), ("b", 1), ("e", Fraction(-2, 2)))]
    cx = ChainComplex(3, gens, {})
    assert [cx.generators[i].id for i in cx.filtration_order()] == ["d", "e", "a", "b", "c"]
    assert cx.filtration_order() == filtration_order_by_fractions(cx)


def test_action_violations_on_an_unfiltered_complex():
    gens = [Generator("a", 0, 1), Generator("b", 1, 1), Generator("c", 1, 0), Generator("d", 1, 2)]
    cx = ChainComplex(3, gens, {"a": {"b": 1, "c": 2, "d": 1}})
    assert cx.action_violations() == action_violations_by_fractions(cx)
    assert cx.action_violations() == [
        "d(a) does not strictly decrease action at b",
        "d(a) does not strictly decrease action at d",
    ]


def test_shared_starts_and_merged_multiplicities():
    bars = [Bar(0, 2), Bar(0, 1), Bar(0, None), Bar(0, 1, 2), Bar(0, None, 2), Bar(-1, 0), Bar(-3, -1)]
    b = Barcode(3, bars)
    assert spans(b) == canonical_bars_by_fractions(bars) == [
        (-3, -1, 1),
        (-1, 0, 1),
        (0, 1, 3),
        (0, 2, 1),
        (0, None, 3),
    ]
    assert b.index_bars == ((0, 1, 1), (1, 2, 1), (2, 3, 3), (2, 4, 1), (2, 5, 3))
    _assert_barcode_matches_oracles(b, random.Random(0))


def test_windows_between_adjacent_huge_levels():
    h = HUGE
    b = Barcode(5, [Bar(h[0], h[1]), Bar(h[1], h[2], 2), Bar(h[2], None), Bar(h[5], h[3]), Bar(h[4], None)])
    _assert_barcode_matches_oracles(b, random.Random(1))
    between = (h[1] + h[2]) / 2
    assert h[1] < between < h[2]
    w = ActionWindow(None, between)
    assert window_dim(b, w) == window_dim_by_fractions(b, w) == 3


def _dense_two_degree_complex(p, n, seed, fill=0.9):
    """n generators in degrees 0 and 1 on a few levels, with d filled at
    random on about `fill` of the entries that lower action; any degree
    0 -> 1 map squares to zero."""
    rng = random.Random(seed)
    levels = [Fraction(k, 3) for k in range(8)]
    gens = [Generator(f"g{i}", i % 2, rng.choice(levels)) for i in range(n)]
    tops = [g for g in gens if g.degree == 1]
    diff = {
        g.id: {t.id: rng.randrange(1, p) for t in tops if t.action < g.action and rng.random() < fill}
        for g in gens
        if g.degree == 0
    }
    return FilteredComplex(p, gens, diff)


def _assert_pairing_matches_dense(fc):
    pairs = persistence_pairing(fc)
    order, lows = persistence_pairing_dense(fc)
    assert type(pairs) is list and all(type(i) is type(j) is int for i, j in pairs)
    assert pairs == [(order[lo], order[j]) for j, lo in enumerate(lows.tolist()) if lo >= 0]


@pytest.mark.parametrize("p", (2, 3, 5, 7, 16777213))
def test_sparse_pairing_matches_the_dense_reduction(p):
    """The sparse column reduction against the dense n x n one, on random,
    planted and dense two-degree complexes."""
    rng = random.Random(p)
    for seed in range(12):
        _assert_pairing_matches_dense(random_filtered_complex(p, seed, max_gens=40, max_levels=8))
    for n in (40, 150, 300, 600):
        levels = sorted({Fraction(rng.randint(-40, 80), rng.choice((1, 2, 4))) for _ in range(40)})
        finite = [(*sorted(rng.sample(levels, 2)), 1) for _ in range(n * 2 // 5)]
        starts = [rng.choice(levels) for _ in range(n // 5)]
        fc, planted = planted_filtered_complex(p, finite, starts, rng)
        _assert_pairing_matches_dense(fc)
        assert barcode_from_filtered(fc) == planted
    for n in (30, 80):
        _assert_pairing_matches_dense(_dense_two_degree_complex(p, n, p + n))


def test_an_unchecked_complex_pairs_on_every_entry_of_d():
    """d(a) = b + c with b in a's own degree: a check=False complex keeps
    the entry a -> b, which breaks the degree rule, and pairs a with b as
    the dense reduction does; dropping it would pair a with c."""
    gens = [Generator("a", 0, 3), Generator("b", 0, Fraction(5, 2)), Generator("c", 1, 2)]
    fc = FilteredComplex(3, gens, {"a": {"b": 1, "c": 1}}, check=False)
    _assert_pairing_matches_dense(fc)
    assert persistence_pairing(fc) == [(1, 0)]


def test_sparse_and_dense_pairing_reject_an_unfiltered_complex():
    gens = [Generator("a", 0, 1), Generator("b", 1, 1), Generator("c", 1, 0)]
    cx = ChainComplex(3, gens, {"a": {"b": 1, "c": 2}})
    with pytest.raises(FiltrationViolation) as sparse:
        persistence_pairing(cx)
    with pytest.raises(FiltrationViolation) as dense:
        persistence_pairing_dense(cx)
    assert str(sparse.value) == str(dense.value) == "d(a) does not strictly decrease action at b"


# ---------------------------------------------------------------------------
# int ticks against the Fraction routes, on inputs where one scale could go wrong

# pairwise-coprime denominators, so that the scale is their product
COPRIME = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _coprime_bars(rng, count, dens):
    """count bars whose starts and ends take their denominators from dens
    independently, so neither side's denominators divide the other's lcm."""
    out = []
    for _ in range(count):
        a = Fraction(rng.randint(-90, 90), rng.choice(dens))
        end = None if rng.random() < 0.3 else a + Fraction(rng.randint(1, 60), rng.choice(dens))
        out.append(Bar(a, end, rng.randint(1, 3)))
    return out


def _assert_ticks(b, lcm=True):
    """Every level of b is its tick over the scale, and the scale is the
    lcm of the level denominators, or with lcm false a multiple of it."""
    least = math.lcm(*(x.denominator for x in b.levels))
    assert b.scale == least if lcm else b.scale % least == 0
    assert b.ticks == tuple(int(x * b.scale) for x in b.levels)


def _assert_iterate_pairs(b1, p, seed):
    """The iterate check against the per-window route on a generated
    iterate, a tampered one and b1 itself."""
    assert _assert_same_report(b1, generate_iterated_barcode(b1, p, extra_bars=3, seed=seed), p).ok
    _assert_same_report(b1, b1, p)
    if any(bar.finite for bar in b1.bars):
        assert not _assert_same_report(b1, adversarial_iterated_pair(b1, p, seed)[1], p).ok


@pytest.mark.parametrize("seed", range(6))
def test_coprime_denominators_match_the_fraction_routes(seed):
    rng = random.Random(seed)
    p = PRIMES[seed % 4]
    dens = rng.sample(COPRIME, 8)
    b = Barcode(p, _coprime_bars(rng, 12, dens))
    assert b.scale > 10**6
    _assert_ticks(b)
    _assert_barcode_matches_oracles(b, rng)
    assert barcode_from_json(barcode_to_json(b)) == b
    assert integrate_finite_count_by_regions(b) == bar_stats(b).beta_tot
    _assert_iterate_pairs(b, p, seed)
    # an unrelated iterate on other coprime denominators
    _assert_same_report(b, Barcode(p, _coprime_bars(rng, 10, rng.sample(COPRIME, 8))), p)
    # a filtered complex whose actions have pairwise-coprime denominators
    levels = sorted({Fraction(rng.randint(-40, 40), d) for d in dens})
    fc, planted = planted_filtered_complex(p, *_planted_bars(rng, levels), seed)
    _assert_complex_matches_oracles(fc, rng)
    assert barcode_from_filtered(fc) == planted
    _, _, scale, ticks = fc._level_table
    assert scale == math.lcm(*(x.denominator for x in fc.actions()))
    assert ticks == tuple(int(x * scale) for x in fc.actions())


def test_one_value_spelled_several_ways_is_one_level():
    data = {
        "p": 3,
        "bars": [
            {"start": "1/2", "end": "3/4"},
            {"start": "2/4", "end": "6/8"},
            {"start": "0.5", "end": 0.75, "mult": 2},
            {"start": "-0/5", "end": " 1/2 "},
            {"start": 0, "end": None},
            {"start": "0/7", "end": None},
        ],
    }
    b = barcode_from_json(data)
    assert (b.p, spans(b)) == barcode_from_json_by_fractions(data)
    assert b.levels == (0, Fraction(1, 2), Fraction(3, 4))
    assert b.index_bars == ((0, 1, 1), (0, 3, 2), (1, 2, 4))
    assert bar_stats(b) == bar_stats_by_fractions(b)
    _assert_barcode_matches_oracles(b, random.Random(0))
    # the same action as {"num": 1, "den": -2}, {"num": -1, "den": 2} and {"num": -2, "den": 4}
    gens = [{"id": "a", "degree": 0, "action": 1}, {"id": "b", "degree": 1, "action": {"num": 1, "den": -2}},
            {"id": "c", "degree": 1, "action": {"num": -1, "den": 2}},
            {"id": "e", "degree": 1, "action": {"num": -2, "den": 4}}]
    fc = complex_from_json({"p": 3, "generators": gens, "differential": {"a": {"b": 1}}, "filtered": True})
    assert fc.actions() == [Fraction(-1, 2), Fraction(1)]
    assert fc._level_table[1:] == ([1, 0, 0, 0], 2, (-1, 2))
    _assert_complex_matches_oracles(fc, random.Random(1))
    assert spans(barcode_from_filtered(fc)) == [(Fraction(-1, 2), 1, 1), (Fraction(-1, 2), None, 2)]


def test_integer_only_inputs_have_scale_one():
    rng = random.Random(5)
    data = {"p": 5, "bars": [{"start": rng.randint(-9, 9), "end": None} for _ in range(4)]}
    data["bars"] += [{"start": "3", "end": "7/1"}, {"start": -2, "end": "4"}, {"start": "-0", "end": 1}]
    b = barcode_from_json(data)
    assert (b.p, spans(b)) == barcode_from_json_by_fractions(data)
    assert b.scale == 1 and b.ticks == tuple(b.levels)
    _assert_barcode_matches_oracles(b, rng)
    _assert_iterate_pairs(b, 5, 5)
    fc, _ = planted_filtered_complex(3, *_planted_bars(rng, list(range(-5, 6))), 5)
    assert fc._level_table[2:] == (1, tuple(map(int, fc.actions())))
    _assert_complex_matches_oracles(fc, rng)


def test_an_empty_barcode_has_scale_one_and_no_ticks():
    b = barcode_from_json({"p": 3, "bars": []})
    assert (b.scale, b.ticks, b.levels, b.bars) == (1, (), (), ())
    assert bar_stats(b) == bar_stats_by_fractions(b)
    assert bar_stats(b).beta_tot == integrate_finite_count_by_regions(b) == 0
    assert _assert_same_report(b, b, 3).ok
    with pytest.raises(EmptyBarcode):
        torsion_witness(b)
    assert barcode_from_json(barcode_to_json(b)) == b == Barcode(3)


def test_the_iterate_check_at_a_prime_near_2_24(tmp_path, capsys):
    """p = 16777213 scales bp's levels by 1 / p: the joint scale is about p
    times the single one."""
    p = 16777213
    rng = random.Random(p)
    for seed in range(4):
        b1 = Barcode(3, _coprime_bars(rng, 6, rng.sample(COPRIME, 4)))
        _assert_iterate_pairs(b1, p, seed)
        _assert_same_report(b1, Barcode(3, _coprime_bars(rng, 6, rng.sample(COPRIME, 4))), p)
    argv = ["barcode-smith", "-p", str(p), "--json"]
    iterate = generate_iterated_barcode(b1, p, extra_bars=2, seed=0)
    for name, b in (("single", b1), ("iterate", iterate)):
        (tmp_path / f"{name}.json").write_text(json.dumps(barcode_to_json(b)))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    assert dispatch(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["results"]["beta-tot-iterate"] == _frac_str(bar_stats(iterate).beta_tot)


def test_a_barcode_refusal_names_the_first_bad_bar_as_the_fraction_route_does():
    huge = 10**5000
    cases = [
        [{"start": "1", "end": "1/2"}, {"start": "x"}],
        [{"start": "x"}, {"start": "1", "end": "1/2"}],
        [{"start": "1/2", "end": "2/4"}],
        [{"start": "0.5", "end": "1/2"}],
        [{"start": 1, "end": 0, "mult": 0}],
        [{"start": 0, "end": 1, "mult": 0}, {"start": 2, "end": 1}],
        [{"start": 0, "end": 1, "mult": 2.5}],
        [{"start": huge, "end": 0}],
        [{"start": 0, "end": -huge}],
        [{"start": "1/3", "end": "1/3"}, {"start": 0, "mult": -1}],
        [{"start": "-1/3", "end": "-1/3", "mult": -1}],
    ]
    for bars in cases:
        data = {"p": 3, "bars": bars}
        with pytest.raises(MalformedInput) as want:
            barcode_from_json_by_fractions(data)
        with pytest.raises(MalformedInput) as got:
            barcode_from_json(data)
        assert str(got.value) == str(want.value), bars
    with pytest.raises(MalformedInput, match=r"^bar needs start < end, got \(1/2, 1/2\]$"):
        barcode_from_json({"p": 3, "bars": [{"start": "1/2", "end": "2/4"}]})


@pytest.mark.parametrize("seed", range(20))
def test_barcode_json_reads_as_the_fraction_route(seed):
    """Random bars written in every spelling the reader takes, with a few
    malformed fields: the same bars or the same refusal."""
    rng = random.Random(seed)
    spellings = (
        lambda x: _frac_str(x),
        lambda x: f"{x.numerator * 3}/{x.denominator * 3}",
        lambda x: str(x),
        lambda x: f" {x} ",
        lambda x: x.numerator if x.denominator == 1 else str(x),
        lambda x: float(x) if x.denominator in (1, 2, 4, 8) else str(x),
    )
    bad = ("x", "1/0", True, None, [1], "1e10000000", "0x10")
    bars = []
    for bar in _coprime_bars(rng, 12, rng.sample(COPRIME, 3)):
        item = {"start": rng.choice(spellings)(bar.start), "mult": bar.multiplicity}
        if bar.end is not None:
            item["end"] = rng.choice(spellings)(bar.end)
        if rng.random() < 0.05:
            item[rng.choice(("start", "end", "mult"))] = rng.choice(bad)
        if rng.random() < 0.05:
            item["start"], item["end"] = item.get("end", item["start"]), item["start"]
        bars.append(item)
    data = {"p": PRIMES[seed % 4], "bars": bars}
    try:
        want = barcode_from_json_by_fractions(data)
    except MalformedInput as e:
        with pytest.raises(MalformedInput) as got:
            barcode_from_json(data)
        assert str(got.value) == str(e)
        return
    b = barcode_from_json(data)
    assert (b.p, spans(b)) == want
    _assert_ticks(b, lcm=False)
    _assert_barcode_matches_oracles(b, rng)

"""Barcodes of filtered complexes and exact window/Smith-inequality checkers.

Bars are half-open intervals (a, b] or (a, inf) with positive integer
multiplicity, endpoints exact rationals.  Every count depends only on the
order of the endpoints, so a barcode interns them once into a sorted level
table and holds its bars as int level indices.  The levels carry int ticks
x * L, L a common denominator, so lengths, sums and midpoints are int
arithmetic and a Fraction is built only for a value a report writes.  A
filtered complex yields its barcode through standard boundary-matrix
reduction in action order; a window's dimension counts the bars holding
exactly one of its ends, which must avoid the spectrum.  The p-th iterate
comparison bundles the pointwise finite-bar count inequality m(t) <= m(pt),
the total-length inequality it integrates to, and the window-dimension
inequality over a canonical window family.  It maps every level once to an
index among generic probe points and counts all windows of the family from
prefix sums over those indices; window_dim counts a single window directly
from the bars.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import TYPE_CHECKING

from .complexes import ActionWindow, ChainComplex, _frac_str, _json_object, _rational_pair, _shown, _strict_int, _ticks
from .errors import (
    EmptyBarcode,
    FiltrationViolation,
    InadmissibleWindow,
    MalformedInput,
    SpectralEndpoint,
)
from .fp_core import check_prime, reduce_columns

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Bar",
    "Barcode",
    "BarStats",
    "SmithBarcodeReport",
    "barcode_from_filtered",
    "persistence_pairing",
    "window_dim",
    "bar_stats",
    "smith_barcode_check",
    "torsion_witness",
    "generate_iterated_barcode",
    "scale_barcode",
    "barcode_to_json",
    "barcode_from_json",
]


def _frac(x, what: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise MalformedInput(f"{what} must be a rational number, got {_shown(x)}")
    try:
        return Fraction(x)
    except (TypeError, ValueError) as e:
        raise MalformedInput(f"{what} must be a rational number, got {_shown(x)}") from e


@dataclass(frozen=True)
class Bar:
    """Half-open interval (start, end] with multiplicity; end None means +inf."""

    start: Fraction
    end: Fraction | None
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "start", _frac(self.start, "bar start"))
        if self.end is not None:
            object.__setattr__(self, "end", _frac(self.end, "bar end"))
            if not self.start < self.end:
                raise MalformedInput(f"bar needs start < end, got ({_shown(self.start, str)}, {_shown(self.end, str)}]")
        if not isinstance(self.multiplicity, int) or isinstance(self.multiplicity, bool) or self.multiplicity < 1:
            raise MalformedInput(f"bar multiplicity must be a positive integer, got {_shown(self.multiplicity)}")

    @property
    def finite(self) -> bool:
        return self.end is not None

    def contains(self, t: Fraction) -> bool:
        if self.end is None:
            return self.start < t
        return self.start < t <= self.end

    def length(self) -> Fraction | None:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        tail = "inf)" if self.end is None else f"{self.end}]"
        m = f" x{self.multiplicity}" if self.multiplicity != 1 else ""
        return f"({self.start}, {tail}{m}"


def _trusted_bar(start: Fraction, end: Fraction | None, multiplicity: int) -> Bar:
    """A Bar from canonical level data, valid by construction, so not validated again."""
    bar = object.__new__(Bar)
    bar.__dict__.update(start=start, end=end, multiplicity=multiplicity)
    return bar


class Barcode:
    """Canonical multiset of bars: sorted by (start, end), equal bars merged.

    levels is the sorted tuple of distinct endpoints, ticks their ints
    x * scale for the lcm scale of their denominators as read.  index_bars
    holds each bar once, as sorted (start index, end index, multiplicity)
    into levels with an infinite end at index len(levels); bars as Bars.
    """

    def __init__(self, p: int, bars=()):
        bars = [b if isinstance(b, Bar) else Bar(*b) for b in bars]
        self._canonicalise(p, *_indexed([(b.start, b.end, b.multiplicity) for b in bars]))

    @classmethod
    def _from_levels(cls, p: int, levels: tuple, counts: dict[tuple[int, int], int], scaled=None) -> "Barcode":
        """counts[s, e] copies of (levels[s], levels[e]], each level an endpoint; scaled as _ticks(levels)."""
        b = cls.__new__(cls)
        b._canonicalise(p, levels, counts, scaled or _ticks(levels))
        return b

    def _canonicalise(self, p: int, levels: tuple, counts: dict[tuple[int, int], int], scaled) -> None:
        self.p = check_prime(p)
        self.levels = levels
        self.scale, self.ticks = scaled
        self.index_bars = tuple((s, e, m) for (s, e), m in sorted(counts.items()))

    @cached_property
    def bars(self) -> tuple[Bar, ...]:
        ends = self.levels + (None,)
        return tuple(_trusted_bar(self.levels[s], ends[e], m) for s, e, m in self.index_bars)

    def __eq__(self, other) -> bool:
        key = (self.p, self.levels, self.index_bars)
        return isinstance(other, Barcode) and key == (other.p, other.levels, other.index_bars)

    def __hash__(self):
        return hash((self.p, self.levels, self.index_bars))

    def __iter__(self):
        return iter(self.bars)

    def endpoints(self) -> list[Fraction]:
        """Sorted distinct spectral values (starts and finite ends)."""
        return list(self.levels)

    def __repr__(self) -> str:
        return f"Barcode(p={self.p}, bars=[{', '.join(map(repr, self.bars))}])"


def _indexed(rows) -> tuple[tuple, Counter, tuple[int, tuple]]:
    """(levels, counts, (scale, ticks)) of (start, end or None, multiplicity)
    rows, endpoints as _ticks takes them, merged as ticks: one Fraction per level."""
    values = list({x: None for s, e, _ in rows for x in (s, e) if x is not None})
    scale, ticks = _ticks(values)
    at = {t: i for i, t in enumerate(sorted(set(ticks)))}
    index = {x: at[t] for x, t in zip(values, ticks)} | {None: len(at)}
    counts: Counter = Counter()
    for s, e, m in rows:
        counts[index[s], index[e]] += m
    return tuple(Fraction(t, scale) for t in at), counts, (scale, tuple(at))


def scale_barcode(b: Barcode, factor) -> Barcode:
    factor = Fraction(factor)
    if factor <= 0:
        raise InadmissibleWindow(f"scaling factor must be positive, got {factor}")
    # a positive factor keeps the order of the levels, so the index bars stay
    return Barcode._from_levels(b.p, tuple(x * factor for x in b.levels), {(s, e): m for s, e, m in b.index_bars})


# ---------------------------------------------------------------------------
# reduction


def persistence_pairing(fc: ChainComplex) -> list[tuple[int, int]]:
    """Persistence pairing of the action filtration by column reduction.

    Returns the pairs (i, j) of generator indices, j in filtration order:
    the reduced column of j has its low at i, whose action is strictly
    below j's.  The complex's columns of d, every entry kept, are keyed by
    position in fc.filtration_order() (a bar depends on which row is the
    low) and reduced by fp_core.reduce_columns.  Raises FiltrationViolation
    unless d strictly decreases action.
    """
    bad = fc.action_violations()
    if bad:
        raise FiltrationViolation(bad[0])
    order = fc.filtration_order()
    pos, d = dict(zip(order, range(len(order)))), fc.columns("differential")
    lows = reduce_columns(({pos[t]: c for t, c in d[j].items()} for j in order), fc.p)
    return [(order[lo], j) for j, lo in zip(order, lows) if lo >= 0]


def barcode_from_filtered(fc: ChainComplex) -> Barcode:
    """Barcode of the action sublevel filtration.

    Each pair (i, j) of the persistence pairing is a finite bar
    (action_i, action_j]; each generator left unpaired is an infinite bar.
    Bars are merged and sorted on the complex's level indices; every level
    is an endpoint, as each generator starts or ends a bar.
    """
    pairs = persistence_pairing(fc)
    levels, level, scale, ticks = fc._level_table
    inf = len(levels)
    paired = {x for pair in pairs for x in pair}
    bars = [(level[i], level[j]) for i, j in pairs] + [(k, inf) for x, k in enumerate(level) if x not in paired]
    return Barcode._from_levels(fc.p, tuple(levels), Counter(bars), (scale, ticks))


# ---------------------------------------------------------------------------
# window counting


def _level_cut(b: Barcode, t: Fraction) -> int:
    """The number of levels below a window end t, which must not be one."""
    k = bisect_left(b.levels, t)
    if k < len(b.levels) and b.levels[k] == t:
        raise SpectralEndpoint(f"window endpoint {t} is a bar endpoint")
    return k


def window_dim(b: Barcode, w: ActionWindow) -> int:
    """dim of the window-restricted homology, counted from the barcode.

    Counts the bars that hold exactly one window end: with k(x) the number
    of levels below x, bar (s, e] holds x exactly when s < k(x) <= e.  An
    open lower end holds no bar and an open upper end holds the infinite
    ones, so this also covers (-inf, t], (a, inf) and the whole line.
    """
    ka = 0 if w.lower is None else _level_cut(b, w.lower)
    kt = len(b.levels) if w.upper is None else _level_cut(b, w.upper)
    return sum(m for s, e, m in b.index_bars if (s < ka <= e) != (s < kt <= e))


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class BarStats:
    finite_count: int  # K, multiplicity-weighted
    infinite_count: int  # B
    total_count: int  # N = 2K + B
    beta_tot: Fraction
    beta_max: Fraction  # 0 when there is no finite bar
    c_plus: Fraction | None  # max / min infinite-bar start; None without
    c_minus: Fraction | None  # infinite bars (unless required)


def bar_stats(b: Barcode, *, require_extremal_starts: bool = False) -> BarStats:
    """Multiplicity-weighted bar counts and length statistics.

    c_plus / c_minus are None when no infinite bar exists; pass
    require_extremal_starts to make that case an EmptyBarcode error.
    beta_tot weighs each level by the finite bars ending minus starting
    there, and beta_max compares the longest finite bar from each start.
    """
    levels, ticks, inf = b.levels, b.ticks, len(b.levels)
    finite = [bar for bar in b.index_bars if bar[1] < inf]
    starts = [s for s, e, _ in b.index_bars if e == inf]
    weight = [0] * inf  # multiplicity of finite bars ending minus starting at each level
    for s, e, m in finite:
        weight[e] += m
        weight[s] -= m
    longest = {s: e for s, e, _ in finite}  # index bars are sorted: the last end from s wins
    if not starts and require_extremal_starts:
        raise EmptyBarcode("no infinite bars: extremal starting points are undefined")
    K = sum(m for _, _, m in finite)
    B = sum(m for _, _, m in b.index_bars) - K
    return BarStats(
        finite_count=K,
        infinite_count=B,
        total_count=2 * K + B,
        beta_tot=Fraction(sum(w * t for w, t in zip(weight, ticks) if w), b.scale),
        beta_max=Fraction(max((ticks[e] - ticks[s] for s, e in longest.items()), default=0), b.scale),
        c_plus=levels[starts[-1]] if starts else None,
        c_minus=levels[starts[0]] if starts else None,
    )


# ---------------------------------------------------------------------------
# the p-th iterate comparison


def _midpoint_probes(events: list[int], one: int) -> list[int]:
    """One generic test point per region of the complement of `events`:
    sorted distinct even ticks, with 1 at tick `one`, so midpoints are ints."""
    if not events:
        return [0]
    return [events[0] - one, *((lo + hi) // 2 for lo, hi in zip(events, events[1:])), events[-1] + one]


@dataclass(frozen=True)
class SmithBarcodeReport:
    p: int
    m_ok: bool
    m_failures: tuple  # (t, m(t, b1), m(pt, bp)) triples
    beta_tot_single: Fraction
    beta_tot_iterate: Fraction
    beta_direct_ok: bool
    beta_integral_ok: bool
    window_ok: bool
    window_failures: tuple  # (window, dim single, dim iterate) triples

    @property
    def ok(self) -> bool:
        return self.m_ok and self.beta_direct_ok and self.beta_integral_ok and self.window_ok

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class _ProbeCounts:
    """A barcode's bars as probe indices, with per-probe prefix sums.

    A bar endpoint x lies strictly between probes; its index is the number
    of probes below x, so a bar (s, e] contains probe k exactly when
    index(s) <= k < index(e).  The last probe lies above every endpoint, so
    I at the last probe counts all infinite bars.
    """

    cover: np.ndarray  # C(k): finite bars containing probe k
    inf_in: np.ndarray  # I(k): infinite bars containing probe k
    finite: list  # (index(start), index(end), multiplicity), sorted


def _probe_counts(b: Barcode, index: list[int], n: int, dtype) -> _ProbeCounts:
    """Counts of b at n probes, with index[k] probes below level k."""
    import numpy as np

    inf = len(index)
    cover = np.zeros(n + 1, dtype=dtype)
    inf_start = np.zeros(n + 1, dtype=dtype)
    finite = []
    for s, e, m in b.index_bars:
        s = index[s]
        if e < inf:
            e = index[e]
            cover[s] += m
            cover[e] -= m
            finite.append((s, e, m))
        else:
            inf_start[s] += m
    return _ProbeCounts(cover=np.cumsum(cover)[:n], inf_in=np.cumsum(inf_start)[:n], finite=sorted(finite))


def _pair_dims(c: _ProbeCounts, rows: int):
    """Yield (lo, D) per block of rows: D[r, j] = dim (probe lo + r, probe j].

    Only j > lo + r is meaningful.  With Both(i, j) the finite bars of
    start index <= i and end index > j, the finite bars holding exactly one
    window end number C(i) + C(j) - 2 Both(i, j), and the infinite bars
    born inside number I(j) - I(i).  Both is a cumulative sum of the
    (start, end) index histogram, carried from block to block.
    """
    import numpy as np

    n = len(c.cover)
    carry = np.zeros(n + 1, dtype=c.cover.dtype)  # histogram rows of the blocks done
    k = 0
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        hist = np.zeros((hi - lo, n + 1), dtype=c.cover.dtype)
        while k < len(c.finite) and c.finite[k][0] < hi:
            s, e, m = c.finite[k]
            hist[s - lo, e] += m
            k += 1
        hist[0] += carry
        at_most = np.cumsum(hist, axis=0)  # rows: start index <= i
        carry = at_most[-1]
        both = np.cumsum(at_most[:, :0:-1], axis=1)[:, ::-1]  # end index > j
        yield lo, c.cover[lo:hi, None] + c.cover - 2 * both + c.inf_in - c.inf_in[lo:hi, None]


# probe pairs per block of the pair tables, to keep their memory bounded
_PAIR_BLOCK = 1 << 18


def smith_barcode_check(b1: Barcode, bp: Barcode, p: int) -> SmithBarcodeReport:
    """Compare a barcode with a claimed barcode of the p-th iterate.

    Verifies m(t, b1) <= m(p t, bp) at one generic point per region of the
    merged endpoint arrangement, the total-length consequence
    beta_tot(bp) >= p * beta_tot(b1) both directly and by integrating the
    pointwise counts, and dim^w(b1) <= dim^(pw)(bp) over all canonical
    windows spanned by the arrangement's generic points: the whole line,
    then (-inf, t] and (t, inf) for each probe t, then (a, t] for each
    probe pair a < t, in that order.

    Every bar endpoint is mapped once to its index among the P probes, so
    the counts of all windows come from prefix sums over probe indices and
    one cumulative table of probe pairs, the persistent Betti numbers of
    Cohen-Steiner, Edelsbrunner and Harer: O(P^2 + E log E) for E bars,
    with the table built in row blocks of about 2^18 probe pairs so that
    its memory stays bounded.  Counts are exact: int64 while each barcode
    holds fewer than 2^61 bars counted with multiplicity, Python integers
    beyond.
    """
    import numpy as np

    if p <= 0:
        raise InadmissibleWindow("scale factor must be positive")
    # the levels x of b1 and y / p of bp on one scale, doubled to make every probe an int
    scale, (u1, up) = _ticks([(1, b1.scale), (1, p * bp.scale)])
    x1, xp = [2 * u1 * t for t in b1.ticks], [2 * up * t for t in bp.ticks]
    events = sorted({*x1, *xp})
    probes = _midpoint_probes(events, 2 * scale)
    n = len(probes)
    below = {x: k for k, x in enumerate(events, 1)}  # probes lie between the events
    stats1, statsp = bar_stats(b1), bar_stats(bp)
    bars = max(s.finite_count + s.infinite_count for s in (stats1, statsp))
    dtype = np.int64 if bars < 2**61 else object
    c1 = _probe_counts(b1, [below[x] for x in x1], n, dtype)
    cp = _probe_counts(bp, [below[x] for x in xp], n, dtype)
    at = cache(lambda k: Fraction(probes[k], 2 * scale))  # a probe's value, for reported failures

    m_failures = [(at(k), int(c1.cover[k]), int(cp.cover[k])) for k in np.nonzero(c1.cover > cp.cover)[0]]
    beta1, betap = stats1.beta_tot, statsp.beta_tot
    beta_direct_ok = betap >= p * beta1
    # int m(t, bp) dt >= p int m(t, b1) dt, with t = p x in the first: each region
    # between events weighs the count difference at its probe by its length
    diff = cp.cover - c1.cover
    beta_integral_ok = sum(int(diff[k]) * (events[k] - events[k - 1]) for k in np.flatnonzero(diff).tolist()) >= 0

    window_failures = []
    whole1, wholep = int(c1.inf_in[-1]), int(cp.inf_in[-1])
    if whole1 > wholep:
        window_failures.append((ActionWindow(None, None), whole1, wholep))
    one_sided = (
        (lambda t: ActionWindow(None, t), c1.cover + c1.inf_in, cp.cover + cp.inf_in),
        (lambda t: ActionWindow(t, None), c1.cover - c1.inf_in + whole1, cp.cover - cp.inf_in + wholep),
    )
    for window, d1, dp in one_sided:
        window_failures += [(window(at(k)), int(d1[k]), int(dp[k])) for k in np.nonzero(d1 > dp)[0]]
    rows = max(1, _PAIR_BLOCK // (n + 1))
    for (lo, d1), (_, dp) in zip(_pair_dims(c1, rows), _pair_dims(cp, rows)):
        for r, j in zip(*np.nonzero(np.triu(d1 > dp, lo + 1))):
            window_failures.append((ActionWindow(at(lo + r), at(j)), int(d1[r, j]), int(dp[r, j])))
    return SmithBarcodeReport(
        p=p,
        m_ok=not m_failures,
        m_failures=tuple(m_failures),
        beta_tot_single=beta1,
        beta_tot_iterate=betap,
        beta_direct_ok=beta_direct_ok,
        beta_integral_ok=beta_integral_ok,
        window_ok=not window_failures,
        window_failures=tuple(window_failures),
    )


# ---------------------------------------------------------------------------
# torsion detection


def torsion_witness(b: Barcode) -> ActionWindow | None:
    """A window with closure avoiding 0 and positive dimension, if one exists.

    Assumes actions normalized so that a common infinite-bar starting point
    sits at 0.  Distinct infinite-bar starting points give a window around
    a nonzero extremal start; otherwise any finite bar yields a one-sided
    window, since (start, end) always contains nonzero points.  Returns
    None when all infinite bars share one starting point and no finite bar
    exists.  Every cut is an int on the level ticks times 4.
    """
    if not b.index_bars:
        raise EmptyBarcode("torsion detection needs a nonempty barcode")
    one, ticks, inf = 4 * b.scale, [4 * t for t in b.ticks], len(b.ticks)

    def cut(lo: int, hi: int) -> int:
        """The midpoint of even lo and the first level or even hi above lo."""
        k = bisect_right(ticks, lo)
        return (lo + (ticks[k] if k < inf and ticks[k] < hi else hi)) // 2

    def window(lo: int, hi: int) -> ActionWindow:
        return ActionWindow(Fraction(lo, one), Fraction(hi, one))

    starts = [ticks[s] for s, e, _ in b.index_bars if e == inf]  # sorted
    if starts and starts[-1] > starts[0]:
        s = starts[-1] or starts[0]
        r = abs(s) // 2
        return window(cut(s - r, s), cut(s, s + r))
    finite = next(((s, e) for s, e, _ in b.index_bars if e < inf), None)
    if finite is None:
        return None
    a, e = ticks[finite[0]], ticks[finite[1]]
    if e > 0:
        return window(cut(max(a, 0), e), cut(e, e + one))
    if e < 0:
        return window(cut(a, e), cut(e, 0))
    # e == 0: stay strictly negative on both sides
    return window(cut(a - one, a), cut(a, 0))


def _avoids_zero(w: ActionWindow) -> bool:
    """Whether the window lies on one side of action 0."""
    return (w.lower is not None and w.lower > 0) or (w.upper is not None and w.upper < 0)


# ---------------------------------------------------------------------------
# fixtures


def generate_iterated_barcode(b1: Barcode, p: int, extra_bars: int = 0, seed: int = 0) -> Barcode:
    """A barcode that provably passes smith_barcode_check against b1.

    Every bar of b1 is scaled by p; extra_bars random bars are appended.
    Scaled bars match the left side of every pointwise count exactly, and
    extra bars only increase the right side, so all checks pass.
    """
    out = list(scale_barcode(b1, p).bars)
    rng = random.Random(seed)
    for _ in range(max(0, int(extra_bars))):
        start = Fraction(rng.randint(-24, 24), rng.randint(1, 4))
        if rng.random() < 0.3:
            out.append(Bar(start, None, rng.randint(1, 3)))
        else:
            out.append(Bar(start, start + Fraction(rng.randint(1, 12), rng.randint(1, 4)), rng.randint(1, 3)))
    return Barcode(b1.p, out)


# ---------------------------------------------------------------------------
# JSON


def barcode_to_json(b: Barcode) -> dict:
    text = [_frac_str(x) for x in b.levels] + [None]  # an infinite end reads None
    return {"p": b.p, "bars": [{"start": text[s], "end": text[e], "mult": m} for s, e, m in b.index_bars]}


def barcode_from_json(data) -> Barcode:
    data = _json_object(data, "barcode")
    if "p" not in data:
        raise MalformedInput("barcode JSON needs a 'p' key")
    raw = data.get("bars", [])
    if not isinstance(raw, list):
        raise MalformedInput("'bars' must be a list")
    rows = []
    for item in raw:
        if not isinstance(item, dict) or "start" not in item:
            raise MalformedInput(f"bad bar entry: {_shown(item)}")
        start, end = _rational_pair(item["start"], "bar start"), item.get("end")
        end = None if end is None else _rational_pair(end, "bar end")
        m = _strict_int(item.get("mult", 1), "bar 'mult'")
        if m < 1 or end is not None and not start[0] * end[1] < end[0] * start[1]:
            Bar(Fraction(*start), None if end is None else Fraction(*end), m)  # raises the Bar's refusal
        rows.append((start, end, m))
    return Barcode._from_levels(_strict_int(data["p"], "'p'"), *_indexed(rows))

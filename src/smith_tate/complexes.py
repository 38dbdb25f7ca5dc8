"""Cochain complexes over F_p with Z/pZ-action and action filtration.

A complex is a finite set of generators, each carrying a cohomological
degree and a rational action value, together with a degree +1 differential
and a Z/pZ-action sigma: a degree- and action-preserving operator with
sigma^p = 1 commuting with the differential.  Every complex carries sigma;
one given none, or a generator given no sigma row, is fixed by it.  A
filtered complex also requires the differential to strictly decrease
action, which is what makes barcodes and the action spectral sequence well
defined.  The subclasses EquivariantComplex (given sigma) and
FilteredComplex (action rule checked) only name these inputs: the kind of
a complex read from JSON is what its payload holds.

Generators are stored sorted by id, as flat lists of ids, degrees and
actions, so matrix layouts, homology representatives, and JSON output are
reproducible across runs.  Filtration comparisons run on each generator's
index in a sorted table of the actions.  Coefficient maps {source id:
{target id: coefficient}} are the input format: d and sigma are read from
them once, by _read_columns, into their only stored form, sparse columns
keyed by generator index that keep every entry.  The structure checks
compose these columns sparsely; the coefficient maps and Generator objects
a complex shows are views built from them on first use; homology is read
off column reductions of them, class coordinates included.  numpy is
imported only inside the two functions that build or read arrays (_dense
and _sparse, for _compose's dense route and fp_core.column_rank), so
reading, checking, sparse products and homology run without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product, repeat
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import (
    InadmissibleWindow,
    InvalidComplex,
    MalformedInput,
    NotSquareZero,
    TooLarge,
    check_size,
)
from .fp_core import _check_matrix_prime, _matmul_mod, reduce_columns

if TYPE_CHECKING:
    import numpy as np

CoeffMap = dict[str, dict[str, int]]
# a square operator on the generators: column j is {target index: coefficient}
# of the image of generator j, nonzero residues only
Columns = list[dict[int, int]]


@dataclass(frozen=True, order=True)
class Generator:
    id: str
    degree: int
    action: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise MalformedInput("generator id must be a nonempty string")
        if not isinstance(self.action, Fraction):
            object.__setattr__(self, "action", Fraction(self.action))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checks: dict[str, bool]
    violations: list[str]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ActionWindow:
    """Half-open action interval (lower, upper]; None means infinite."""

    lower: Fraction | None = None
    upper: Fraction | None = None

    def __post_init__(self):
        lo = None if self.lower is None else Fraction(self.lower)
        hi = None if self.upper is None else Fraction(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo is not None and hi is not None and not lo < hi:
            raise InadmissibleWindow(f"need lower < upper, got ({lo}, {hi}]")

    def contains(self, a: Fraction) -> bool:
        if self.lower is not None and a <= self.lower:
            return False
        if self.upper is not None and a > self.upper:
            return False
        return True

    def scaled(self, factor: int) -> "ActionWindow":
        """The window factor * (lower, upper]; factor must be positive."""
        if factor <= 0:
            raise InadmissibleWindow("scale factor must be positive")
        lo = None if self.lower is None else self.lower * factor
        hi = None if self.upper is None else self.upper * factor
        return ActionWindow(lo, hi)

    def __repr__(self) -> str:
        lo = "-inf" if self.lower is None else str(self.lower)
        hi = "inf" if self.upper is None else str(self.upper)
        return f"ActionWindow(({lo}, {hi}])"


def _shown(v, text=repr) -> str:
    """v as a refusal message writes it: text(v), or its type when Python
    will not write that (an int of more than _MAX_DIGITS digits, or a
    container or rational holding one).  Never raises, so every refusal of
    outside input stays typed."""
    try:
        return text(v)
    except Exception:
        return f"of type {type(v).__name__}"


def _strict_int(v, what: str) -> int:
    """v as an int when it is one, or a float with an integral value.

    JSON payloads go through this, so that bools, nulls, strings and
    fractional floats raise MalformedInput instead of being truncated or
    crashing later.
    """
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise MalformedInput(f"{what} must be an integer, got {_shown(v)}")


def _triplets_from_json(trips, n: int, p: int) -> Columns:
    """The n columns over F_p of a JSON list of [row, col, value] triplets, each
    a 3-element list; a repeated (row, col) keeps its last value (0 mod p: none).
    More triplets than one dense block has cells, MAX_BLOCK_CELLS, raise TooLarge."""
    if not isinstance(trips, list):
        raise MalformedInput(f"a matrix must be a list of [row, col, value] triplets, got {_shown(trips)}")
    check_size("matrix triplets", len(trips), MAX_BLOCK_CELLS)
    cols: Columns = [{} for _ in range(n)]
    for t in trips:
        if not isinstance(t, list) or len(t) != 3:
            raise MalformedInput(f"bad matrix triplet: {_shown(t)}")
        r, c, v = (_strict_int(x, "matrix triplet entry") for x in t)
        if not (0 <= r < n and 0 <= c < n):
            raise MalformedInput(f"matrix triplet out of range: {_shown(t)}")
        cols[c][r] = v % p
    return [{r: v for r, v in col.items() if v} for col in cols]


def _triplets_to_json(a: Columns) -> list[list[int]]:
    """The entries of columns a as [row, col, value] triplets in row-major order."""
    return sorted([r, c, v] for c, col in enumerate(a) for r, v in col.items())


def _coeff_map(a: Columns, ids: list[str]) -> CoeffMap:
    """{source id: {target id: coefficient}} of a square operator's columns,
    whose indices follow ids; a zero column gets no entry."""
    return {ids[j]: {ids[i]: v for i, v in col.items()} for j, col in enumerate(a) if col}


def _sparse(m: np.ndarray) -> Columns:
    """The columns of a residue array, each {row: entry} over its nonzero
    entries in row order."""
    import numpy as np

    cols, rows = np.nonzero(m.T)
    keys, vals = rows.tolist(), m[rows, cols].tolist()
    ends = np.searchsorted(cols, np.arange(m.shape[1] + 1)).tolist()
    return [dict(zip(keys[x:y], vals[x:y])) for x, y in zip(ends, ends[1:])]


def _dense(a: Columns, rows: int) -> np.ndarray:
    """The rows x len(a) residue array of columns a; the inverse of _sparse.
    Callers bound its size by MAX_BLOCK_CELLS."""
    import numpy as np

    m = np.zeros((rows, len(a)), dtype=np.int64)
    lens = list(map(len, a))
    keys = np.fromiter(chain.from_iterable(a), dtype=np.int64, count=sum(lens))
    m[keys, np.repeat(np.arange(len(a)), lens)] = np.fromiter(chain.from_iterable(map(dict.values, a)), np.int64, len(keys))
    return m


# the most cells of one dense array, 32 MB of int64 (an n x n product that
# _compose runs dense, or a matrix fp_core.column_rank reduces dense), of one
# Bareiss parity block, and the most triplets of one matrix
MAX_BLOCK_CELLS = 1 << 22


# One multiply-add of _compose's sparse loop costs about as much as this
# many of _matmul_mod's BLAS product with its conversions: 0.155 us against
# 0.15 ns at n = 512 (2-core Xeon, numpy 2.4; 560 at n = 256, 1660 at 1024)
_BLAS_GAIN = 1024
# the dense route's fixed cost, its numpy calls, in sparse multiply-adds:
# about 17 us against 0.14 us at n <= 4 (same machine)
_DENSE_FIXED_STEPS = 128


def _compose(a: Columns, b: Columns, p: int) -> Columns:
    """The columns of a.b over F_p for a square operator a and columns b
    keyed below len(a): a square operator, or vectors such as cocycles.

    The sparse loop takes one multiply-add per entry of a_t for each entry
    t of each column of b.  The dense route converts about n^2 cells, one
    sparse step each, runs n^3 / _BLAS_GAIN steps' worth of BLAS and pays
    _DENSE_FIXED_STEPS; when the sparse count passes that and n^2 stays
    within MAX_BLOCK_CELLS, the product runs dense through _matmul_mod.
    This is the one choice of density for products, as fp_core.column_rank
    is for elimination: the sparse loop won below it and the dense route
    above it on random columns at n = 2 to 512.
    """
    n = len(a)
    work = sum(map(len, map(a.__getitem__, chain.from_iterable(b))))
    if work > n * n + n**3 // _BLAS_GAIN + _DENSE_FIXED_STEPS and n * n <= MAX_BLOCK_CELLS:
        m = _dense(a, n)
        return _sparse(_matmul_mod(m, m if b is a else _dense(b, n), p))
    out: Columns = []
    for col in b:
        if not col:
            out.append({})
        elif len(col) == 1:  # c times column t of a: p is prime, so nothing cancels
            for t, c in col.items():
                out.append({r: c * v % p for r, v in a[t].items()})
        else:
            acc: dict[int, int] = {}
            for t, c in col.items():
                for r, v in a[t].items():
                    acc[r] = acc.get(r, 0) + c * v
            out.append({r: x for r, v in acc.items() if (x := v % p)})
    return out


def _power(a: Columns, k: int, p: int) -> Columns:
    """a^k for k >= 1 in floor(log2 k) + popcount(k) - 1 compositions."""
    out, base = None, a
    while True:
        if k & 1:
            out = base if out is None else _compose(out, base, p)
        k >>= 1
        if not k:
            return out
        base = _compose(base, base, p)


def _affine(a: Columns, scale: int, shift: int, p: int) -> Columns:
    """The columns of scale * a + shift * 1 for a square operator a and a
    unit scale."""
    out: Columns = []
    for j, col in enumerate(a):
        col = {i: scale * v % p for i, v in col.items()}
        if v := (col.get(j, 0) + shift) % p:
            col[j] = v
        else:
            col.pop(j, None)
        out.append(col)
    return out


def _read_columns(raw, index: dict[str, int], p: int, what: str) -> tuple[Columns, list[tuple[int, int]]]:
    """(columns, entries) of a coefficient map {source id: {target id:
    coefficient}}, decoded JSON or a CoeffMap: one column per generator of
    index with every nonzero residue, empty for a generator without a row,
    and the (target, source) index pair of each residue in the map's order.
    Ids and coefficients are checked on the way: the first bad one is named."""
    cols: Columns = [{} for _ in index]
    entries = []
    for src, row in raw.items():
        j = index.get(src)
        if j is None:
            raise MalformedInput(f"{what} references unknown generator {src!r}")
        col = cols[j]
        for tgt, c in row.items():
            i = index.get(tgt)
            if i is None:
                raise MalformedInput(f"{what} references unknown generator {tgt!r}")
            if type(c) is not int:
                c = _strict_int(c, f"{what} coefficient for {src!r}->{tgt!r}")
            if c := c % p:
                col[i] = c
                entries.append((i, j))
    return cols, entries


def _out_of_range(entries, grade, lo, hi) -> list[tuple[int, int]]:
    """The (target, source) entries of an operator whose step
    grade[target] - grade[source] lies outside [lo, hi], in the given order.

    grade holds one integer per generator: its degree, or its index in the
    level table.  Every degree and action rule is one call: d raises degree
    by 1 and strictly lowers action, sigma keeps both, and the model term
    (i, alpha) has degree 1 - i + alpha.  lo or hi may be infinite.
    """
    return [(t, s) for t, s in entries if not lo <= grade[t] - grade[s] <= hi]


def _rotation_sign(word_degs) -> int:
    """Koszul sign of rotating the last tensor factor to the front."""
    return -1 if word_degs[-1] * sum(word_degs[:-1]) % 2 else 1


def _levels(actions: list[Fraction]) -> tuple[list[Fraction], list[int], int, tuple[int, ...]]:
    """(sorted distinct actions, each generator's index among them, and the
    scale and ticks of the sorted actions): the ticks are sorted."""
    # parsed generators share one Fraction per action: read only those
    objects = {id(a): a for a in actions}
    scale, ticks = _ticks(objects.values())
    action = dict(zip(ticks, objects.values()))
    at = {t: i for i, t in enumerate(sorted(action))}
    by_id = {k: at[t] for k, t in zip(objects, ticks)}
    return [action[t] for t in at], [by_id[id(a)] for a in actions], scale, tuple(at)


class ChainComplex:
    """Finite cochain complex over F_p with action-labelled generators and
    a Z/pZ-action.

    differential maps a generator id to the coefficient dict of its image;
    d must raise degree by exactly 1 and satisfy d(d(x)) = 0.  sigma, when
    one is given, maps each generator id to its image coefficients and must
    keep degree and action, satisfy sigma^p = 1 and commute with d; an
    omitted id, or every id of a complex given no sigma, is fixed.
    """

    # allowed steps grade(target) - grade(source) of each operator's entries,
    # in degree and in action level
    _RULES = {"differential": ((1, 1), (-math.inf, -1)), "sigma": ((0, 0), (0, 0))}
    # whether every construction checks that d strictly decreases action
    _strict = False

    def __init__(self, p: int, generators, differential: CoeffMap, *, check: bool = True):
        self._init(p, [(g.id, g.degree, g.action) for g in generators], (differential,), check)

    @classmethod
    def _of(cls, p: int, gens, *ops, check: bool = True, strict: bool = False):
        """A complex of this class from (id, degree, action) triples and its
        operators in _RULES order, d and optionally sigma, each a
        coefficient map or columns whose indices follow the sorted ids;
        strict also checks d's action rule."""
        self = cls.__new__(cls)
        self._init(p, gens, ops, check, strict)
        return self

    def _init(self, p, gens, ops, check, strict=False) -> None:
        """The one initialiser: store the generators sorted by id, read and
        check d (ops[0]), check its action rule when strict, then read and
        check sigma (ops[1]) when one is given; without one nothing of sigma
        is read or checked."""
        _check_matrix_prime(p)
        self.p = p
        gens = sorted(gens, key=lambda g: g[0])
        self._ids, self._degree, self._action = (list(x) for x in zip(*gens)) if gens else ([], [], [])
        self._index = {g: i for i, g in enumerate(self._ids)}
        if len(self._index) != len(gens):
            raise MalformedInput("generator ids must be unique")
        self._deg_index: dict[int, list[int]] = {}
        for i, k in enumerate(self._degree):
            self._deg_index.setdefault(k, []).append(i)
        self._level_table = _levels(self._action)
        self._homology_cache: dict[int, Columns] = {}
        self._norm_cache: Columns | None = None
        self._columns: dict[str, Columns] = {}
        # the identity breaks no rule of sigma
        self._verdicts: dict[str, tuple[list, list, list]] = {"sigma": ([], [], [])}
        self._take("differential", ops[0])
        if check and (bad := self._structure_violations()):
            raise InvalidComplex("; ".join(msg for _, msg in bad))
        if check and (strict or self._strict) and (bad := self.action_violations()):
            raise InvalidComplex(bad[0])
        if len(ops) > 1:
            self._take("sigma", ops[1])
            if check and (bad := self._sigma_violations()):
                raise InvalidComplex("; ".join(msg for _, msg in bad))

    # -- structure ---------------------------------------------------------

    def _take(self, op: str, given) -> None:
        """Store operator op from a coefficient map (read by _read_columns)
        or columns, and its verdict: the (target, source) entries breaking
        its degree rule, its action rule and either, in the map's order."""
        if type(given) is list:
            cols, entries = given, [(i, j) for j, col in enumerate(given) for i in col]
        else:
            cols, entries = _read_columns(given, self._index, self.p, op)
        (dlo, dhi), (alo, ahi) = self._RULES[op]
        degree = _out_of_range(entries, self._degree, dlo, dhi)
        action = _out_of_range(entries, self._level_table[1], alo, ahi)
        bad = {*degree, *action}
        self._columns[op] = cols
        self._verdicts[op] = (degree, action, [e for e in entries if e in bad] if bad else [])

    def columns(self, op: str) -> Columns:
        """The sparse columns of operator op, every entry kept; shared, so
        callers must not write to them.  sigma fixes a generator whose
        stored column is empty (it had no row) and, on a complex given no
        sigma, every generator."""
        if op == "differential":
            return self._columns[op]
        return [c or {j: 1} for j, c in enumerate(self._columns.get(op) or [{}] * len(self._ids))]

    def _graded_d(self) -> Columns:
        """The columns of d cut to the entries one degree up, which the
        composition checks compare: all of d unless one breaks that rule."""
        d, degree = self._columns["differential"], self._degree
        if not self._verdicts["differential"][0]:
            return d
        return [{i: v for i, v in col.items() if degree[i] == degree[j] + 1} for j, col in enumerate(d)]

    def _structure_violations(self) -> list[tuple[str, str]]:
        """(check, message) for each entry of d that does not raise degree
        by 1, then for each degree out of which d.d != 0, from one sparse
        composition taken again on every call."""
        ids = self._ids
        out = [
            ("degree_one_differential", f"d({ids[s]}) hits {ids[t]}, which is not one degree higher")
            for t, s in self._verdicts["differential"][0]
        ]
        d = self._graded_d()
        bad = {self._degree[j] for j, col in enumerate(_compose(d, d, self.p)) if col}
        return out + [("square_zero", f"d.d != 0 out of degree {k}") for k in sorted(bad)]

    def action_violations(self) -> list[str]:
        """One message per differential entry that does not strictly
        decrease action, the requirement for filtered use."""
        ids = self._ids
        return [
            f"d({ids[s]}) does not strictly decrease action at {ids[t]}"
            for t, s in self._verdicts["differential"][1]
        ]

    def _sigma_violations(self) -> list[tuple[str, str]]:
        """(check, message) for each sigma entry that changes degree or
        action, in the map's order; when there is none, for each degree
        where sigma^p != 1 or sigma does not commute with d."""
        degree, action, bad = self._verdicts["sigma"]
        if bad:
            ids, rules = self._ids, (("degree", set(degree)), ("action", set(action)))
            return [("sigma_structure", f"sigma({ids[s]}) changes {what}") for t, s in bad for what, rule in rules if (t, s) in rule]
        p, d, s = self.p, self._graded_d(), self.columns("sigma")
        commute = {self._degree[j] for j, (x, y) in enumerate(zip(_compose(d, s, p), _compose(s, d, p))) if x != y}
        out = []
        for k in self.degrees():
            if k in self._sigma_power_breaks:
                out.append(("sigma_structure", f"sigma^{p} != 1 in degree {k}"))
            if k in commute:
                out.append(("equivariance", f"sigma does not commute with d out of degree {k}"))
        return out

    @cached_property
    def _sigma_power_breaks(self) -> set[int]:
        """The degrees where sigma^p != 1, from one _power on first use:
        the check of a complex and algebraic_ss_pages both read it."""
        p = self.p
        return {self._degree[j] for j, col in enumerate(_power(self.columns("sigma"), p, p)) if col != {j: 1}}

    def validate(self, *, strict_action: bool = False) -> ValidationReport:
        """Check the structural invariants; never raises.

        strict_action additionally demands that d strictly decrease action,
        the requirement for filtered use.  Each check fails exactly when
        its own rule reports a violation.
        """
        checks = dict.fromkeys(
            ("unique_ids", "degree_one_differential", "square_zero", "sigma_structure", "equivariance"), True
        )
        found = self._structure_violations() + self._sigma_violations()
        if strict_action:
            checks["action_decrease"] = True
            found += [("action_decrease", msg) for msg in self.action_violations()]
        for check, _ in found:
            checks[check] = False
        return ValidationReport(all(checks.values()), checks, [msg for _, msg in found])

    def norm(self) -> Columns:
        """The sparse columns of N = 1 + sigma + ... + sigma^(p-1), computed
        once as (sigma - 1)^(p-1) by squaring; shared, so callers must not
        write to them.  (x - 1)^p = x^p - 1 = (x - 1)(1 + x + ... + x^(p-1))
        in F_p[x], which has no zero divisors, so the two polynomials agree
        for any square sigma."""
        if self._norm_cache is None:
            self._norm_cache = _power(_affine(self.columns("sigma"), 1, -1, self.p), self.p - 1, self.p)
        return self._norm_cache

    @cached_property
    def generators(self) -> tuple[Generator, ...]:
        """The generators sorted by id, a view built on first use."""
        return tuple(map(Generator, self._ids, self._degree, self._action))

    @cached_property
    def differential(self) -> CoeffMap:
        """d as a coefficient map, a view built on first use."""
        return _coeff_map(self._columns["differential"], self._ids)

    @cached_property
    def sigma(self) -> CoeffMap:
        """sigma as a coefficient map, a view built on first use: one row
        per generator the input gave a row with a nonzero residue."""
        return _coeff_map(self._columns.get("sigma", ()), self._ids)

    def degrees(self) -> list[int]:
        return sorted(self._deg_index)

    def dim(self, k: int | None = None) -> int:
        if k is None:
            return len(self._ids)
        return len(self._deg_index.get(k, []))

    def degree_indices(self, k: int) -> list[int]:
        return list(self._deg_index.get(k, []))

    def generator(self, gid: str) -> Generator:
        return self.generators[self._index[gid]]

    def index_of(self, gid: str) -> int:
        return self._index[gid]

    # -- homology ----------------------------------------------------------

    def _homology(self, k: int) -> Columns:
        """Cocycle representatives of a basis of H^k, cached: sparse columns
        {generator index: residue}, shared, so callers must not write to them.

        Two column reductions pick the basis that eliminating [d^(k-1) | Z | I]
        densely picks, Z the free-variable kernel basis of the row echelon
        form of d^k.  First each column of d^k, joined with its unit vector
        e_j keyed below d's rows, reduces; a column whose low lands in the e
        part is then e_j minus the combination of earlier independent columns
        of d^k that equals column j, which is that kernel vector.  Then the
        columns of d^(k-1), followed by the kernel vectors, reduce; the
        kernel vectors independent of all before them, those with a low,
        represent a basis of H^k.
        """
        if k not in self._homology_cache:
            d, idx, n, p = self._graded_d(), self._deg_index.get(k, []), len(self._ids), self.p
            cols = [{j: 1, **{n + i: v for i, v in d[j].items()}} for j in idx]
            ker = [col for col, lo in zip(cols, reduce_columns(cols, p)) if lo < n]
            image = [dict(d[j]) for j in self._deg_index.get(k - 1, [])]
            lows = reduce_columns(image + [dict(z) for z in ker], p)
            if len(lows) - lows.count(-1) != len(ker):
                # the image of d^(k-1) lies in ker d^k exactly when d^k d^(k-1) = 0
                raise NotSquareZero(f"the image of d^{k - 1} is not inside the kernel of d^{k}")
            self._homology_cache[k] = [z for z, lo in zip(ker, lows[len(image):]) if lo >= 0]
        return self._homology_cache[k]

    def _coordinates(self, k: int, queries: Columns) -> Columns:
        """The coordinates of the classes of the cocycles queries, sparse
        columns keyed by generator index, in the basis _homology(k): one
        sparse column {representative index: coordinate} per query.
        InvalidComplex if one is not a cocycle.

        One reduction of the columns of d^(k-1), the representatives and
        the queries: representative t carries tag key t, query i its own tag
        key h + i, and the generator keys sit above every tag.  A cocycle is
        a boundary plus a combination of representatives, so its generator
        part clears, and what is left is its own tag minus its coordinates
        on the representatives' tags; its own tag keeps it from reducing
        the next query.  A vector that is not a cocycle keeps a generator low.
        """
        reps, p = self._homology(k), self.p
        h = len(reps)
        top = h + len(queries)
        image = [{top + i: v for i, v in self._graded_d()[j].items()} for j in self._deg_index.get(k - 1, [])]
        tagged = [{t: 1, **{top + i: v for i, v in col.items()}} for t, col in enumerate(reps + queries)]
        lows = reduce_columns(image + tagged, p)
        if any(lo >= top for lo in lows[len(image) + h:]):
            raise InvalidComplex("vector is not a cocycle")
        return [{t: x for t in range(h) if (x := -col.get(t, 0) % p)} for col in tagged[h:]]

    def homology_dims(self) -> dict[int, int]:
        return {k: h for k in self.degrees() if (h := len(self._homology(k)))}

    # -- misc ----------------------------------------------------------------

    def actions(self) -> list[Fraction]:
        return list(self._level_table[0])

    def filtration_order(self) -> list[int]:
        """Generator indices sorted by (action, id): generators are stored
        by id, so a stable sort on the level index is enough."""
        return sorted(range(len(self._ids)), key=self._level_table[1].__getitem__)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, dims={ {k: self.dim(k) for k in self.degrees()} })"


class EquivariantComplex(ChainComplex):
    """A complex given its Z/pZ-action sigma: sigma maps each generator id
    to its image coefficients, and omitted ids act as the identity on that
    generator.  Its JSON carries a "sigma" key."""

    def __init__(self, p, generators, differential, sigma: CoeffMap | None = None, *, check=True):
        self._init(p, [(g.id, g.degree, g.action) for g in generators], (differential, sigma or {}), check)


class FilteredComplex(ChainComplex):
    """A complex whose differential strictly decreases action, checked at
    construction.  Its JSON carries "filtered": true."""

    _strict = True


# ---------------------------------------------------------------------------
# operations


# the most letters _word_power, and so tensor_power, writes: p * n ** p for
# n letters
MAX_TENSOR_LETTERS = 1 << 17


def _word_power(vec: dict, p: int) -> dict[tuple, int]:
    """The p-th tensor power of a vector {letter: coefficient} over F_p, as
    {word tuple: coefficient} in the product order of vec's letters; the
    letters whose coefficient is 0 mod p drop first.  More than
    MAX_TENSOR_LETTERS letters raise TooLarge before any word is built."""
    vec = {x: c for x, c in vec.items() if c % p}
    n = len(vec)
    if n > 1:  # p * n ** p passes the limit once p passes its bit length; it is not built then
        check_size("tensor power p with two or more generators", p, MAX_TENSOR_LETTERS.bit_length())
    check_size("tensor power letters (p * generators ** p)", p * n**p, MAX_TENSOR_LETTERS)
    out = {}
    for combo in product(vec.items(), repeat=p) if vec else ():  # product() takes p steps even on no letters
        word, coeffs = zip(*combo)
        coeff = 1
        for c in coeffs:
            coeff = coeff * c % p
        out[word] = coeff
    return out


def tensor_power(base: ChainComplex) -> EquivariantComplex:
    """p-fold tensor power with the signed cyclic permutation action.

    Word generators are tuples of base generators; degree and action add.
    The differential follows the Leibniz rule with Koszul signs, and sigma
    rotates factors with the Koszul sign of moving the last factor to the
    front.  The result is a genuine Z/pZ-complex for any base complex.
    More than MAX_TENSOR_LETTERS letters raise TooLarge before any word is
    built.
    """
    p = base.p
    _, level, scale, ticks = base._level_table
    ids, degs, tick = base._ids, dict(zip(base._ids, base._degree)), {x: ticks[k] for x, k in zip(base._ids, level)}

    def word_id(word: tuple[str, ...]) -> str:
        return "|".join(word)

    words = list(_word_power(dict.fromkeys(ids, 1), p))
    # actions add as int ticks, with one Fraction per distinct sum
    sums = [sum(tick[x] for x in w) for w in words]
    action = {t: Fraction(t, scale) for t in set(sums)}
    gens = [(word_id(w), sum(degs[x] for x in w), action[t]) for w, t in zip(words, sums)]
    diff: CoeffMap = {}
    for w in words:
        row: dict[str, int] = {}
        sign_deg = 0
        for i, x in enumerate(w):
            drow = base.differential.get(x)
            if drow:
                s = -1 if sign_deg % 2 else 1
                for tgt, c in drow.items():
                    nw = w[:i] + (tgt,) + w[i + 1:]
                    key = word_id(nw)
                    row[key] = (row.get(key, 0) + s * c) % p
            sign_deg += degs[x]
        row = {k: v for k, v in row.items() if v}
        if row:
            diff[word_id(w)] = row
    sigma: CoeffMap = {
        word_id(w): {word_id(w[-1:] + w[:-1]): _rotation_sign([degs[x] for x in w]) % p} for w in words
    }
    return EquivariantComplex._of(p, gens, diff, sigma)


def window_truncate(V: ChainComplex, window: ActionWindow):
    """Subquotient complex spanned by generators with action in the window.

    Entries of d and sigma leaving the window are dropped; for a filtered
    complex this is the quotient of one action sublevel by another, so the
    result is again a complex of the same kind.
    """
    levels, level = V._level_table[:2]
    lo = 0 if window.lower is None else bisect_right(levels, window.lower)
    hi = len(levels) if window.upper is None else bisect_right(levels, window.upper)
    new = {i: r for r, i in enumerate(i for i, k in enumerate(level) if lo <= k < hi)}
    ops = [[{new[i]: c for i, c in cols[j].items() if i in new} for j in new] for cols in V._columns.values()]
    return type(V)._of(V.p, [(V._ids[j], V._degree[j], V._action[j]) for j in new], *ops)


# ---------------------------------------------------------------------------
# JSON: the one codec of outside input.  Files are read once and hashed as
# read, all JSON text goes through _parse_json, and every rational written as
# text goes through _rational, or _rational_pair where plain text reads alike.

_MAX_DIGITS = 4300  # CPython's default limit on the digits of an int read from text
# the decimal exponent of a rational literal, where fractions.Fraction finds it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _frac_str(x: Fraction) -> str:
    """An exact rational as the "num/den" string that reports and barcode
    JSON use; TooLarge when a side has more digits than Python writes."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise TooLarge(f"a rational with more than {_MAX_DIGITS} digits in a numerator or denominator") from None


def _read_json_files(*paths: str) -> tuple[str, list]:
    """(sha256 of the files' bytes in order, the JSON value of each file);
    each file is opened once, and all are read before any is parsed."""
    h = hashlib.sha256()
    raw = []
    for path in paths:
        try:
            with open(path, "rb") as f:
                raw.append(f.read())
        except OSError as e:
            raise MalformedInput(f"cannot read {path}: {e}") from e
        h.update(raw[-1])
    return h.hexdigest(), [_parse_json(text, path) for text, path in zip(raw, paths)]


def _parse_json(text: str | bytes, source: str):
    """The value of JSON text, bytes read as UTF-8.  Invalid text, nesting
    too deep for the parser and an integer of more digits than Python reads
    from text raise MalformedInput naming source."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except json.JSONDecodeError as e:
        raise MalformedInput(f"{source}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise MalformedInput(f"{source}: JSON nested too deeply") from e
    except ValueError as e:  # not UTF-8, or an integer past the int-string limit
        raise MalformedInput(f"{source}: invalid JSON: {e}") from e


def _json_object(data, what: str) -> dict:
    """data as a dict, parsing it first when it is JSON text."""
    if isinstance(data, str):
        data = _parse_json(data, what)
    if not isinstance(data, dict):
        raise MalformedInput(f"{what} JSON must be an object")
    return data


def _rational(v, what: str) -> Fraction:
    """Fraction(v) for an int that is not a bool, read exactly whatever its
    digits; otherwise Fraction(str(v)) for text such as " -3/4",
    "1_000.5e-2" or "7", or a JSON number.  What Fraction refuses, a bool or
    a non-finite float included, raises MalformedInput.  So does a decimal
    exponent e with |e| >= _MAX_DIGITS, before any power is taken: 10**|e|
    has more than _MAX_DIGITS digits, and takes Fraction seconds to build at
    |e| = 10**7."""
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    try:
        text = v if isinstance(v, str) else str(v)
        exp = _EXPONENT.search(text)
        if exp and abs(int(exp[1])) >= _MAX_DIGITS:
            raise MalformedInput(f"bad {what} {_shown(v)}: its power of 10 has more than {_MAX_DIGITS} digits")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedInput(f"bad {what} {_shown(v)}") from e


def _rational_pair(v, what: str) -> tuple[int, int]:
    """(num, den > 0) of _rational(v, what), read without a Fraction from an
    int or ASCII "n" or "n/d" text of at most _MAX_DIGITS characters."""
    if type(v) is int:
        return v, 1
    if type(v) is str and len(v) <= _MAX_DIGITS and v.isascii():
        n, slash, d = v.partition("/")
        if n.removeprefix("-").isdigit() and (d.isdigit() or not slash) and (den := int(d or 1)):
            return int(n), den
    return _rational(v, what).as_integer_ratio()


def _ticks(values) -> tuple[int, list[int]]:
    """(L, ticks) of rationals given as Fractions or (num, den) pairs with
    den > 0: L is the lcm of the denominators, 1 for none, and each tick is
    the int x * L, so ticks sort, compare and subtract as the values do."""
    pairs = [x.as_integer_ratio() if isinstance(x, Fraction) else x for x in values]
    scale = math.lcm(*{d for _, d in pairs})
    return scale, [n * (scale // d) for n, d in pairs]


def _coeff_object(raw, key: str) -> dict:
    """raw when it is a JSON object of objects {id: {id: coefficient}}; the
    complex reads its ids and coefficients."""
    if not isinstance(raw, dict) or not all(isinstance(r, dict) for r in raw.values()):
        raise MalformedInput(f"{key!r} must map ids to coefficient objects")
    return raw


def _action_to_json(a: Fraction) -> dict:
    return {"num": a.numerator, "den": a.denominator}


def _action_from_json(v, interned: dict[tuple[int, int], Fraction]) -> Fraction:
    """The action v, one shared Fraction per repeated (num, den) pair."""
    if type(v) is dict and len(v) == 2 and type(n := v.get("num")) is int and type(d := v.get("den")) is int and d:
        key = (n, d)
        return interned[key] if key in interned else interned.setdefault(key, Fraction(n, d))
    if isinstance(v, int) and not isinstance(v, bool):
        v = {"num": v}
    if isinstance(v, dict) and "num" in v and set(v) <= {"num", "den"}:
        key = (_strict_int(v["num"], "action 'num'"), _strict_int(v.get("den", 1), "action 'den'"))
        if key[1]:
            return interned[key] if key in interned else interned.setdefault(key, Fraction(*key))
    raise MalformedInput(f"bad action value: {_shown(v)}")


def complex_to_json(V: ChainComplex) -> dict:
    out = {
        "p": V.p,
        "generators": [{"id": g, "degree": k, "action": _action_to_json(a)} for g, k, a in zip(V._ids, V._degree, V._action)],
        "differential": {s: dict(row) for s, row in sorted(V.differential.items())},
    }
    if "sigma" in V._columns:
        out["sigma"] = {s: dict(row) for s, row in sorted(V.sigma.items())}
    if isinstance(V, FilteredComplex):
        out["filtered"] = True
    return out


def complex_from_json(data):
    """Rebuild a complex from its JSON dict (or JSON string), reading every
    key the payload has: a "sigma" map is read and checked (ids,
    coefficients, the degree and action rules, sigma^p = 1 and
    d sigma = sigma d) and gives an EquivariantComplex, and without one
    sigma is the identity; "filtered": true checks that d strictly
    decreases action, and gives a FilteredComplex when there is no sigma.
    """
    data = _json_object(data, "complex")
    if "p" not in data or "generators" not in data:
        raise MalformedInput("complex JSON needs integer 'p' and 'generators'")
    p = _strict_int(data["p"], "'p'")
    raw_gens = data["generators"]
    if not isinstance(raw_gens, list):
        raise MalformedInput("'generators' must be a list")
    gens = []
    interned: dict[tuple[int, int], Fraction] = {}
    for item in raw_gens:
        if not isinstance(item, dict) or "id" not in item or "degree" not in item:
            raise MalformedInput(f"bad generator entry: {_shown(item)}")
        gid, degree = str(item["id"]), _strict_int(item["degree"], "generator degree")
        action = _action_from_json(item.get("action", 0), interned)
        if not gid:
            raise MalformedInput("generator id must be a nonempty string")
        gens.append((gid, degree, action))
    ops = [_coeff_object(data.get("differential", {}), "differential")]
    if "sigma" in data:
        ops.append(_coeff_object(data["sigma"], "sigma"))
    filtered = bool(data.get("filtered"))
    cls = EquivariantComplex if "sigma" in data else FilteredComplex if filtered else ChainComplex
    return cls._of(p, gens, *ops, strict=filtered)


# ---------------------------------------------------------------------------
# reports: the --json writer, input digests, sigma matrix files and window
# bounds, shared by the cli and fuzz subcommands

_FAILURE_DISPLAY_CAP = 20  # the most failures one report lists
# a sigma file's 'size' empty columns, about 70 bytes each, are allocated
# before its triplets are read
MAX_SIGMA_COLUMNS = 1 << 16

_escape = json.encoder.encode_basestring_ascii
# the text of a JSON scalar, by exact type; subclasses take the slow branch
_SCALAR_TEXT = {
    str: _escape,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    Fraction: lambda x: _escape(_frac_str(x)),
}


def _json_text(x) -> str:
    """json.dumps(x, indent=2, sort_keys=True), byte for byte, for a results
    tree once converted to plain JSON, written in one pass into one list.

    The conversion happens as it writes: exact rationals become "num/den"
    strings, an ActionWindow its {"lower", "upper"} object, an int subclass
    an int, a tuple a list, and a tuple key its members joined by commas
    (any other key its str).

    A list of records, dicts with one set of str keys and only scalars of
    _SCALAR_TEXT as values (the bars of a barcode report), is written in
    one formatting pass by _write_records; any other list, and every dict,
    member by member.
    """
    out: list[str] = []
    try:
        _write_json(x, "\n", out)
    except ValueError:  # from int.__repr__, past the int-string limit
        raise TooLarge(f"an integer of more than {_MAX_DIGITS} digits in a report") from None
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
        if type(x[0]) is dict and _write_records(x, nl, out):
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
    elif isinstance(x, int):
        out.append(int.__repr__(int(x)))
    else:
        raise TypeError(f"cannot write {type(x).__name__} as JSON")


def _write_records(x, nl: str, out: list) -> bool:
    """Append the text of a list of records, dicts with one nonempty set of
    str keys whose values are all scalars of _SCALAR_TEXT, and return True;
    for any other list write nothing and return False.

    The whole list is scanned before any value is converted.  Then each key
    is escaped once, each column of values converted with one function per
    type, and every member written through one row template, the keys' text
    interleaved with the columns and joined, so no key text is parsed."""
    first = x[0]  # most lists that do not qualify fail on their first member
    if not first or not all(type(k) is str for k in first) or not _SCALAR_TEXT.keys() >= set(map(type, first.values())):
        return False
    if {dict} != set(map(type, x)) or {len(first)} != set(map(len, x)):
        return False
    names = sorted(first)
    try:  # a member of len(first) keys has them all exactly when none is missing
        columns = [list(map(itemgetter(k), x)) for k in names]
    except KeyError:
        return False
    kinds = [set(map(type, col)) for col in columns]
    if not _SCALAR_TEXT.keys() >= set().union(*kinds):
        return False
    inner = nl + "  "
    field = "," + inner + "  "
    row = []  # the template: each key's fixed text, then its column's values
    for k, col, kind in zip(names, columns, kinds):
        row.append(repeat((field if row else "{" + field[1:]) + _escape(k) + ": "))
        row.append(map(_SCALAR_TEXT[kind.pop()], col) if len(kind) == 1 else [_SCALAR_TEXT[type(v)](v) for v in col])
    row.append(repeat(inner + "}"))
    out.append("[" + inner + ("," + inner).join(map("".join, zip(*row))) + nl + "]")
    return True


def _digest_params(*parts) -> str:
    text = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sigma matrix files: {"p": prime, "size": n, "matrix": [[row, col, value], ...]}


def _sigma_from_json(data) -> tuple[int, Columns]:
    """(p, the size sparse columns of sigma) of a sigma file."""
    data = _json_object(data, "sigma")
    if "p" not in data or "size" not in data:
        raise MalformedInput("sigma JSON needs integer fields 'p' and 'size'")
    p = _strict_int(data["p"], "'p'")
    n = _strict_int(data["size"], "'size'")
    _check_matrix_prime(p)
    if n < 0:
        raise MalformedInput("'size' must be nonnegative")
    check_size("sigma 'size'", n, MAX_SIGMA_COLUMNS)
    return p, _triplets_from_json(data.get("matrix", []), n, p)


def _sigma_to_json(p: int, sigma: Columns) -> dict:
    return {"p": p, "size": len(sigma), "matrix": _triplets_to_json(sigma)}


# window bounds: --window LO:HI, or a fuzz payload's [lo, hi] pair


def _parse_bound(v):
    """None for an open side: null, or "", "*", "inf", "+inf" or "-inf" in
    any case; else the rational v."""
    if v is None or isinstance(v, str) and v.strip().lower() in ("", "*", "inf", "+inf", "-inf"):
        return None
    return _rational(v, "window bound")

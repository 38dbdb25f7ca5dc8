"""Seeded generators of random instances for tests and the fuzz harness.

Every generator takes a seed (or a random.Random) and is deterministic for
a fixed seed.  Each square-zero differential is planted the same way: a
random matching between degree-adjacent generators (_matching) is
conjugated by P = I + E, whose entries (_draws) keep degree and never
raise action (_conjugated).  These invariants do not change under such a
filtered, equivariant change of basis, so validity is by construction and
each instance carries its provenance (planted data) where tests need an
oracle.  The bases are built unchecked; the conjugated complex is checked,
and P d P^-1 fails a check exactly when d does.  P, P^-1 and d stay sparse
columns, multiplied by complexes._compose; only the dense sigma sampler
random_sigma_matrix imports numpy, and multiplies on float64 BLAS.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import (
    ChainComplex,
    Columns,
    EquivariantComplex,
    FilteredComplex,
    Generator,
    _affine,
    _compose,
)
from .fp_core import FpMatrix, _matmul_mod, _row_reduce
from .persistence import Bar, Barcode, scale_barcode
from .spectral import EquivariantFloerModel
from .tate import tate_terms

__all__ = [
    "random_free_equivariant",
    "random_sigma_matrix",
    "random_sigma_with_multiplicities",
    "random_chain_complex",
    "random_filtered_complex",
    "planted_filtered_complex",
    "random_equivariant_filtered",
    "random_floer_model",
    "random_barcode",
    "adversarial_iterated_pair",
]


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _shuffled(rng: random.Random, items: list) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# planted matchings and unipotent changes of basis


def _matching(rng: random.Random, order: list, fits, skip: float):
    """Yield the pairs (src, tgt) of a random partial matching: walking
    order, each unused src is skipped with probability skip, else matched
    to a random unused tgt with fits(src, tgt).  A caller draws the pair's
    coefficients between yields."""
    used = set()
    for src in order:
        if src in used:
            continue
        targets = [t for t in order if t not in used and t != src and fits(src, t)]
        if not targets or rng.random() < skip:
            continue
        tgt = rng.choice(targets)
        used.update((src, tgt))
        yield src, tgt


def _draws(rng: random.Random, n: int, fits):
    """Yield the pairs (a, b) among 2n random draws from range(n) with
    fits(a, b); a caller draws each kept entry's value between yields."""
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if fits(a, b):
            yield a, b


def _unipotent_pair(n: int, p: int, entries: list[tuple[int, int, int]]) -> tuple[Columns, Columns]:
    """(P, P^-1) as sparse columns for P = I + E, E the sum of the given
    (row, col, val) triples; E must be nilpotent.  P^-1 = prod_k (I +
    (-E)^(2^k)) over the 2^k below the nilpotency index, so it takes
    O(log n) products through _compose."""
    e: Columns = [{} for _ in range(n)]
    for r, c, v in entries:
        e[c][r] = e[c].get(r, 0) + v
    e = [{r: x for r, v in col.items() if (x := v % p)} for col in e]
    inv, power, square = [{j: 1} for j in range(n)], 1, _affine(e, -1, 0, p)
    while any(square):
        if power >= n:
            raise ValueError("conjugation support is not nilpotent")
        inv = _compose(inv, _affine(square, 1, 1, p), p)
        square = _compose(square, square, p)
        power *= 2
    return _affine(e, 1, 1, p), inv


def _conjugate(pm: Columns, d: Columns, inv: Columns, p: int) -> Columns:
    """The columns of P d P^-1, each in ascending row order, the order of
    the coefficient maps a complex writes."""
    return [dict(sorted(col.items())) for col in _compose(pm, _compose(d, inv, p), p)]


def _conjugated(base: ChainComplex, entries: list[tuple[int, int, int]]) -> ChainComplex:
    """A checked complex of base's kind with its generators and sigma, and
    d replaced by P d P^-1 for P = I + E on the (row, col, val) entries.
    (P d P^-1)^2 = P d^2 P^-1, and P commutes with sigma, keeps degree and
    never raises action, so this check also covers an unchecked base."""
    p = base.p
    pm, inv = _unipotent_pair(base.dim(), p, entries)
    d = _conjugate(pm, base.columns("differential"), inv, p)
    _, *sigma = base._columns.values()
    return type(base)._of(p, zip(base._ids, base._degree, base._action), d, *sigma)


# ---------------------------------------------------------------------------
# free equivariant complexes


def random_free_equivariant(p: int, seed, max_blocks: int | None = None) -> EquivariantComplex:
    """A free F_p[Z/pZ]-complex: orbit blocks, a matched-pair differential
    with random circulant coefficients, and a random equivariant
    action-decreasing change of basis."""
    rng = _rng(seed)
    if max_blocks is None:
        max_blocks = max(1, 21 // p)
    m = rng.randint(1, max_blocks)
    degs = [rng.randint(-2, 3) for _ in range(m)]
    acts = [Fraction(rng.randint(0, 30), rng.choice((1, 2, 3))) for _ in range(m)]
    gens = [Generator(f"b{b}.{j}", degs[b], acts[b]) for b in range(m) for j in range(p)]
    sigma = {f"b{b}.{j}": {f"b{b}.{(j + 1) % p}": 1} for b in range(m) for j in range(p)}
    diff: dict[str, dict[str, int]] = {}
    order = _shuffled(rng, list(range(m)))
    for src, tgt in _matching(rng, order, lambda s, t: degs[t] == degs[s] + 1 and acts[t] < acts[s], 0.3):
        coeffs = [rng.randrange(p) for _ in range(p)]
        if not any(coeffs):
            coeffs[0] = 1 + rng.randrange(p - 1) if p > 1 else 1
        for j in range(p):
            diff[f"b{src}.{j}"] = {f"b{tgt}.{(j + i) % p}": c for i, c in enumerate(coeffs) if c}
    base = EquivariantComplex(p, gens, diff, sigma, check=False)
    entries = []  # equivariant conjugation: circulant maps toward lower action
    for a, b in _draws(rng, m, lambda a, b: degs[a] == degs[b] and acts[b] < acts[a]):
        shift, val = rng.randrange(p), 1 + rng.randrange(p - 1)
        for j in range(p):
            entries.append((base.index_of(f"b{b}.{(j + shift) % p}"), base.index_of(f"b{a}.{j}"), val))
    return _conjugated(base, entries)


# ---------------------------------------------------------------------------
# sigma matrices with planted module structure


def random_sigma_matrix(p: int, multiplicities, seed) -> FpMatrix:
    """An order-dividing-p matrix whose unipotent-part Jordan multiplicities
    are exactly the given tuple (m_1, ..., m_p for block sizes 1..p)."""
    import numpy as np

    rng = _rng(seed)
    if len(multiplicities) != p or any(m < 0 for m in multiplicities):
        raise ValueError("multiplicities must be p non-negative counts")
    sizes = [k + 1 for k, m in enumerate(multiplicities) for _ in range(m)]
    n = sum(sizes)
    j = np.eye(n, dtype=np.int64) + np.eye(n, k=1, dtype=np.int64)
    ends = np.cumsum(sizes, dtype=np.int64)[:-1] - 1
    j[ends, ends + 1] = 0  # no superdiagonal 1 across a block boundary
    if n == 0:
        return FpMatrix(j, p)
    # [q | I] has rank n, so q is invertible iff its n pivots all lie in q,
    # and then the reduction ends in [I | q^-1]
    while True:
        q = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        red, pivots = _row_reduce(np.concatenate([q, np.eye(n, dtype=np.int64)], axis=1), p)
        if pivots[-1] < n:
            return FpMatrix(_matmul_mod(_matmul_mod(q, j, p), red[:, n:], p), p)


def random_sigma_with_multiplicities(p: int, seed, max_dim: int = 12):
    """(sigma, multiplicities) with random planted Jordan structure."""
    rng = _rng(seed)
    mults = [0] * p
    budget = rng.randint(1, max_dim)
    while budget > 0:
        size = rng.randint(1, min(p, budget))
        mults[size - 1] += 1
        budget -= size
    mults = tuple(mults)
    return random_sigma_matrix(p, mults, rng), mults


# ---------------------------------------------------------------------------
# plain chain complexes


def random_chain_complex(p: int, seed, max_dim: int = 6, degree_lo: int = -1, degree_hi: int = 3) -> ChainComplex:
    """A random complex: planted matching conjugated by a random unipotent
    degree-preserving change of basis."""
    rng = _rng(seed)
    n = rng.randint(1, max_dim)
    degs = [rng.randint(degree_lo, degree_hi) for _ in range(n)]
    gens = [Generator(f"v{i}", degs[i], 0) for i in range(n)]
    order = _shuffled(rng, list(range(n)))
    matched = _matching(rng, order, lambda s, t: degs[t] == degs[s] + 1, 0.35)
    base = ChainComplex(p, gens, {f"v{s}": {f"v{t}": 1 + rng.randrange(p - 1)} for s, t in matched}, check=False)
    position = {v: i for i, v in enumerate(order)}
    kept = _draws(rng, n, lambda a, b: degs[a] == degs[b] and position[a] < position[b])
    return _conjugated(base, [(base.index_of(f"v{b}"), base.index_of(f"v{a}"), rng.randrange(p)) for a, b in kept])


# ---------------------------------------------------------------------------
# filtered complexes


def _random_levels(rng: random.Random, count: int) -> list[Fraction]:
    vals = set()
    while len(vals) < count:
        vals.add(Fraction(rng.randint(-12, 24), rng.choice((1, 2, 4))))
    return sorted(vals)


def random_filtered_complex(
    p: int, seed, max_gens: int = 15, max_levels: int = 6, degree_lo: int = -1, degree_hi: int = 3
) -> FilteredComplex:
    """A random strictly action-filtered complex with a generic square-zero
    differential (planted matching + action-decreasing conjugation)."""
    rng = _rng(seed)
    n = rng.randint(1, max_gens)
    levels = _random_levels(rng, rng.randint(1, max_levels))
    degs = [rng.randint(degree_lo, degree_hi) for _ in range(n)]
    acts = [rng.choice(levels) for _ in range(n)]
    gens = [Generator(f"v{i}", degs[i], acts[i]) for i in range(n)]
    order = _shuffled(rng, list(range(n)))
    matched = _matching(rng, order, lambda s, t: degs[t] == degs[s] + 1 and acts[t] < acts[s], 0.3)
    base = FilteredComplex(p, gens, {f"v{s}": {f"v{t}": 1 + rng.randrange(p - 1)} for s, t in matched}, check=False)
    kept = _draws(rng, n, lambda a, b: degs[a] == degs[b] and acts[b] < acts[a])
    return _conjugated(base, [(base.index_of(f"v{b}"), base.index_of(f"v{a}"), rng.randrange(p)) for a, b in kept])


def planted_filtered_complex(p: int, finite_bars, infinite_starts, seed, degree_lo: int = 0):
    """(complex, barcode) realizing the given bars exactly.

    Each finite (a, b] becomes a matched generator pair dying at b; each
    infinite start becomes an untouched generator; the whole complex is then
    conjugated by an action-decreasing unipotent map, which does not change
    the barcode.
    """
    rng = _rng(seed)
    gens = []
    diff: dict[str, dict[str, int]] = {}
    bars = []
    i = 0
    for a, b, mult in finite_bars:
        a, b = Fraction(a), Fraction(b)
        for _ in range(mult):
            k = degree_lo + rng.randint(0, 2)
            gens.append(Generator(f"t{i}", k + 1, a))
            gens.append(Generator(f"s{i}", k, b))
            diff[f"s{i}"] = {f"t{i}": 1 + rng.randrange(p - 1)}
            i += 1
        bars.append(Bar(a, b, mult))
    for j, a in enumerate(infinite_starts):
        gens.append(Generator(f"e{j}", degree_lo + rng.randint(0, 3), Fraction(a)))
        bars.append(Bar(Fraction(a), None))
    base = FilteredComplex(p, gens, diff, check=False)
    deg, act = base._degree, base._action
    kept = _draws(rng, len(deg), lambda x, y: deg[x] == deg[y] and act[y] < act[x])
    return _conjugated(base, [(y, x, rng.randrange(p)) for x, y in kept]), Barcode(p, bars)


# ---------------------------------------------------------------------------
# equivariant filtered complexes and models


def _unit_map(rng: random.Random, p: int, src: list[str], tgt: list[str]) -> list[tuple[str, str]]:
    """The (source id, target id) entries of an equivariant map from one
    unit to another, each unit the ids of a free orbit or of one trivial
    generator: x.j -> y.(j + shift) between orbits, for a drawn shift, and
    every pair otherwise."""
    if len(src) == len(tgt) == p:
        shift = rng.randrange(p)
        return [(s, tgt[(j + shift) % p]) for j, s in enumerate(src)]
    return [(s, t) for s in src for t in tgt]


def random_equivariant_filtered(
    p: int, seed, max_orbits: int = 3, max_trivial: int = 4, degree_lo: int = -1, degree_hi: int = 2
) -> EquivariantComplex:
    """An equivariant, strictly action-filtered complex mixing free orbits
    and trivial generators, with an equivariant matched-pair differential
    and an equivariant action-decreasing change of basis."""
    rng = _rng(seed)
    n_orb = rng.randint(0, max_orbits)
    n_triv = rng.randint(0 if n_orb else 1, max_trivial)
    units = [[f"o{b}.{j}" for j in range(p)] for b in range(n_orb)] + [[f"t{t}"] for t in range(n_triv)]
    degs = [rng.randint(degree_lo, degree_hi) for _ in units]
    levels = _random_levels(rng, rng.randint(1, 4))
    acts = [rng.choice(levels) for _ in units]
    gens = [Generator(g, degs[u], acts[u]) for u, ids in enumerate(units) for g in ids]
    sigma = {ids[j]: {ids[(j + 1) % p]: 1} for ids in units[:n_orb] for j in range(p)}
    diff: dict[str, dict[str, int]] = {}
    order = _shuffled(rng, list(range(len(units))))
    for s, t in _matching(rng, order, lambda s, t: degs[t] == degs[s] + 1 and acts[t] < acts[s], 0.3):
        val = 1 + rng.randrange(p - 1)
        for x, y in _unit_map(rng, p, units[s], units[t]):
            diff.setdefault(x, {})[y] = val
    base = EquivariantComplex(p, gens, diff, sigma, check=False)
    entries = []
    for a, b in _draws(rng, len(units), lambda a, b: degs[a] == degs[b] and acts[b] < acts[a]):
        val = 1 + rng.randrange(p - 1)
        entries.extend((base.index_of(y), base.index_of(x), val) for x, y in _unit_map(rng, p, units[a], units[b]))
    return _conjugated(base, entries)


def random_floer_model(p: int, seed, deform: bool = True, **kwargs) -> EquivariantFloerModel:
    """A valid equivariant model over a genuine base; with deform, the
    default differential is conjugated by Q = I + uR for a random R of
    degree -2 strictly decreasing action, which plants higher parameter
    terms while preserving all page dimensions over the Novikov variable.

    uR has degree 0, so the conjugated differential is homogeneous and is
    fixed by its value Q(1) M(1) Q(1)^-1 at u = 1 together with the
    degrees: each default term, the block theta^alpha -> theta^eps of
    M(1), is conjugated by Q(1) on its own, and its entry (r, c) belongs
    to the term d_alpha^i with i = 1 + alpha - (deg r - deg c), which
    carries u^(i // 2) and has i = eps mod 2.  R strictly lowers action, so
    E = R(1) is nilpotent and _unipotent_pair inverts Q(1) exactly.
    """
    rng = _rng(seed)
    base = random_equivariant_filtered(p, rng, **kwargs)
    n, deg = base.dim(), base._degree
    # the default terms d, 1 - sigma, -d and N: shared columns, only read
    blocks = tate_terms(base)
    if deform and n:
        level = base._level_table[1]
        drawn: dict[tuple[int, int], int] = {}
        for x, y in _draws(rng, n, lambda x, y: deg[y] == deg[x] - 2 and level[y] < level[x]):
            drawn[(y, x)] = rng.randrange(p)
        q, qinv = _unipotent_pair(n, p, [(y, x, v) for (y, x), v in drawn.items()])
        blocks = {slot: _conjugate(q, m, qinv, p) for slot, m in blocks.items()}
    terms = {}
    for (_, alpha), m in blocks.items():
        split: dict[int, Columns] = {}
        for c, col in enumerate(m):
            for r, v in col.items():
                split.setdefault(1 + alpha - (deg[r] - deg[c]), [{} for _ in range(n)])[c][r] = v
        terms.update(((i, alpha), split[i]) for i in sorted(split))
    if (0, 1) in terms:
        raise RuntimeError("the conjugated differential has a term in the (i=0, alpha=1) slot")
    i_max = max((i for i, _ in terms), default=2)
    return EquivariantFloerModel(base, terms, max(2, i_max))


# ---------------------------------------------------------------------------
# barcodes


def random_barcode(
    p: int,
    seed,
    max_bars: int = 8,
    normalized: bool = False,
    distinct_infinite: bool = False,
    allow_finite: bool = True,
) -> Barcode:
    """A random barcode.  normalized: all infinite bars start at 0 and no
    finite bars appear (identity-like).  distinct_infinite: at least two
    infinite bars with different starting points."""
    rng = _rng(seed)
    bars = []
    if normalized:
        for _ in range(rng.randint(1, max_bars)):
            bars.append(Bar(Fraction(0), None, rng.randint(1, 3)))
        return Barcode(p, bars)
    count = rng.randint(1, max_bars)
    for _ in range(count):
        start = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4)))
        if not allow_finite or rng.random() < 0.4:
            bars.append(Bar(start, None, rng.randint(1, 3)))
        else:
            bars.append(Bar(start, start + Fraction(rng.randint(1, 10), rng.choice((1, 2))), rng.randint(1, 3)))
    if distinct_infinite:
        starts = {b.start for b in bars if not b.finite}
        while len(starts) < 2:
            s = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
            if s not in starts:
                bars.append(Bar(s, None))
                starts.add(s)
    return Barcode(p, bars)


def adversarial_iterated_pair(b1: Barcode, p: int, seed):
    """(b1, bp) where bp is the scaled barcode with one finite bar's
    multiplicity reduced; the count inequality must fail at that bar."""
    rng = _rng(seed)
    scaled = scale_barcode(b1, p)
    finite = [i for i, bar in enumerate(scaled.bars) if bar.finite]
    if not finite:
        raise ValueError("need at least one finite bar to delete")
    k = rng.choice(finite)
    bars = []
    for i, bar in enumerate(scaled.bars):
        if i == k:
            if bar.multiplicity > 1:
                bars.append(Bar(bar.start, bar.end, bar.multiplicity - 1))
        else:
            bars.append(bar)
    return b1, Barcode(b1.p, bars)

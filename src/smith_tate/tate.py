"""Group and Tate cohomology of Z/pZ-complexes, and the quasi-Frobenius map.

The Tate construction tensors a Z/pZ-complex V with the complete periodic
resolution: over the graded field F_p((u)) (|u| = 2, exterior theta with
|theta| = 1) the equivariant complex becomes a 2n-dimensional module with
differential

    d(x ox 1)     = d_V x ox 1 + (1 - sigma) x ox theta
    d(x ox theta) = -d_V x ox theta + u N x ox 1,      N = 1 + sigma + ... + sigma^(p-1)

whose square vanishes because N (1 - sigma) = 0 and d_V commutes with both.
Everything 2-periodic collapses onto parity, so Tate cohomology is reported
as a pair (even, odd) of F_p((u))-dimensions.

One set of sparse columns of V<1, theta> (tate_columns, the terms of
tate_terms placed by assemble) serves every result here.  Tate ranks are
F_p ranks of its two parity blocks at u = 1, or ranks of the same blocks
over F_p[u] by ratfun.bareiss_rank, whose unit pivots take most of a
sparse block before any fraction-free step.  Group cohomology is the
first-quadrant part of the same complex: its total map from degree k is
the parity-k block cut to generators of degree <= k, so above the top
degree of V it is Tate cohomology.  d raises degree by 1 and sigma and
N keep it, so that cut holds whole columns, and one column reduction in
degree order counts every cut's rank.  All of it runs on the sparse
columns alone, as does the quasi-Frobenius.  The Bareiss route writes its
polynomial blocks straight from the same columns; only it imports ratfun
and numpy.

The quasi-Frobenius sends a cohomology class [z] of V to [z^(ox p)] in the
Tate cohomology of the p-fold tensor power with rotation action.  On the
Kunneth model H(V)^(ox p) the rotation fixes the diagonal words and permutes
the rest freely, which is what makes the map an isomorphism onto the Tate
part.  Additivity holds up to norms: a certificate takes the defect of
(a x + b y)^(ox p) on the words of tensor_power of two letters, checks it
against that complex's sigma columns, and reads a witness w with
N(w) = defect off one reduce_columns of its norm() columns.  The p-fold
words of chain_map and of the defect both come from
complexes._word_power, under tensor_power's letter budget.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from . import fp_core
from .complexes import MAX_BLOCK_CELLS, ChainComplex, Columns, Generator, _affine, _compose, _word_power, tensor_power
from .errors import InvalidComplex, MalformedInput, check_size
from .fp_core import column_rank, reduce_columns

# ---------------------------------------------------------------------------
# the Tate complex


def tate_terms(V: ChainComplex) -> dict[tuple[int, int], Columns]:
    """The default terms {(0, 0): d, (1, 0): 1 - sigma, (1, 1): -d, (2, 1): N}
    of the Tate differential as sparse columns: term (i, alpha) is
    u^(i // 2) d_alpha^i from theta^alpha to theta^(i mod 2) (see assemble).
    This is the one source of Tate data: Tate and group cohomology and the
    default terms of equivariant models all read it.

    Every u = 1 computation relies on d raising degree by 1 and sigma
    keeping it (so N = (sigma - 1)^(p-1) keeps it too).  Both rules are
    read off the complex's degree verdicts, taken as it read d and sigma,
    also for a complex built with check=False; InvalidComplex names the
    first breaking entry in row-major order.
    """
    for what, op, shift in (("d", "differential", 1), ("sigma", "sigma", 0)):
        bad = V._verdicts[op][0]
        if bad:
            r, c = min(bad)
            raise InvalidComplex(
                f"{what} does not shift degree by {shift} at {V._ids[c]} -> "
                f"{V._ids[r]}: the Tate differential is not homogeneous"
            )
    p, d = V.p, V.columns("differential")
    return {(0, 0): d, (1, 0): _affine(V.columns("sigma"), -1, 1, p), (1, 1): _affine(d, -1, 0, p), (2, 1): V.norm()}


def assemble(terms: dict[tuple[int, int], Columns], n: int, p: int) -> Columns:
    """The 2n sparse columns of a block differential on V<1, theta> at
    u = 1 from its n-column terms of nonzero residues: term (i, alpha) maps
    the labels j + n * alpha into the labels r + n * (i mod 2), and terms
    that share a block add mod p."""
    out: Columns = [{} for _ in range(2 * n)]
    for (i, alpha), cols in terms.items():
        shift = n * (i % 2)
        for acc, col in zip(out[n * alpha:], cols):
            for r, v in col.items():
                r += shift
                if r in acc and not (v := (acc.pop(r) + v) % p):
                    continue  # the terms cancel here
                acc[r] = v
    return out


def tate_columns(V: ChainComplex) -> Columns:
    """The 2n sparse columns of d-hat at u = 1, M(1) = [[d, N], [1 - sigma,
    -d]], with N carrying u; label (i, theta^eps) has index i + n * eps."""
    return assemble(tate_terms(V), V.dim(), V.p)


def _parities(degrees: list[int]) -> list[int]:
    """The total parity (degree + eps) mod 2 of every label i + n * eps.
    The differential is odd, so it maps each parity into the other.  A
    degree of 2^62 or more in size raises TooLarge."""
    check_size("largest |generator degree|", max(map(abs, degrees), default=0), 2**62 - 1)
    return [k % 2 for k in degrees] + [(k + 1) % 2 for k in degrees]


def _pivot_degrees(degrees: list[int], columns: Columns, p: int) -> list[list[int]]:
    """For parity 0 and 1, the sorted degrees k at which the pivots of the
    block out of that parity enter its cut to rows of generator degree
    <= k + 1 and columns of degree <= k.

    One fp_core.reduce_columns runs on copies of all 2n columns, stably
    sorted by degree; d-hat is odd, so the parity blocks share no row.  A
    column of degree k has entries only in rows of degree k and k + 1, so
    the cut holds all columns of degree <= k, and its rank is the number
    of pivot columns among them, whatever the rows' order.
    """
    parity, deg = _parities(degrees), degrees * 2
    order = sorted(range(len(deg)), key=deg.__getitem__)
    lows = fp_core.reduce_columns([dict(columns[x]) for x in order], p)
    return [[deg[x] for x, lo in zip(order, lows) if lo >= 0 and parity[x] == par] for par in (0, 1)]


def _parity_dims(degrees: list[int], columns: Columns, p: int) -> tuple[int, int]:
    """(even, odd) homology dims of the block differential with these
    columns, from their pivot count, a rank for any column order: each
    generator gives one label of each parity."""
    r = sum(map(len, _pivot_degrees(degrees, columns, p)))
    return len(degrees) - r, len(degrees) - r


def tate_cohomology_dims(V: ChainComplex, *, method: str = "evaluation") -> tuple[int, int]:
    """(even, odd) dimensions of the Tate cohomology of V over F_p((u)).

    With |u| = 2 and |theta| = 1, d-hat is homogeneous of degree +1, so each
    parity block is M(u) = diag(u^a) M(1) diag(u^-b) and has the F_p rank of M(1).
    method="evaluation" (default) takes those ranks at u = 1 from one
    column reduction of both parity blocks; method="bareiss" runs
    ratfun.bareiss_rank, unit pivots and then fraction-free elimination, on
    the same parity blocks over F_p[u], with u on the
    entries of N, the independent route, checking both blocks' limits from
    their shapes and entry degrees before it builds either.  Both raise
    InvalidComplex on an inhomogeneous V.
    """
    if method not in ("evaluation", "bareiss"):
        raise ValueError(f"unknown method {method!r}")
    degrees = V._degree
    columns = tate_columns(V)
    if method == "evaluation":
        return _parity_dims(degrees, columns, V.p)
    from . import ratfun  # read at call time, so a wrapper set on the module sees the calls

    p, n, parity = V.p, len(degrees), _parities(degrees)
    even, odd = [x for x, e in enumerate(parity) if not e], [x for x, e in enumerate(parity) if e]

    # refuse either block before building one.  Both have |odd| x |even|
    # cells.  N maps theta^1 labels (columns >= n) to theta^0 labels (rows
    # < n), so its entries carry u; d-hat is odd, so every entry of a column
    # lies in its block's rows, and a block's entry degree is read off its columns
    cuts = (odd, even), (even, odd)
    check_size("Bareiss block out of the even labels (rows x columns)", len(odd) * len(even), MAX_BLOCK_CELLS)
    for rows, cols in cuts:
        deg = max((int(r < n <= c) for c in cols for r in columns[c]), default=-1)
        if deg >= 0:
            ratfun._check_limits(len(rows), len(cols), deg, p)

    def poly_block(rows, cols):
        block = {r: [()] * len(cols) for r in rows}
        for t, c in enumerate(cols):
            for r, x in columns[c].items():
                block[r][t] = ratfun.pupow(int(r < n <= c), x, p)
        return list(block.values())

    r_e, r_o = (ratfun.bareiss_rank(poly_block(*cut), p) for cut in cuts)
    return len(even) - r_e - r_o, len(odd) - r_o - r_e


# degrees a group cohomology report may span
MAX_GROUP_DEGREES = 10_000


def group_cohomology_dims(V: ChainComplex, max_degree: int | None = None) -> dict[int, int]:
    """Hypercohomology dimensions H^k(Z/pZ, V) for k up to max_degree.

    The first-quadrant double complex with horizontal maps alternating
    (1 - sigma) and the norm N puts generator x of degree j in column
    i = k - j of total degree k; reading theta's exponent as i mod 2, that
    is the Tate label of parity k.  So the total map from degree k to k + 1
    is the u = 1 parity block out of parity k, restricted to columns of
    generator degree <= k and rows of generator degree <= k + 1, whose rank
    one column reduction counts (_pivot_degrees).  Once k >= max degree of
    V nothing is cut off, so H^k is the Tate dimension of parity k above
    the top degree (periodicity of cyclic group cohomology).  Default
    max_degree leaves room to watch the dimensions go 2-periodic.  The
    result has one entry per degree, so max_degree - dmin above
    MAX_GROUP_DEGREES raises TooLarge; below dmin it is empty.
    """
    if V.dim() == 0:
        return {}
    degrees = V._degree
    dmin, dmax = min(degrees), max(degrees)
    if max_degree is None:
        max_degree = dmax + 2 * (dmax - dmin + 1) + 4
    if max_degree < dmin:
        return {}
    check_size("max_degree - dmin", max_degree - dmin, MAX_GROUP_DEGREES)
    enter, cochains = _pivot_degrees(degrees, tate_columns(V), V.p), sorted(degrees)
    # r[k - dmin + 1]: the pivots inside parity k's cut; H^k's cochains: degree <= k
    r = [bisect_right(enter[k % 2], k) for k in range(dmin - 1, max_degree + 1)]
    return {k: bisect_right(cochains, k) - r[k - dmin + 1] - r[k - dmin] for k in range(dmin, max_degree + 1)}


# ---------------------------------------------------------------------------
# quasi-Frobenius


@dataclass(frozen=True)
class AdditivityCertificate:
    """Witness that F(ax + by) - a F(x) - b F(y) is a norm.

    defect lives in the span of non-diagonal words of the Kunneth model;
    witness solves N(witness) = defect, read off one column reduction of N
    on tensor_power's words, and is empty when the defect is not a norm.
    """

    degree: int
    left: str
    right: str
    left_coeff: int
    right_coeff: int
    defect: dict
    witness: dict
    constant_component_zero: bool
    invariant: bool
    verified: bool


@dataclass
class QuasiFrobeniusResult:
    p: int
    labels: list[str]
    degrees: dict[str, int]
    target_degrees: dict[str, int]
    chain_map: dict[str, dict[str, int]]
    induced_matrix: list[list[int]]  # rows
    source_parity_dims: tuple[int, int]
    target_parity_dims: tuple[int, int]
    is_bijective: bool
    certificates: list[AdditivityCertificate] = field(default_factory=list)


def _certificate(T: ChainComplex, k: int, la: str, lb: str, a: int, b: int) -> AdditivityCertificate:
    """The certificate of the labels la, lb of degree k and coefficients a,
    b, on T, the tensor power of generators "a" and "b" with d = 0: T's
    words are those of the two labels, and its sigma and norm act on them
    as on words of any one degree."""
    p, n = T.p, T.dim()
    # defect = (a x + b y)^(ox p) - a^p x^(ox p) - b^p y^(ox p), in words over
    # the two labels; Fermat turns the diagonal coefficients a^p, b^p back
    # into a, b, which is exactly the semilinearity the map claims.
    defect = _word_power({la: a, lb: b}, p)
    for x, c in ((la, a), (lb, b)):
        defect[(x,) * p] = (defect.get((x,) * p, 0) - pow(c, p, p)) % p
    defect = {w: c for w, c in defect.items() if c}
    constant_zero = (la,) * p not in defect and (lb,) * p not in defect
    letter, label = {la: "a", lb: "b"}, {"a": la, "b": lb}
    col = {T.index_of("|".join(letter[x] for x in w)): c for w, c in defect.items()}
    invariant = _compose(T.columns("sigma"), [col], p) == [col]
    # one reduction of N's columns and then the defect, tagged as in
    # ChainComplex._coordinates: N's column j carries tag key j, the defect
    # tag key n, and the word keys sit above every tag.  The defect is a
    # norm exactly when its word part clears, leaving its own tag as its
    # low; its other tags, negated, are then a witness w with N(w) = defect
    cols = [{j: 1, **{n + 1 + r: v for r, v in c.items()}} for j, c in enumerate(T.norm())]
    cols.append({n: 1, **{n + 1 + r: v for r, v in col.items()}})
    is_norm = reduce_columns(cols, p)[-1] == n
    witness = {tuple(label[x] for x in T._ids[j].split("|")): -v % p for j, v in sorted(cols[-1].items()) if j < n}
    return AdditivityCertificate(
        degree=k,
        left=la,
        right=lb,
        left_coeff=a,
        right_coeff=b,
        defect=defect,
        witness=witness if is_norm else {},
        constant_component_zero=constant_zero,
        invariant=invariant,
        verified=constant_zero and invariant and is_norm,
    )


def quasi_frobenius(
    V: ChainComplex,
    *,
    max_certificates: int | None = None,
    coefficient_pairs: list[tuple[int, int]] | None = None,
) -> QuasiFrobeniusResult:
    """The p-power map from the cohomology of V into the Tate cohomology of
    its p-fold tensor power, with an explicit chain-level lift.

    Works on the Kunneth model: H(V)^(ox p) with the signed rotation splits
    sigma-equivariantly into diagonal words (trivial modules, surviving to
    Tate) and free orbits (Tate-invisible).  The induced matrix is square of
    size dim H(V), with source degrees rescaled by p; certificates witness
    additivity failures as norms.  A max_certificates below 0 raises
    MalformedInput.
    """
    if max_certificates is not None and max_certificates < 0:
        raise MalformedInput(f"max_certificates must be at least 0, got {max_certificates}")
    p = V.p
    labels: list[str] = []
    degrees: dict[str, int] = {}
    chain_map: dict[str, dict[str, int]] = {}
    # the induced map's columns, block diagonal by degree: [z^(ox p)] has
    # diagonal-word coordinates given by the p-th powers of the
    # H(V)-coordinates of [z]
    columns: Columns = []
    label_of: dict[tuple[int, int], str] = {}
    hdims = V.homology_dims()
    for k in sorted(hdims):
        reps = V._homology(k)
        columns += [{len(labels) + t: pow(x, p, p) for t, x in col.items()} for col in V._coordinates(k, reps)]
        for i, z in enumerate(reps):
            lab = f"h{k}.{i}"
            labels.append(lab)
            degrees[lab] = k
            label_of[(k, i)] = lab
            words = _word_power({V._ids[g]: c for g, c in sorted(z.items())}, p)
            chain_map[lab] = {"|".join(w): c for w, c in words.items()}
    n = len(labels)
    target_degrees = {lab: p * degrees[lab] for lab in labels}
    even = sum(k % 2 == 0 for k in target_degrees.values())
    source_parity = (even, n - even)
    # diagonal words each contribute one even and one odd Tate class over
    # F_p((u)); theta shifts parity, so both counts equal dim H(V)
    target_parity = (n, n)
    # block diagonal by degree: each parity's block is invertible iff it is
    bij = column_rank(columns, n, p) == n
    pairs = coefficient_pairs or [(1, 1)]
    wanted = [
        (k, i, j, a % p, b % p)
        for k in sorted(hdims)
        for i in range(hdims[k])
        for j in range(i + 1, hdims[k])
        for (a, b) in pairs
    ]
    if max_certificates is not None:
        wanted = wanted[:max_certificates]
    # a rotation of words in letters of one degree k has Koszul sign
    # (-1)^(k k (p - 1)) = 1 mod p, so two letters of degree 0 serve every k
    T = tensor_power(ChainComplex(p, [Generator("a", 0), Generator("b", 0)], {})) if wanted else None
    certificates = [_certificate(T, k, label_of[(k, i)], label_of[(k, j)], a, b) for (k, i, j, a, b) in wanted]
    return QuasiFrobeniusResult(
        p=p,
        labels=labels,
        degrees=degrees,
        target_degrees=target_degrees,
        chain_map=chain_map,
        induced_matrix=[[col.get(r, 0) for col in columns] for r in range(n)],
        source_parity_dims=source_parity,
        target_parity_dims=target_parity,
        is_bijective=bij,
        certificates=certificates,
    )

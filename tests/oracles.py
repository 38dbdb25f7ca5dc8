"""Reference routes that tests compare the library against.

The library takes Tate ranks and square-zero checks at u = 1, which is
exact only because every differential it sees is homogeneous.  The
polynomial helpers redo the same computations over F_p[u] entry by entry,
with no use of the grading; random_floer_model_over_polynomials deforms
the equivariant model by conjugating its polynomial blocks, where the
library conjugates at u = 1 and reads the u-powers off the degrees.
coeff_matrix_by_entries builds the dense matrix of a coefficient map one
entry at a time.  The library reads Tate and group cohomology off one
numpy parity split of V<1, theta>; assemble_parity_blocks splits the
polynomial blocks label by label, and group_cohomology_by_slots assembles
the first-quadrant double complex slot by slot and eliminates every total
degree up to max_degree.  The library counts every degree's cut of a parity
block from one column reduction of that block; group_cohomology_by_cut_ranks
runs a dense F_p rank per cut, and parity_dims_by_dense_rank a dense rank
per parity block.  The library counts the pivots inside each cut with
bisect_right on lists; group_cohomology_by_searchsorted counts them for
all degrees at once with numpy's searchsorted.  The library reduces the
persistence pairing on sparse columns; persistence_pairing_dense reduces the dense n x n
differential in filtration order.  The library counts the action
spectral sequence from the persistence pairing; subquotient_pages builds
the same pages from the subquotient formula.  The library counts every iterate
window from prefix sums over probe indices; smith_barcode_check_per_window
counts each window by window_dim and integrates m(t) region by region.
The library sorts generators and bars on int indices into a table of
the distinct action levels, and sorts, subtracts and halves the levels as
int ticks on one scale, the lcm of their denominators; the *_by_fractions
routes compare, sort and add the exact rationals themselves, generator by
generator and bar by bar.  barcode_from_json_by_fractions and
generators_from_json_by_dataclass read JSON through Fraction and the
validating Bar and Generator constructors.
The library reads each coefficient map once, into index-keyed columns
that keep every entry, with its degree and action verdicts; DictComplex
and dict_complex_from_json keep the route it replaced, a JSON object
copied into a dict of dicts (coeff_map_from_json), cleaned against the ids
(clean_coeff_map) and stored as such, and check it by walking those dicts.
The library runs Bareiss elimination over F_p[u] as products of int64
coefficient arrays; bareiss_rank_by_entries runs it one polynomial
product and long division (pmul, psub, pdiv_exact) per entry and step.
The library takes the ranks of t^k only until they stop falling;
nilpotent_partition_by_p_ranks takes all p - 1 of them and t^p.  The
library takes every rank it does not read off reduce_columns' lows from
fp_core.column_rank, which picks dense or sparse elimination from the
columns; rank and fixed_dim always run _row_reduce on the dense array.
The generators invert unipotent changes of basis I + E by repeated
squaring; unipotent_inverse_by_neumann sums the Neumann series.
The library reads homology off sparse column reductions per degree and
applies each induced map to sparse representatives; homology_dense keeps
the dense elimination of [d^(k-1) | Z | I] it replaced, with rref, whose
free-variable kernel basis is Z; homology_basis_by_solve and
express_in_homology_by_solve eliminate the image basis of d^(k-1) beside
the kernel of d^k and solve each cocycle against it, and
algebraic_ss_by_vectors induces the page maps one zero-padded vector at a
time.
The library checks every degree and action rule of d, sigma and the model
terms through one cached primitive on index grades; the *_by_loops routes
walk each coefficient map generator by generator, tate_homogeneity_dense and
model_validate_dense scan the dense matrices, and validate_by_message_text
sorts the d messages into checks by their text.  The library keeps d and
sigma as sparse columns from parse to reduction: it checks d.d = 0,
sigma^p = 1 and d sigma = sigma d by sparse composition and reads Tate and
group cohomology off the sparse columns of M(1).  The dense routes it
replaced stay here: the per-degree products of structure_violations_by_loops
and sigma_violations_dense, and the n x n blocks of tate_blocks_dense, split
by parity_split and read into columns by leading_pivots.  The library keeps
d, sigma and the equivariant model's terms only as sparse columns, assembles
the model's differential with tate.assemble and squares it with _compose;
coeff_matrix_by_entries builds whole dense operators, degree-breaking
entries included, blocks_square_zero squares the dense block matrix, and
tate_column_blocks, model_blocks, term_dense and model_terms_dense are
dense views of the library's columns, as are block, the dense cut of
columns from some labels to others, and d_block, its cut of d from one
degree to the next.  The library writes the polynomial rows of its Bareiss
parity blocks straight from the columns; bareiss_blocks_by_cut keeps the
dense cut read cell by cell that it replaced.  The report writer converts
results as it writes; jsonable converts the whole tree first.
The library reads the Morse resolution's homology off the ranks of two
p x p circulants; resolution_homology_by_complex builds the length * p
generator complex and takes its homology degree by degree.
The library takes every power, the norm (sigma - 1)^(p-1) among them, of
sparse columns by squaring (complexes._power); _matpow squares dense
residue arrays.
"""

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from smith_tate.complexes import (
    ActionWindow,
    ChainComplex,
    Generator,
    ValidationReport,
    _coeff_map,
    _dense,
    _frac_str,
    _json_object,
    _rational,
    _shown,
    _sparse,
    _strict_int,
)
from smith_tate.errors import (
    EmptyBarcode,
    FiltrationViolation,
    InvalidComplex,
    MalformedInput,
    NotNilpotent,
    NotSquareZero,
    SpectralEndpoint,
    check_size,
)
from smith_tate.fp_core import FpMatrix, _check_matrix_prime, _matmul_mod, _row_reduce, reduce_columns
from smith_tate.module_decomp import decompose
from smith_tate.persistence import (
    Bar,
    BarStats,
    SmithBarcodeReport,
    bar_stats,
    persistence_pairing,
    window_dim,
)
from smith_tate.random_instances import random_equivariant_filtered
from smith_tate.ratfun import bareiss_rank, pnorm, pupow
from smith_tate.spectral import EquivariantFloerModel
from smith_tate.tate import MAX_GROUP_DEGREES, _parities, _pivot_degrees, tate_columns


def padd(a, b, p: int):
    """Sum of two polynomials over F_p."""
    n = max(len(a), len(b))
    return pnorm([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], p)


def psub(a, b, p: int):
    """Difference of two polynomials over F_p."""
    n = max(len(a), len(b))
    return pnorm([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)], p)


def pmul(a, b, p: int):
    """Product of two polynomials over F_p, by schoolbook multiplication."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return pnorm(out, p)


def pdivmod(a, b, p: int):
    """(quotient, remainder) of long division by b over F_p."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, -1, p)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c == 0:
            continue
        q = (c * inv) % p
        quot[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] = (rem[i - db + j] - q * b[j]) % p
    return pnorm(quot, p), pnorm(rem, p)


def pdiv_exact(a, b, p: int):
    """a / b over F_p, or ArithmeticError when b does not divide a."""
    q, r = pdivmod(a, b, p)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def bareiss_rank_by_entries(poly_mat, p: int) -> int:
    """Rank of a polynomial matrix by fraction-free Gaussian elimination,
    one polynomial product and long division per entry and step."""
    mat = [list(row) for row in poly_mat]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    prev = (1,)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if mat[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                num = psub(pmul(mat[r][c], mat[i][j], p), pmul(mat[i][c], mat[r][j], p), p)
                mat[i][j] = pdiv_exact(num, prev, p)
            mat[i][c] = ()
        prev = mat[r][c]
        r += 1
    return r


def unipotent_inverse_by_neumann(e: np.ndarray, p: int) -> np.ndarray:
    """(I + E)^-1 = sum_k (-E)^k for nilpotent E, one dense product per
    power of E."""
    n = len(e)
    inv = term = np.eye(n, dtype=np.int64)
    for _ in range(n):
        term = (-term @ e) % p
        if not term.any():
            return inv
        inv = (inv + term) % p
    raise ValueError("conjugation support is not nilpotent")


def _matpow(a: np.ndarray, k: int, p: int) -> np.ndarray:
    """a^k for a square residue array by dense repeated squaring; the
    identity for k = 0."""
    out, base = np.eye(len(a), dtype=np.int64), a
    while k:
        if k & 1:
            out = _matmul_mod(out, base, p)
        k >>= 1
        base = _matmul_mod(base, base, p)
    return out


def poly_mat_mul(a, b, p: int):
    """Product of two polynomial matrices over F_p[u]."""
    rows, mid = len(a), len(b)
    cols = len(b[0]) if mid else 0
    out = [[() for _ in range(cols)] for _ in range(rows)]
    for r in range(rows):
        for m in range(mid):
            if a[r][m]:
                for c in range(cols):
                    if b[m][c]:
                        out[r][c] = padd(out[r][c], pmul(a[r][m], b[m][c], p), p)
    return out


def poly_mat(m, p: int, shift: int = 0):
    """Integer matrix -> polynomial matrix with every entry times u^shift."""
    return [[pupow(shift, int(v), p) if int(v) % p else () for v in row] for row in m]


def sigma_block(V, k: int) -> np.ndarray:
    """The matrix of sigma on degree k, a generator without an image fixed;
    InvalidComplex when sigma takes a generator of degree k out of it."""
    idx = V.degree_indices(k)
    for i in idx:
        g = V.generators[i]
        if any(V.generator(t).degree != k for t in V.sigma.get(g.id, {})):
            raise InvalidComplex(f"sigma({g.id}) leaves degree {k}")
    return coeff_matrix_by_entries(V, V.sigma, idx, idx, sigma=True)


def block(a, rows, sources) -> np.ndarray:
    """The residue array of columns a from the labels sources to the labels
    rows, in those orders."""
    row = {i: r for r, i in enumerate(rows)}
    return _dense([{row[i]: v for i, v in a[j].items() if i in row} for j in sources], len(rows))


def d_block(cx, k: int) -> np.ndarray:
    """The array of d from degree k to degree k + 1 in stored generator order."""
    return block(cx.columns("differential"), cx.degree_indices(k + 1), cx.degree_indices(k))


def bareiss_blocks_by_cut(V) -> list:
    """The polynomial parity blocks out of the even and the odd labels that
    tate_cohomology_dims(V, method="bareiss") eliminates, each cut from
    tate_columns(V) as a dense array and read cell by cell, u on the entries
    of N (theta^1 columns into theta^0 rows)."""
    columns, n, p = tate_columns(V), V.dim(), V.p
    parity = _parities(V._degree)
    even, odd = [x for x, e in enumerate(parity) if not e], [x for x, e in enumerate(parity) if e]
    out = []
    for rows, cols in ((odd, even), (even, odd)):
        m = block(columns, rows, cols).tolist()
        out.append([[pupow(int(r < n <= c), x, p) if x else () for c, x in zip(cols, row)] for r, row in zip(rows, m)])
    return out


def coeff_matrix_by_entries(cx, coeffs, src, tgt, *, sigma: bool = False) -> np.ndarray:
    """Entry (r, c) is the coefficient of generator tgt[r] in the image of
    generator src[c]; with sigma, a generator without an image is fixed."""
    a = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for c, i in enumerate(src):
        image = coeffs.get(cx.generators[i].id)
        for r, j in enumerate(tgt):
            if image is not None:
                a[r, c] = image.get(cx.generators[j].id, 0)
            elif sigma and i == j:
                a[r, c] = 1
    return a


def sigma_matrix_by_entries(V) -> np.ndarray:
    """The dense n x n matrix of the whole of sigma, a generator without an
    image fixed."""
    every = range(V.dim())
    return coeff_matrix_by_entries(V, V.sigma, every, every, sigma=True)


def tate_column_blocks(V) -> tuple[np.ndarray, ...]:
    """The n x n blocks (A, B, C, D) = (d, N, 1 - sigma, -d) of the sparse
    columns tate_columns(V), made dense."""
    n = V.dim()
    m = _dense(tate_columns(V), 2 * n)
    return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]


def model_blocks(model) -> tuple[np.ndarray, ...]:
    """The n x n blocks (A, B, C, D) of the sparse columns model.columns() of
    an equivariant model's assembled differential at u = 1, made dense:
    A: 1->1, B: theta->1, C: 1->theta, D: theta->theta."""
    n = model.base.dim()
    m = _dense(model.columns(), 2 * n)
    return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]


def term_dense(model, i: int, alpha: int) -> np.ndarray:
    """d_alpha^i of a model as an n x n residue array, zero for a missing
    term: the dense view of its sparse columns."""
    n = model.base.dim()
    return _dense(model.terms.get((i, alpha), [{}] * n), n)


def model_terms_dense(model) -> dict:
    """{(i, alpha): the dense n x n array of d_alpha^i} over a model's terms."""
    return {(i, alpha): term_dense(model, i, alpha) for i, alpha in model.terms}


def blocks_square_zero(A, B, C, D, p: int) -> bool:
    """Whether the dense block matrix [[A, B], [C, D]] squares to zero over
    F_p, one dense product."""
    m = np.block([[A, B], [C, D]]) % p
    return not _matmul_mod(m, m, p).any()


def random_floer_model_over_polynomials(p: int, seed, deform: bool = True, **kwargs):
    """random_floer_model with its blocks d, uN, 1 - sigma, -d conjugated
    by I + uR over F_p[u], and each coefficient of u^j of a block read off
    as the term of slot 2j + (target theta exponent)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    base = random_equivariant_filtered(p, rng, **kwargs)
    n = base.dim()
    every = range(n)
    d = coeff_matrix_by_entries(base, base.differential, every, every)
    s = sigma_matrix_by_entries(base)
    nm, power = np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(p):
        nm, power = (nm + power) % p, (power @ s) % p

    def add(a, b):
        return [[padd(x, y, p) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def top_degree(a):
        return max((len(e) - 1 for row in a for e in row if e), default=-1)

    a0, b0 = poly_mat(d, p), poly_mat(nm, p, shift=1)
    c0, d0 = poly_mat((np.eye(n, dtype=np.int64) - s) % p, p), poly_mat((-d) % p, p)
    if deform and n:
        degs = [g.degree for g in base.generators]
        acts = [g.action for g in base.generators]
        r = np.zeros((n, n), dtype=np.int64)
        for _ in range(2 * n):
            x, y = rng.randrange(n), rng.randrange(n)
            if degs[y] == degs[x] - 2 and acts[y] < acts[x]:
                r[y, x] = rng.randrange(p)
        ident = poly_mat(np.eye(n, dtype=np.int64), p)
        q = add(ident, poly_mat(r, p, shift=1))
        minus_ur = poly_mat((-r) % p, p, shift=1)
        qinv, term = ident, ident
        while top_degree(term := poly_mat_mul(term, minus_ur, p)) >= 0:
            qinv = add(qinv, term)
        a0, b0, c0, d0 = (poly_mat_mul(poly_mat_mul(q, m, p), qinv, p) for m in (a0, b0, c0, d0))
    terms = {}
    for mat, alpha, parity in ((a0, 0, 0), (c0, 0, 1), (d0, 1, 1), (b0, 1, 0)):
        for j in range(top_degree(mat) + 1):
            coeff = np.array([[e[j] if j < len(e) else 0 for e in row] for row in mat], dtype=np.int64)
            if coeff.any():
                terms[(2 * j + parity, alpha)] = _sparse(coeff)
    i_max = max((i for i, _ in terms), default=2)
    return EquivariantFloerModel(base, terms, max(2, i_max))


def model_poly_blocks(model):
    """Blocks (A, B, C, D) of an EquivariantFloerModel's differential over
    F_p[u]: term (i, alpha) contributes u^(i // 2) d_alpha^i."""
    p, n = model.p, model.base.dim()
    A, C, B, D = ([[() for _ in range(n)] for _ in range(n)] for _ in range(4))
    for (i, alpha), m in model_terms_dense(model).items():
        tgt = (A, C, B, D)[2 * alpha + i % 2]
        for r in range(n):
            for c in range(n):
                if m[r, c]:
                    tgt[r][c] = padd(tgt[r][c], pupow(i // 2, int(m[r, c]), p), p)
    return A, B, C, D


def assemble_parity_blocks(degrees: list[int], A, B, C, D, p: int):
    """Split the block differential on V<1, theta> by total parity, label
    by label.

    Basis labels are (generator index, theta exponent); parity of a label is
    (degree + theta) mod 2.  Returns (even_to_odd, odd_to_even, even_basis,
    odd_basis); the differential is odd, so these two blocks carry all of it.
    """
    even = [(i, 0) for i, d in enumerate(degrees) if d % 2 == 0]
    even += [(i, 1) for i, d in enumerate(degrees) if d % 2 == 1]
    odd = [(i, 0) for i, d in enumerate(degrees) if d % 2 == 1]
    odd += [(i, 1) for i, d in enumerate(degrees) if d % 2 == 0]
    by_eps = {0: {0: A, 1: B}, 1: {0: C, 1: D}}  # [target eps][source eps]

    def block(src, tgt):
        tpos = {lab: r for r, lab in enumerate(tgt)}
        rows = [[() for _ in src] for _ in tgt]
        for c, (i, eps_s) in enumerate(src):
            for eps_t in (0, 1):
                mat = by_eps[eps_t][eps_s]
                for j in range(len(degrees)):
                    e = mat[j][i]
                    if e and (j, eps_t) in tpos:
                        rows[tpos[(j, eps_t)]][c] = e
        return rows

    return block(even, odd), block(odd, even), even, odd


def tate_blocks_dense(V) -> tuple[np.ndarray, ...]:
    """The Tate blocks (d, N, 1 - sigma, -d) at u = 1 as dense n x n arrays
    of the whole operators, N = (sigma - 1)^(p-1) by dense squaring, after
    the dense homogeneity scan."""
    tate_homogeneity_dense(V)
    p, n = V.p, V.dim()
    d, s = coeff_matrix_by_entries(V, V.differential, range(n), range(n)), sigma_matrix_by_entries(V)
    one = np.eye(n, dtype=np.int64)
    return d, _matpow((s - one) % p, p - 1, p), (one - s) % p, (-d) % p


def parity_split(degrees: list[int], A, B, C, D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense block differential M = [[A, B], [C, D]] on V<1, theta>,
    with the generator degree and the total parity (degree + eps) mod 2 of
    every label i + n * eps."""
    gen_deg = np.tile(np.asarray(degrees, dtype=np.int64), 2)
    parity = (gen_deg + np.repeat([0, 1], len(degrees))) % 2
    return np.block([[A, B], [C, D]]), gen_deg, parity


def leading_pivots(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the pivots of reduce_columns on the residue matrix a,
    row r keyed rows - 1 - r so that each low is the highest nonzero row.
    Then rank a[:i, :j] is the number of pivots with row < i and col < j (the
    pairing lemma; Edelsbrunner and Harer, "Computational Topology", VII.1)."""
    c, r = np.nonzero(a.T)
    keys, vals = (a.shape[0] - 1 - r).tolist(), a[r, c].tolist()
    ends = np.searchsorted(c, np.arange(a.shape[1] + 1)).tolist()
    columns = (dict(zip(keys[x:y], vals[x:y])) for x, y in zip(ends, ends[1:]))
    lows = np.array(reduce_columns(columns, p), dtype=np.int64)
    cols = np.flatnonzero(lows >= 0)
    return a.shape[0] - 1 - lows[cols], cols


def tate_poly_parity_blocks(V):
    """(even_to_odd, odd_to_even, even_basis, odd_basis) of V's Tate
    differential over F_p[u]: the blocks d, uN, 1 - sigma, -d split label
    by label."""
    p = V.p
    A, B, C, D = tate_blocks_dense(V)
    degrees = [g.degree for g in V.generators]
    return assemble_parity_blocks(
        degrees, poly_mat(A, p), poly_mat(B, p, shift=1), poly_mat(C, p), poly_mat(D, p), p
    )


def group_cohomology_by_slots(V, max_degree=None) -> dict:
    """H^k(Z/pZ, V) for k up to max_degree from the first-quadrant double
    complex assembled slot by slot: slot (i, j) holds V^j in column i, with
    horizontal maps alternating 1 - sigma and N and vertical map (-1)^i d,
    and every total matrix up to max_degree is eliminated."""
    if V.dim() == 0:
        return {}
    degs = V.degrees()
    dmin, dmax = degs[0], degs[-1]
    if max_degree is None:
        max_degree = dmax + 2 * (dmax - dmin + 1) + 4
    p = V.p
    d, nm, one_minus, _ = tate_blocks_dense(V)
    by_degree = {k: V.degree_indices(k) for k in degs}

    def slots(k):
        return [(i, j) for j in degs if (i := k - j) >= 0]

    def total_matrix(k):
        src, tgt = slots(k), slots(k + 1)
        src_off, c = {}, 0
        for sl in src:
            src_off[sl] = c
            c += len(by_degree[sl[1]])
        tgt_off, r = {}, 0
        for sl in tgt:
            tgt_off[sl] = r
            r += len(by_degree[sl[1]])
        a = np.zeros((r, c), dtype=np.int64)
        for (i, j) in src:
            cols = by_degree[j]
            c0 = src_off[(i, j)]
            if (i + 1, j) in tgt_off:
                h = one_minus if i % 2 == 0 else nm
                r0 = tgt_off[(i + 1, j)]
                a[r0:r0 + len(cols), c0:c0 + len(cols)] = h[np.ix_(cols, cols)]
            if (i, j + 1) in tgt_off:
                rows = by_degree[j + 1]
                r0 = tgt_off[(i, j + 1)]
                sign = 1 if i % 2 == 0 else p - 1
                a[r0:r0 + len(rows), c0:c0 + len(cols)] = (sign * d[np.ix_(rows, cols)]) % p
        return FpMatrix(a, p)

    dims_total = {k: sum(len(by_degree[j]) for (_, j) in slots(k)) for k in range(dmin, max_degree + 2)}
    ranks = {k: rank(total_matrix(k)) for k in range(dmin, max_degree + 1)}
    ranks[dmin - 1] = 0
    return {k: dims_total[k] - ranks[k] - ranks[k - 1] for k in range(dmin, max_degree + 1)}


def group_cohomology_by_cut_ranks(V, max_degree=None) -> dict:
    """H^k(Z/pZ, V) from one dense F_p rank per degree dmin <= k <= dmax + 1
    of the parity-k block cut to columns of generator degree <= k and rows
    of generator degree <= k + 1; above that the ranks repeat with period 2."""
    if V.dim() == 0:
        return {}
    degs = V.degrees()
    dmin, dmax = degs[0], degs[-1]
    if max_degree is None:
        max_degree = dmax + 2 * (dmax - dmin + 1) + 4
    degrees = [g.degree for g in V.generators]
    m, gen_deg, parity = parity_split(degrees, *tate_blocks_dense(V))
    ranks = {dmin - 1: 0}
    for k in range(dmin, min(max_degree, dmax + 1) + 1):
        cols = np.flatnonzero((parity == k % 2) & (gen_deg <= k))
        rows = np.flatnonzero((parity != k % 2) & (gen_deg <= k + 1))
        ranks[k] = rank(FpMatrix(m[np.ix_(rows, cols)], V.p))
    for k in range(dmax + 2, max_degree + 1):
        ranks[k] = ranks[k - 2]
    at_most = np.sort(degrees)
    return {
        k: int(np.searchsorted(at_most, k, side="right")) - ranks[k] - ranks[k - 1]
        for k in range(dmin, max_degree + 1)
    }


def group_cohomology_by_searchsorted(V, max_degree=None) -> dict:
    """H^k(Z/pZ, V) from the same pivot degrees as the library, counted
    for all degrees at once with numpy's searchsorted on int64 arrays."""
    if V.dim() == 0:
        return {}
    degrees = V._degree
    dmin, dmax = min(degrees), max(degrees)
    if max_degree is None:
        max_degree = dmax + 2 * (dmax - dmin + 1) + 4
    if max_degree < dmin:
        return {}
    check_size("max_degree - dmin", max_degree - dmin, MAX_GROUP_DEGREES)
    enter = _pivot_degrees(degrees, tate_columns(V), V.p)
    ks = np.arange(dmin - 1, max_degree + 1)
    r_even, r_odd = (np.searchsorted(e, ks, side="right") for e in enter)
    ranks = np.where(ks % 2, r_odd, r_even)
    at_most = np.searchsorted(np.sort(degrees), ks[1:], side="right")
    return dict(zip(ks[1:].tolist(), (at_most - ranks[1:] - ranks[:-1]).tolist()))


def parity_dims_by_dense_rank(degrees, A, B, C, D, p: int) -> tuple[int, int]:
    """(even, odd) homology dimensions of the block differential on
    V<1, theta> from one dense F_p rank per parity block at u = 1."""
    m, _, parity = parity_split(degrees, A, B, C, D)
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    r_e = rank(FpMatrix(m[np.ix_(odd, even)], p))
    r_o = rank(FpMatrix(m[np.ix_(even, odd)], p))
    return len(even) - r_e - r_o, len(odd) - r_o - r_e


def poly_square_is_zero(even_to_odd, odd_to_even, p: int) -> bool:
    """Whether a differential given by its two polynomial parity blocks
    squares to zero."""
    return all(
        not e
        for prod in (poly_mat_mul(odd_to_even, even_to_odd, p), poly_mat_mul(even_to_odd, odd_to_even, p))
        for row in prod
        for e in row
    )


def model_poly_route(model) -> tuple[tuple[int, int], bool]:
    """((even, odd) Tate dims by Bareiss elimination, square-zero) of a model."""
    p = model.p
    degrees = [g.degree for g in model.base.generators]
    e2o, o2e, even, odd = assemble_parity_blocks(degrees, *model_poly_blocks(model), p)
    r_e, r_o = bareiss_rank(e2o, p), bareiss_rank(o2e, p)
    return (len(even) - r_e - r_o, len(odd) - r_o - r_e), poly_square_is_zero(e2o, o2e, p)


def rank(m: FpMatrix) -> int:
    return len(_row_reduce(m.a, m.p)[1])


def fixed_dim(sigma: np.ndarray, p: int) -> int:
    """dim ker(sigma - 1) = n - rank(sigma - 1) for an n x n residue array."""
    n = len(sigma)
    return n - len(_row_reduce(sigma - np.eye(n, dtype=np.int64), p)[1])


def nilpotent_partition_by_p_ranks(t: FpMatrix) -> list[int]:
    """Jordan block sizes of t with t^p = 0 from all p - 1 ranks rank(t^k),
    1 <= k < p, and the product t^p, with no early stop."""
    if t.rows != t.cols:
        raise NotNilpotent("operator must be square")
    n, p = t.rows, t.p
    ranks, power = [n], t.a
    for _ in range(p - 1):
        ranks.append(rank(FpMatrix(power, p)))
        power = _matmul_mod(power, t.a, p)
    if power.any():
        raise NotNilpotent(f"t^{p} != 0")
    ranks += [0, 0]
    return [k for k in range(p, 0, -1) for _ in range(ranks[k - 1] - 2 * ranks[k] + ranks[k + 1])]


def persistence_pairing_dense(fc) -> tuple[list[int], np.ndarray]:
    """(order, lows) of the action filtration by column reduction on the
    dense n x n differential in filtration order."""
    bad = fc.action_violations()
    if bad:
        raise FiltrationViolation(bad[0])
    p = fc.p
    order = fc.filtration_order()
    n = len(order)
    d = coeff_matrix_by_entries(fc, fc.differential, order, order)
    low_of: dict[int, int] = {}  # low row -> column that holds it
    lows = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        while True:
            nz = np.nonzero(d[:, j])[0]
            if len(nz) == 0:
                break
            lo = int(nz[-1])
            k = low_of.get(lo)
            if k is None:
                low_of[lo] = j
                lows[j] = lo
                break
            factor = (d[lo, j] * pow(int(d[lo, k]), -1, p)) % p
            d[:, j] = (d[:, j] - factor * d[:, k]) % p
    return order, lows


def subquotient_pages(fc) -> list[tuple[dict, dict]]:
    """(dims, differential ranks) of every page of the action spectral
    sequence, from the subquotients
    E_r^s = Z_r^s / (Z_{r-1}^{s+1} + d Z_{r-1}^{s-r+1}),
    Z_r^s = {x in F^s : dx in F^(s+r)}, built from kernels and spans over
    F_p with no use of the persistence pairing."""
    p = fc.p
    n = fc.dim()
    levels = fc.actions()
    L = len(levels)
    d = coeff_matrix_by_entries(fc, fc.differential, range(n), range(n))
    degs = [g.degree for g in fc.generators]
    acts = [g.action for g in fc.generators]
    degrees = sorted(set(degs))

    def in_filt(i, s):
        # F^s = span of generators with action <= levels[L-1-s]
        return s <= 0 or (s < L and acts[i] <= levels[L - 1 - s])

    def span_dim(vectors):
        if not vectors:
            return 0
        return rref(FpMatrix(np.array(vectors, dtype=np.int64).T, p)).rank

    def z_space(r, s, k):
        src = [i for i in range(n) if degs[i] == k and in_filt(i, s)]
        if not src:
            return []
        tgt = [j for j in range(n) if degs[j] == k + 1 and not in_filt(j, s + r)]
        m = FpMatrix(d[np.ix_(tgt, src)] if tgt else np.zeros((0, len(src)), dtype=np.int64), p)
        out = []
        for v in rref(m).kernel_basis:
            w = np.zeros(n, dtype=np.int64)
            w[src] = v
            out.append(w)
        return out

    pages = []
    for r in range(1, max(1, L) + 1):
        dims, ranks, spaces = {}, {}, {}
        for s in range(L):
            for k in degrees:
                z = z_space(r, s, k)
                border = z_space(r - 1, s + 1, k)
                border += [(d @ v) % p for v in z_space(r - 1, s - r + 1, k - 1)]
                spaces[(s, k)] = (z, border)
                # the border sits inside Z_r^s, so the quotient dim subtracts
                dim = span_dim(z) - span_dim(border)
                if dim:
                    dims[(s, k)] = dim
        for (s, k), (z, _) in spaces.items():
            # rank of d_r: dim(d Z_r^s + B^{s+r,k+1}) - dim B^{s+r,k+1}
            target_border = spaces.get((s + r, k + 1), ([], []))[1]
            image = [(d @ v) % p for v in z]
            rk = span_dim(target_border + image) - span_dim(target_border)
            if rk:
                ranks[(s, k)] = rk
        pages.append((dims, ranks))
    return pages


def midpoint_probes_by_fractions(events: list[Fraction]) -> list[Fraction]:
    """One generic test point per region of the complement of `events`,
    each a rational midpoint of two neighbours."""
    if not events:
        return [Fraction(0)]
    probes = [events[0] - 1]
    for lo, hi in zip(events, events[1:]):
        if lo != hi:
            probes.append((lo + hi) / 2)
    probes.append(events[-1] + 1)
    return probes


def finite_bar_count_at(b, t: Fraction) -> int:
    """m(t): multiplicity-weighted number of finite bars containing t."""
    k = bisect_left(b.levels, Fraction(t))
    return sum(m for s, e, m in b.index_bars if s < k <= e < len(b.levels))


def integrate_finite_count_by_regions(b) -> Fraction:
    """Integral of m(t) dt, as m at the midpoint of each region between
    consecutive finite endpoints times the region's length."""
    pts = sorted({bar.start for bar in b.bars if bar.finite} | {bar.end for bar in b.bars if bar.finite})
    total = Fraction(0)
    for lo, hi in zip(pts, pts[1:]):
        total += finite_bar_count_at(b, (lo + hi) / 2) * (hi - lo)
    return total


def smith_barcode_check_per_window(b1, bp, p: int) -> SmithBarcodeReport:
    """The p-th iterate comparison with every window counted on its own by
    window_dim, which rescans all bars and checks the window's endpoints
    against the spectrum: O(P^2 E log E) for P probes and E bars."""
    events = sorted(set(b1.endpoints()) | {e / p for e in bp.endpoints()})
    probes = midpoint_probes_by_fractions(events)
    m_failures = []
    for t in probes:
        m1 = finite_bar_count_at(b1, t)
        mp = finite_bar_count_at(bp, p * t)
        if m1 > mp:
            m_failures.append((t, m1, mp))
    beta1 = bar_stats(b1).beta_tot
    betap = bar_stats(bp).beta_tot
    windows = [ActionWindow(None, None)]
    windows += [ActionWindow(None, t) for t in probes]
    windows += [ActionWindow(t, None) for t in probes]
    windows += [ActionWindow(a, t) for i, a in enumerate(probes) for t in probes[i + 1 :]]
    window_failures = []
    for w in windows:
        d1 = window_dim(b1, w)
        dp = window_dim(bp, w.scaled(p))
        if d1 > dp:
            window_failures.append((w, d1, dp))
    return SmithBarcodeReport(
        p=p,
        m_ok=not m_failures,
        m_failures=tuple(m_failures),
        beta_tot_single=beta1,
        beta_tot_iterate=betap,
        beta_direct_ok=betap >= p * beta1,
        beta_integral_ok=integrate_finite_count_by_regions(bp) >= p * integrate_finite_count_by_regions(b1),
        window_ok=not window_failures,
        window_failures=tuple(window_failures),
    )


# ---------------------------------------------------------------------------
# the filtered layer on exact rationals


def barcode_from_json_by_fractions(data) -> tuple[int, list[tuple]]:
    """(p, canonical bars) of barcode JSON, each endpoint read by _rational
    and each bar checked by Bar, in file order."""
    data = _json_object(data, "barcode")
    if "p" not in data:
        raise MalformedInput("barcode JSON needs a 'p' key")
    raw = data.get("bars", [])
    if not isinstance(raw, list):
        raise MalformedInput("'bars' must be a list")
    bars = []
    for item in raw:
        if not isinstance(item, dict) or "start" not in item:
            raise MalformedInput(f"bad bar entry: {_shown(item)}")
        start, end = _rational(item["start"], "bar start"), item.get("end")
        end = None if end is None else _rational(end, "bar end")
        bars.append(Bar(start, end, _strict_int(item.get("mult", 1), "bar 'mult'")))
    return _strict_int(data["p"], "'p'"), canonical_bars_by_fractions(bars)


def _action_by_fraction(v) -> Fraction:
    if isinstance(v, int) and not isinstance(v, bool):
        v = {"num": v}
    if isinstance(v, dict) and "num" in v and set(v) <= {"num", "den"}:
        num, den = _strict_int(v["num"], "action 'num'"), _strict_int(v.get("den", 1), "action 'den'")
        if den:
            return Fraction(num, den)
    raise MalformedInput(f"bad action value: {_shown(v)}")


def generators_from_json_by_dataclass(raw) -> list[Generator]:
    """The generators of a JSON list, sorted by id, each built by the
    validating Generator constructor from its own Fraction."""
    gens = []
    for item in raw:
        if not isinstance(item, dict) or "id" not in item or "degree" not in item:
            raise MalformedInput(f"bad generator entry: {_shown(item)}")
        gens.append(
            Generator(
                str(item["id"]),
                _strict_int(item["degree"], "generator degree"),
                _action_by_fraction(item.get("action", 0)),
            )
        )
    return sorted(gens, key=lambda g: g.id)


def coeff_map_from_json(raw, key: str) -> dict:
    """The coefficient map of a JSON object {id: {id: coefficient}}, copied
    with its ids as str; the coefficients are checked by the complex."""
    if not isinstance(raw, dict) or not all(isinstance(r, dict) for r in raw.values()):
        raise MalformedInput(f"{key!r} must map ids to coefficient objects")
    return {str(s): {str(t): c for t, c in row.items()} for s, row in raw.items()}


def clean_coeff_map(raw: dict, ids: set, p: int, what: str) -> dict:
    """raw with each id checked, each coefficient read as an int mod p,
    zero residues dropped and rows left empty dropped."""
    out = {}
    for src, row in raw.items():
        if src not in ids:
            raise MalformedInput(f"{what} references unknown generator {src!r}")
        cleaned = {}
        for tgt, c in row.items():
            if tgt not in ids:
                raise MalformedInput(f"{what} references unknown generator {tgt!r}")
            if type(c) is not int:
                c = _strict_int(c, f"{what} coefficient for {src!r}->{tgt!r}")
            c %= p
            if c:
                cleaned[tgt] = c
        if cleaned:
            out[src] = cleaned
    return out


class DictComplex:
    """A complex of kind "chain", "filtered" or "equivariant" stored as
    Generator objects sorted by id and d and sigma as cleaned dicts of
    dicts, checked in the library's order: ids, d's rules, d.d = 0, the
    action rule of a filtered or strict complex, then sigma's rules,
    sigma^p = 1 and d sigma = sigma d.  Every check walks the dicts one
    entry at a time, and sigma^p is p applications of sigma."""

    def __init__(self, kind, p, generators, differential, sigma=None, *, check=True, strict=False):
        _check_matrix_prime(p)
        self.kind, self.p = kind, p
        self.generators = tuple(sorted(generators, key=lambda g: g.id))
        self._gen = {g.id: g for g in self.generators}
        if len(self._gen) != len(self.generators):
            raise MalformedInput("generator ids must be unique")
        self.differential = clean_coeff_map(differential, set(self._gen), p, "differential")
        if check and (bad := self.structure_violations()):
            raise InvalidComplex("; ".join(msg for _, msg in bad))
        if (kind == "filtered" or strict) and check and (bad := self.action_violations()):
            raise InvalidComplex(bad[0])
        if kind == "equivariant":
            self.sigma = clean_coeff_map(sigma or {}, set(self._gen), p, "sigma")
            if check and (bad := self.sigma_violations()):
                raise InvalidComplex("; ".join(msg for _, msg in bad))

    def _apply(self, m: dict, v: dict, fixed: bool) -> dict:
        """The image of the vector v under the map m, whose missing rows
        are the identity when fixed and zero otherwise."""
        out = {}
        for x, c in v.items():
            for y, e in m.get(x, {x: 1} if fixed else {}).items():
                out[y] = (out.get(y, 0) + c * e) % self.p
        return {y: e for y, e in out.items() if e}

    def graded_d(self) -> dict:
        """d with only its entries one degree up."""
        deg = {g.id: g.degree for g in self.generators}
        return {s: {t: c for t, c in row.items() if deg[t] == deg[s] + 1} for s, row in self.differential.items()}

    def structure_violations(self) -> list[tuple[str, str]]:
        gen, d = self._gen, self.graded_d()
        out = [
            ("degree_one_differential", f"d({s}) hits {t}, which is not one degree higher")
            for s, row in self.differential.items()
            for t in row
            if gen[t].degree != gen[s].degree + 1
        ]
        bad = {g.degree for g in self.generators if self._apply(d, self._apply(d, {g.id: 1}, False), False)}
        return out + [("square_zero", f"d.d != 0 out of degree {k}") for k in sorted(bad)]

    def action_violations(self) -> list[str]:
        gen = self._gen
        return [
            f"d({s}) does not strictly decrease action at {t}"
            for s, row in self.differential.items()
            for t in row
            if not gen[t].action < gen[s].action
        ]

    def sigma_violations(self) -> list[tuple[str, str]]:
        gen = self._gen
        moved = [
            ("sigma_structure", f"sigma({s}) changes {what}")
            for s, row in self.sigma.items()
            for t in row
            for what in ("degree", "action")
            if getattr(gen[t], what) != getattr(gen[s], what)
        ]
        if moved:
            return moved
        d, power, commute = self.graded_d(), set(), set()
        for g in self.generators:
            v = {g.id: 1}
            for _ in range(self.p):
                v = self._apply(self.sigma, v, True)
            if v != {g.id: 1}:
                power.add(g.degree)
            e = {g.id: 1}
            if self._apply(d, self._apply(self.sigma, e, True), False) != self._apply(self.sigma, self._apply(d, e, False), True):
                commute.add(g.degree)
        out = []
        for k in sorted({g.degree for g in self.generators}):
            if k in power:
                out.append(("sigma_structure", f"sigma^{self.p} != 1 in degree {k}"))
            if k in commute:
                out.append(("equivariance", f"sigma does not commute with d out of degree {k}"))
        return out

    def validate(self) -> ValidationReport:
        """EquivariantComplex.validate(strict_action=True)."""
        checks = dict.fromkeys(
            ("unique_ids", "degree_one_differential", "square_zero", "sigma_structure", "equivariance", "action_decrease"),
            True,
        )
        found = self.structure_violations() + self.sigma_violations()
        found += [("action_decrease", msg) for msg in self.action_violations()]
        for check, _ in found:
            checks[check] = False
        return ValidationReport(all(checks.values()), checks, [msg for _, msg in found])

    def columns(self) -> list[list[dict]]:
        """The columns {target index: coefficient} of d, and of sigma with
        a generator without a row fixed."""
        index = {g.id: i for i, g in enumerate(self.generators)}
        maps = [(self.differential, False)] + ([(self.sigma, True)] if self.kind == "equivariant" else [])
        return [
            [{index[t]: c for t, c in m.get(g.id, {g.id: 1} if fixed else {}).items()} for g in self.generators]
            for m, fixed in maps
        ]

    def level_table(self) -> tuple:
        """(sorted distinct actions, each generator's index among them, the
        lcm L of their denominators, and each sorted action times L)."""
        levels = sorted({g.action for g in self.generators})
        scale = math.lcm(*(x.denominator for x in levels))
        return levels, [levels.index(g.action) for g in self.generators], scale, tuple(int(x * scale) for x in levels)


def dict_complex_from_json(data) -> DictComplex:
    """complex_from_json by the dict-of-dicts route."""
    data = _json_object(data, "complex")
    if "p" not in data or "generators" not in data:
        raise MalformedInput("complex JSON needs integer 'p' and 'generators'")
    p = _strict_int(data["p"], "'p'")
    if not isinstance(data["generators"], list):
        raise MalformedInput("'generators' must be a list")
    gens = generators_from_json_by_dataclass(data["generators"])
    diff = coeff_map_from_json(data.get("differential", {}), "differential")
    if "sigma" in data:
        sigma = coeff_map_from_json(data["sigma"], "sigma")
        return DictComplex("equivariant", p, gens, diff, sigma, strict=bool(data.get("filtered")))
    return DictComplex("filtered" if data.get("filtered") else "chain", p, gens, diff)


def filtration_order_by_fractions(cx) -> list[int]:
    """Generator indices sorted on (action, id) keys."""
    gens = cx.generators
    return sorted(range(len(gens)), key=lambda i: (gens[i].action, gens[i].id))


def action_violations_by_fractions(cx) -> list[str]:
    gens, index = cx.generators, {g.id: i for i, g in enumerate(cx.generators)}
    return [
        f"d({src}) does not strictly decrease action at {tgt}"
        for src, row in cx.differential.items()
        for tgt in row
        if not gens[index[tgt]].action < gens[index[src]].action
    ]


def canonical_bars_by_fractions(bars) -> list[tuple]:
    """(start, end, multiplicity) of the merged bars, sorted on rational
    (start, end) keys with an infinite end last."""
    merged: dict[tuple, int] = {}
    for b in bars:
        merged[(b.start, b.end)] = merged.get((b.start, b.end), 0) + b.multiplicity
    key = lambda se: (se[0], se[1] is None, se[1] if se[1] is not None else 0)
    return [(s, e, m) for (s, e), m in sorted(merged.items(), key=lambda kv: key(kv[0]))]


def barcode_from_filtered_by_fractions(fc) -> list[tuple]:
    """The canonical bars of the persistence pairing, with each generator's
    action read off the generator and merged on rationals."""
    order, lows = persistence_pairing(fc)
    paired = set(int(x) for x in lows if x >= 0)
    acts = [fc.generators[i].action for i in order]
    bars = []
    for j in range(len(order)):
        if lows[j] >= 0:
            bars.append(Bar(acts[lows[j]], acts[j]))
        elif j not in paired:
            bars.append(Bar(acts[j], None))
    return canonical_bars_by_fractions(bars)


def bar_stats_by_fractions(b) -> BarStats:
    """Counts and lengths summed bar by bar."""
    K = sum(bar.multiplicity for bar in b.bars if bar.finite)
    B = sum(bar.multiplicity for bar in b.bars if not bar.finite)
    starts = [bar.start for bar in b.bars if not bar.finite]
    return BarStats(
        finite_count=K,
        infinite_count=B,
        total_count=2 * K + B,
        beta_tot=sum((bar.length() * bar.multiplicity for bar in b.bars if bar.finite), Fraction(0)),
        beta_max=max((bar.length() for bar in b.bars if bar.finite), default=Fraction(0)),
        c_plus=max(starts) if starts else None,
        c_minus=min(starts) if starts else None,
    )


def window_dim_by_fractions(b, w) -> int:
    """The window dimension by the three counting formulas, each bar tested
    against the window ends as rationals."""
    a, t = w.lower, w.upper
    spectrum = {bar.start for bar in b.bars} | {bar.end for bar in b.bars if bar.finite}
    for x in (a, t):
        if x is not None and x in spectrum:
            raise SpectralEndpoint(f"window endpoint {x} is a bar endpoint")
    if a is None and t is None:
        return sum(bar.multiplicity for bar in b.bars if not bar.finite)
    if a is None:
        return sum(bar.multiplicity for bar in b.bars if bar.contains(t))
    if t is None:
        return sum(
            bar.multiplicity for bar in b.bars if (bar.contains(a) if bar.finite else bar.start > a)
        )
    return sum(
        bar.multiplicity
        for bar in b.bars
        if (bar.contains(a) != bar.contains(t) if bar.finite else not bar.contains(a) and bar.contains(t))
    )


def _pick_avoiding_by_fractions(lo, hi, avoid):
    cuts = [lo] + sorted(x for x in avoid if lo < x < hi) + [hi]
    for a, b in zip(cuts, cuts[1:]):
        if a < b:
            return (a + b) / 2
    raise ValueError("empty interval")


def torsion_witness_by_fractions(b):
    """The torsion witness window, every cut chosen against the set of all
    bar endpoints."""
    if not b.bars:
        raise EmptyBarcode("torsion detection needs a nonempty barcode")
    avoid = {bar.start for bar in b.bars} | {bar.end for bar in b.bars if bar.finite}
    stats = bar_stats_by_fractions(b)
    pick = lambda lo, hi: _pick_avoiding_by_fractions(lo, hi, avoid)
    if stats.c_plus is not None and stats.c_plus > stats.c_minus:
        s = stats.c_plus if stats.c_plus != 0 else stats.c_minus
        r = abs(s) / 2
        return ActionWindow(pick(s - r, s), pick(s, s + r))
    for bar in b.bars:
        if not bar.finite:
            continue
        a, e = bar.start, bar.end
        if e > 0:
            return ActionWindow(pick(max(a, Fraction(0)), e), pick(e, e + 1))
        if e < 0:
            return ActionWindow(pick(a, e), pick(e, Fraction(0)))
        return ActionWindow(pick(a - 1, a), pick(a, Fraction(0)))
    return None


# ---------------------------------------------------------------------------
# homology by dense elimination and by solving


@dataclass(frozen=True)
class RrefResult:
    rank: int
    kernel_basis: list  # list of int64 vectors, m.v = 0
    image_basis: list  # original columns spanning the column space
    pivots: tuple
    reduced: np.ndarray


def rref(m: FpMatrix) -> RrefResult:
    """Reduced row echelon form with kernel and image bases.

    kernel vectors use the standard free-variable parameterization (one
    basis vector per non-pivot column, unit in that coordinate); the image
    basis is the original pivot columns, so both are deterministic.
    """
    red, pivots = _row_reduce(m.a, m.p)
    rank = len(pivots)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    kernel = []
    for f in free:
        v = np.zeros(m.cols, dtype=np.int64)
        v[f], v[pivots] = 1, (-red[:rank, f]) % m.p
        kernel.append(v)
    image = [m.a[:, c].copy() for c in pivots]
    return RrefResult(rank, kernel, image, tuple(pivots), red)


def kernel_basis(m: FpMatrix) -> list:
    return rref(m).kernel_basis


def homology_dense(cx, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, coords) for H^k: the n_k x dim H^k matrix of cocycle
    representatives of a basis, and the dim H^k x n_k matrix sending a
    cocycle to its class coordinates in that basis.

    One elimination of [d^(k-1) | Z | I], with Z the kernel basis of
    rref(d^k): its pivot columns in Z are cocycles independent modulo the
    image of d^(k-1), and since Z spans ker d^k they represent a basis of
    H^k.  The identity block records the row operations E, and E sends each
    pivot column to its unit vector, so the rows of E at the Z pivots read
    off the class coordinates of any cocycle.
    """
    dprev = d_block(cx, k - 1)
    ker = rref(FpMatrix(d_block(cx, k), cx.p)).kernel_basis
    n, m = dprev.shape
    z = np.array(ker, dtype=np.int64).reshape(len(ker), n).T
    red, pivots = _row_reduce(np.hstack([dprev, z, np.eye(n, dtype=np.int64)]), cx.p)
    lo = sum(c < m for c in pivots)
    hi = sum(c < m + len(ker) for c in pivots)
    if hi != len(ker):
        raise NotSquareZero(f"the image of d^{k - 1} is not inside the kernel of d^{k}")
    return z[:, [c - m for c in pivots[lo:hi]]], red[lo:hi, m + len(ker):]


def solve(m: FpMatrix, b: np.ndarray):
    """One solution x of m.x = b, or None if inconsistent."""
    b = np.asarray(b, dtype=np.int64).reshape(-1) % m.p
    if b.shape[0] != m.rows:
        raise ValueError("dimension mismatch")
    aug = np.hstack([m.a, b.reshape(-1, 1)])
    red, pivots = _row_reduce(aug, m.p)
    if m.cols in pivots:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, m.cols]
    return x


def _image_and_reps(cx, k: int) -> tuple[list, list]:
    """(image basis of d^(k-1), homology representatives): the kernel
    vectors of d^k that are pivots after the image basis."""
    ker = rref(FpMatrix(d_block(cx, k), cx.p)).kernel_basis
    im = rref(FpMatrix(d_block(cx, k - 1), cx.p)).image_basis
    cols = im + ker
    stacked = np.array(cols, dtype=np.int64).T if cols else np.zeros((cx.dim(k), 0), dtype=np.int64)
    pivots = rref(FpMatrix(stacked, cx.p)).pivots
    return im, [ker[j - len(im)] for j in pivots if j >= len(im)]


def homology_basis_by_solve(cx, k: int) -> list:
    return _image_and_reps(cx, k)[1]


def express_in_homology_by_solve(cx, k: int, v) -> np.ndarray:
    """Coordinates of the class [v] in homology_basis_by_solve(cx, k)."""
    v = np.asarray(v, dtype=np.int64) % cx.p
    if (d_block(cx, k) @ v % cx.p).any():
        raise InvalidComplex("vector is not a cocycle")
    im, reps = _image_and_reps(cx, k)
    cols = im + reps
    stacked = np.array(cols, dtype=np.int64).T if cols else np.zeros((cx.dim(k), 0), dtype=np.int64)
    x = solve(FpMatrix(stacked, cx.p), v)
    if x is None:
        raise InvalidComplex("cocycle not in span of homology data")
    return x[len(im):] % cx.p


def _induced_by_vectors(m, src, tgt, k: int) -> np.ndarray:
    """The map that the n x n matrix m induces from H^k(src) to H^k(tgt),
    applying m to each representative padded with zeros to all n generators."""
    p, n = src.p, src.dim()
    idx = src.degree_indices(k)
    reps = homology_basis_by_solve(src, k)
    out = np.zeros((len(homology_basis_by_solve(tgt, k)), len(reps)), dtype=np.int64)
    for c, z in enumerate(reps):
        w = np.zeros(n, dtype=np.int64)
        w[idx] = z
        out[:, c] = express_in_homology_by_solve(tgt, k, ((m @ w) % p)[idx])
    return out


def algebraic_ss_by_vectors(model) -> dict:
    """d10_induced, d21_induced, e2_by_degree and sigma_module of
    algebraic_ss_pages, each induced map built one vector at a time; the
    sigma_module entry is None unless sigma has order p and commutes with
    d_0^0."""
    p, base = model.p, model.base
    ids = [g.id for g in base.generators]
    even_cx = ChainComplex(p, base.generators, _coeff_map(model.terms.get((0, 0), []), ids))
    odd_cx = ChainComplex(p, base.generators, _coeff_map(model.terms.get((1, 1), []), ids))
    degrees = [k for k in base.degrees() if homology_basis_by_solve(even_cx, k) or homology_basis_by_solve(odd_cx, k)]
    out = {"d10_induced": {}, "d21_induced": {}, "e2_by_degree": {}, "sigma_module": None}
    for k in degrees:
        m10 = out["d10_induced"][k] = _induced_by_vectors(term_dense(model, 1, 0), even_cx, odd_cx, k)
        m21 = out["d21_induced"][k] = _induced_by_vectors(term_dense(model, 2, 1), odd_cx, even_cx, k)
        r10, r21 = rank(FpMatrix(m10, p)), rank(FpMatrix(m21, p))
        out["e2_by_degree"][k] = {"one": m10.shape[1] - r10 - r21, "theta": m21.shape[1] - r21 - r10}
    s = sigma_matrix_by_entries(base)
    d00 = term_dense(model, 0, 0)
    power = np.eye(base.dim(), dtype=np.int64)
    for _ in range(p):
        power = power @ s % p
    if np.array_equal(power, np.eye(base.dim())) and not ((s @ d00 - d00 @ s) % p).any():
        blocks = [_induced_by_vectors(s, even_cx, even_cx, k) for k in degrees]
        total = sum(b.shape[0] for b in blocks)
        star = np.zeros((total, total), dtype=np.int64)
        off = 0
        for b in blocks:
            star[off:off + b.shape[0], off:off + b.shape[0]] = b
            off += b.shape[0]
        out["sigma_module"] = decompose(_sparse(star), p)
    return out


# ---------------------------------------------------------------------------
# structure checks, generator by generator


def structure_violations_by_loops(cx) -> list[str]:
    """The degree rule of d by a loop over its entries, then d.d per degree."""
    out = []
    for src, row in cx.differential.items():
        dsrc = cx.generator(src).degree
        for tgt in row:
            if cx.generator(tgt).degree != dsrc + 1:
                out.append(f"d({src}) hits {tgt}, which is not one degree higher")
    for k in cx.degrees():
        if (d_block(cx, k + 1) @ d_block(cx, k) % cx.p).any():
            out.append(f"d.d != 0 out of degree {k}")
    return out


def sigma_violations_by_loops(V) -> tuple[dict[str, bool], list[str]]:
    """The sigma_structure and equivariance checks with their messages,
    comparing each sigma entry's degree and action as generators."""
    checks = {"sigma_structure": True, "equivariance": True}
    violations: list[str] = []
    for src, row in V.sigma.items():
        g = V.generator(src)
        for tgt in row:
            if V.generator(tgt).degree != g.degree:
                checks["sigma_structure"] = False
                violations.append(f"sigma({src}) changes degree")
            if V.generator(tgt).action != g.action:
                checks["sigma_structure"] = False
                violations.append(f"sigma({src}) changes action")
    if checks["sigma_structure"]:
        p = V.p
        for k in V.degrees():
            s = power = sigma_block(V, k)
            for _ in range(p - 1):
                power = power @ s % p
            if not np.array_equal(power, np.eye(len(s), dtype=np.int64)):
                checks["sigma_structure"] = False
                violations.append(f"sigma^{p} != 1 in degree {k}")
            dk = d_block(V, k)
            if not np.array_equal(dk @ s % p, sigma_block(V, k + 1) @ dk % p):
                checks["equivariance"] = False
                violations.append(f"sigma does not commute with d out of degree {k}")
    return checks, violations


def sigma_violations_dense(V) -> list[tuple[str, str]]:
    """(check, message) of EquivariantComplex._sigma_violations from dense
    blocks per degree: sigma^p by repeated squaring against the identity,
    and d sigma against sigma d, one degree at a time."""
    gens = {g.id: g for g in V.generators}
    moved = [
        ("sigma_structure", f"sigma({src}) changes {what}")
        for src, row in V.sigma.items()
        for tgt in row
        for what in ("degree", "action")
        if getattr(gens[tgt], what) != getattr(gens[src], what)
    ]
    if moved:
        return moved
    out = []
    p = V.p
    for k in V.degrees():
        s = sigma_block(V, k)
        if not np.array_equal(_matpow(s, p, p), np.eye(len(s), dtype=np.int64)):
            out.append(("sigma_structure", f"sigma^{p} != 1 in degree {k}"))
        dk = d_block(V, k)
        if not np.array_equal(_matmul_mod(dk, s, p), _matmul_mod(sigma_block(V, k + 1), dk, p)):
            out.append(("equivariance", f"sigma does not commute with d out of degree {k}"))
    return out


def validate_by_message_text(V, *, strict_action: bool = False) -> ValidationReport:
    """EquivariantComplex.validate as it sorted the d messages into checks
    by whether their text holds "degree"; "d.d != 0 out of degree k" does,
    so a d.d failure lands on degree_one_differential."""
    checks = {"unique_ids": True, "degree_one_differential": True, "square_zero": True}
    violations = structure_violations_by_loops(V)
    for msg in violations:
        if "degree" in msg:
            checks["degree_one_differential"] = False
        else:
            checks["square_zero"] = False
    sigma_checks, sigma_violations = sigma_violations_by_loops(V)
    checks.update(sigma_checks)
    violations.extend(sigma_violations)
    if strict_action:
        action = action_violations_by_fractions(V)
        checks["action_decrease"] = not action
        violations.extend(action)
    return ValidationReport(all(checks.values()), checks, violations)


def construction_error_by_loops(V) -> str | None:
    """The InvalidComplex message a checked EquivariantComplex with V's
    data raises, or None: d's violations first, then sigma's."""
    for bad in (structure_violations_by_loops(V), sigma_violations_by_loops(V)[1]):
        if bad:
            return "; ".join(bad)
    return None


def _degree_violation_dense(m, degrees, shift: int):
    """First nonzero entry (row, col) of m with degrees[row] != degrees[col] + shift,
    in row-major order, or None."""
    rows, cols = np.nonzero(m)
    bad = np.flatnonzero(degrees[rows] != degrees[cols] + shift)
    return (int(rows[bad[0]]), int(cols[bad[0]])) if bad.size else None


def tate_homogeneity_dense(V) -> None:
    """Raise the InvalidComplex of tate_columns unless the dense n x n
    d raises degree by 1 and the dense sigma keeps it."""
    n = V.dim()
    degrees = np.array([g.degree for g in V.generators], dtype=np.int64)
    d = coeff_matrix_by_entries(V, V.differential, range(n), range(n))
    for what, m, shift in (("d", d, 1), ("sigma", sigma_matrix_by_entries(V), 0)):
        bad = _degree_violation_dense(m, degrees, shift)
        if bad is not None:
            r, c = bad
            raise InvalidComplex(
                f"{what} does not shift degree by {shift} at {V.generators[c].id} -> "
                f"{V.generators[r].id}: the Tate differential is not homogeneous"
            )


def model_degree_check_dense(model) -> None:
    """Raise InvalidComplex unless every dense d_term (i, alpha) has internal
    degree 1 - i + alpha."""
    gens = model.base.generators
    degrees = np.array([g.degree for g in gens], dtype=np.int64)
    for (i, alpha), m in model_terms_dense(model).items():
        bad = _degree_violation_dense(m, degrees, 1 - i + alpha)
        if bad is not None:
            r, c = bad
            raise InvalidComplex(
                f"d_term ({i},{alpha}) entry {gens[c].id} -> "
                f"{gens[r].id} violates degree 1-i+alpha = {1 - i + alpha}"
            )


def model_validate_dense(model) -> None:
    """The degree, action and square checks of a model, on dense terms and
    on blocks assembled here."""
    model_degree_check_dense(model)
    gens = model.base.generators
    terms = model_terms_dense(model)
    for (i, alpha), m in terms.items():
        strict = (i, alpha) in ((0, 0), (1, 1))
        for r, c in zip(*np.nonzero(m)):
            a, b = gens[r].action, gens[c].action
            if (a >= b) if strict else (a > b):
                rule = "strictly decrease" if strict else "not increase"
                raise FiltrationViolation(f"d_term ({i},{alpha}) must {rule} action ({gens[c].id} -> {gens[r].id})")
    n = model.base.dim()
    acbd = np.zeros((4, n, n), dtype=np.int64)
    for (i, alpha), m in terms.items():
        acbd[2 * alpha + i % 2] += m
    A, C, B, D = acbd % model.p
    if not blocks_square_zero(A, B, C, D, model.p):
        raise NotSquareZero("assembled equivariant differential does not square to zero")


# ---------------------------------------------------------------------------
# the Morse resolution as a complex


def resolution_homology_by_complex(p: int, length: int) -> tuple[int, ...]:
    """Homology dimensions of the length-term alternating resolution, from
    the complex itself: generator e{k}.{j} is e_j in degree k, mapped by
    1 - sigma out of even degrees and by N out of odd ones."""
    gens = [Generator(f"e{k}.{j}", k, 0) for k in range(length) for j in range(p)]
    diff: dict[str, dict[str, int]] = {}
    for k in range(length - 1):
        for j in range(p):
            if k % 2 == 0:
                # (1 - sigma) e_j = e_j - e_{j+1}
                diff[f"e{k}.{j}"] = {f"e{k + 1}.{j}": 1, f"e{k + 1}.{(j + 1) % p}": p - 1}
            else:
                diff[f"e{k}.{j}"] = {f"e{k + 1}.{i}": 1 for i in range(p)}
    dims = ChainComplex(p, gens, diff).homology_dims()
    return tuple(dims.get(k, 0) for k in range(length))


# ---------------------------------------------------------------------------
# report trees


def _json_key(k) -> str:
    if isinstance(k, tuple):
        return ",".join(str(v) for v in k)
    return str(k)


def jsonable(x):
    """Recursively convert results to plain JSON types; exact rationals
    become "num/den" strings."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, Fraction):
        return _frac_str(x)
    if isinstance(x, int):
        return int(x)
    if isinstance(x, ActionWindow):
        return {"lower": jsonable(x.lower), "upper": jsonable(x.upper)}
    if isinstance(x, dict):
        return {_json_key(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__} into a report")

"""Exact linear algebra over the prime field F_p: dense, and sparse columns.

Inside the package a matrix is sparse columns, a list of {row: residue}
dicts, or a plain numpy int64 array of residues in [0, p), and its owner
holds the prime: ChainComplex.p, EquivariantFloerModel.p, or the p of a
sigma file.  The prime is checked where it enters: ChainComplex.__init__,
the JSON readers, nilpotent_partition and the FpMatrix constructor.
FpMatrix, a checked dense matrix, is only what the seeded sigma samplers
of random_instances return.  Every rank that is not read off
reduce_columns' lows comes from column_rank, which picks dense or sparse
elimination from the columns.  Homology is read off the sparse
reduce_columns, whose choice of independent columns depends only on the
column order (complexes.ChainComplex._homology).

The prime of a matrix must stay below MATRIX_PRIME_BOUND = 2^24: then a
product of two entries stays below 2^48, and every product of n x n
matrices is exact in int64 for n <= 2^15.  Every product of residue
arrays goes through _matmul_mod, which picks its route from the shape:
below _BLAS_MIN_WORK multiply-adds it runs on int64, at or above it on
float64 BLAS while its sums stay below 2^53, and past that on int64 again.
No power of an array is taken here: powers, the norm among them, are
products of sparse columns (complexes._power).  Primality takes any number
below PRIMALITY_BOUND, where the Miller-Rabin test of is_prime is exact.

numpy is imported inside the routines that build or use arrays, not at
the top: primality, the sparse reduce_columns and column_rank on sparse
columns run without it, so a process that only reduces sparse columns
never loads it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING

from .errors import NotNilpotent, NotPrime, PrimeTooLarge

if TYPE_CHECKING:
    import numpy as np

MATRIX_PRIME_BOUND = 1 << 24
# m k n multiply-adds of an (m x k)(k x n) product from which float64 BLAS,
# with its conversions, beats numpy's int64 loop: near 20 x 20 x 20
_BLAS_MIN_WORK = 20**3
# (base, psi): Miller-Rabin with every base up to this one is exact below
# psi, the least strong pseudoprime to all of them (OEIS A014233; Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (
    (2, 2047),
    (3, 1_373_653),
    (5, 25_326_001),
    (7, 3_215_031_751),
    (11, 2_152_302_898_747),
    (13, 3_474_749_660_383),
    (17, 341_550_071_728_321),
    (19, 341_550_071_728_321),
    (23, 3_825_123_056_546_413_051),
    (29, 3_825_123_056_546_413_051),
    (31, 3_825_123_056_546_413_051),
    (37, 318_665_857_834_031_151_167_461),
    (41, 3_317_044_064_679_887_385_961_981),
)
PRIMALITY_BOUND = _MR_BASES[-1][1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises PrimeTooLarge from PRIMALITY_BOUND on.

    Bases are tried in order and the test stops once n is below the bound
    for the bases tried so far, so small moduli cost one or two powers.
    """
    if n < 2:
        return False
    if n >= PRIMALITY_BOUND:
        raise PrimeTooLarge(f"{n} is not below {PRIMALITY_BOUND}, the bound for deterministic primality testing")
    for q, _ in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True  # no prime factor up to 41
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a, psi in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


@lru_cache(maxsize=1024)
def _check_matrix_prime(p: int) -> int:
    """check_prime, plus the bound that keeps int64 matrix arithmetic exact."""
    if p >= MATRIX_PRIME_BOUND:
        raise PrimeTooLarge(f"p = {p} is not below 2^24, the bound for exact int64 matrix arithmetic")
    return check_prime(p)


class FpMatrix:
    """Dense matrix over F_p: what the seeded sigma samplers return.

    Construction checks the prime and reduces the entries; inside the
    package matrices are plain int64 residue arrays (the attribute a), and
    their products go through _matmul_mod.
    """

    __slots__ = ("a", "p")

    def __init__(self, array, p: int):
        import numpy as np

        _check_matrix_prime(p)
        a = np.asarray(array, dtype=np.int64)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        elif a.ndim == 1:
            a = a.reshape(-1, 1)
        if a.ndim != 2:
            raise ValueError("FpMatrix needs a 2-d array")
        self.a = a % p
        self.p = p

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool((self.a == other.a).all())
        )


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b % p for int64 arrays of residues in [0, p); b may be a vector.

    Every partial sum is an integer of at most k (p - 1)^2 for inner
    dimension k.  A product of at least _BLAS_MIN_WORK multiply-adds whose
    sums stay below 2^53 runs exactly on float64 BLAS; a smaller one, or one
    past 2^53, runs on int64, which numpy multiplies without BLAS.
    """
    import numpy as np

    if a.shape[0] * b.size >= _BLAS_MIN_WORK and a.shape[1] * (p - 1) ** 2 < 1 << 53:
        out = a.astype(np.float64) @ b.astype(np.float64)
        return np.fmod(out, p, out=out).astype(np.int64)
    return a @ b % p


def _row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """In-place RREF of a copy; returns (reduced array, pivot column list)."""
    import numpy as np

    a = a % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def reduce_columns(columns, p: int) -> list[int]:
    """lows[j], the largest key of sparse column j {key: residue} once reduced
    left to right in place, or -1.  A reduced column is kept with its low's
    inverse to clear that low later (PHAT; Bauer et al., J. Symb. Comput. 2017)."""
    pivot: dict[int, tuple[dict[int, int], int]] = {}
    lows: list[int] = []
    for col in columns:
        while col:
            lo = max(col)
            hit = pivot.get(lo)
            if hit is None:
                pivot[lo] = col, pow(col[lo], -1, p)
                break
            other, inv = hit
            factor = col[lo] * inv % p
            for r, c in other.items():
                v = (col.get(r, 0) - factor * c) % p
                if v:
                    col[r] = v
                else:
                    del col[r]
        else:
            lo = -1
        lows.append(lo)
    return lows


# cells from which column_rank may eliminate dense.  On random square
# matrices (p = 3 and 7, 2-core Xeon, numpy 2.4) the sparse reduction won at
# every density up to 28 x 28, and _row_reduce won from a quarter nonzero
# at 40 x 40 and from a tenth at 100 x 100, as the sparse columns fill in
_DENSE_MIN_CELLS = 32 * 32


def column_rank(columns, rows: int, p: int) -> int:
    """The rank over F_p of the rows x len(columns) matrix whose columns are
    the sparse {row: residue} dicts columns, which are left unchanged.

    This is the one choice of density for elimination over F_p, as
    complexes._compose is for products; ratfun.bareiss_rank takes the same
    quarter over F_p[u].  A matrix of at least _DENSE_MIN_CELLS cells, at most
    MAX_BLOCK_CELLS, with a quarter of them nonzero, runs _row_reduce on its
    dense cut; any other counts the lows of reduce_columns on copies.  On a
    dense conjugated sigma of 399 generators the sparse route alone made
    decompose 4.5 to 6 times slower; on a permutation it stays linear.
    """
    from .complexes import MAX_BLOCK_CELLS, _dense

    cells = rows * len(columns)
    if _DENSE_MIN_CELLS <= cells <= MAX_BLOCK_CELLS and 4 * sum(map(len, columns)) >= cells:
        return len(_row_reduce(_dense(columns, rows), p)[1])
    return sum(lo >= 0 for lo in reduce_columns([dict(col) for col in columns], p))


def nilpotent_partition(t, p: int) -> list[int]:
    """Jordan block sizes of a nilpotent operator with t^p = 0, given as
    square sparse columns: a key at or past len(t) raises NotNilpotent.

    Computed from the rank sequence: the number of blocks of size >= k is
    rank(t^{k-1}) - rank(t^k), so exactly k is its second difference.
    The ranks are taken up to the first k with rank(t^(k-1)) = rank(t^k),
    as every later power has that rank too, or up to k = p: at most n + 1
    ranks.  t^p = 0 exactly when that last power t^k is 0.  Returned sorted
    descending; sizes sum to the dimension.
    """
    from .complexes import _compose

    _check_matrix_prime(p)
    n = len(t)
    if max(chain.from_iterable(t), default=-1) >= n:
        raise NotNilpotent("operator must be square")
    ranks, power = [n], t  # ranks[k] = rank(t^k); power = t^len(ranks)
    while True:
        ranks.append(column_rank(power, n, p))
        if ranks[-1] == ranks[-2] or len(ranks) > p:
            break
        power = _compose(power, t, p)
    if any(power):
        raise NotNilpotent(f"t^{p} != 0")
    ranks += [0, 0]
    sizes = [k for k in range(len(ranks) - 2, 0, -1) for _ in range(ranks[k - 1] - 2 * ranks[k] + ranks[k + 1])]
    if sum(sizes) != n:
        raise RuntimeError(f"Jordan block sizes {sizes} do not sum to the dimension {n}")
    return sizes

"""Exact linear algebra over the prime field F_p: dense, and sparse columns.

Matrices are numpy int64 arrays with entries reduced mod p; every public
routine returns fully reduced results.  Kernel and image bases come out of
one reduced row echelon computation and are deterministic for a fixed
column order (callers wanting "lexicographic by generator id" order their
columns that way).

The prime of a matrix must stay below MATRIX_PRIME_BOUND = 2^24: then a
product of two entries stays below 2^48, and every product of n x n
matrices is exact in int64 for n <= 2^15.  _matmul_mod runs the same
exact product on float64 BLAS while its sums stay below 2^53.  FpScalar
uses Python integers and takes any prime below PRIMALITY_BOUND, where the
Miller-Rabin test of is_prime is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotNilpotent, NotPrime, PrimeTooLarge

MATRIX_PRIME_BOUND = 1 << 24
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


@dataclass(frozen=True)
class FpScalar:
    """A residue in [0, p); the modulus is primality-checked."""

    value: int
    p: int

    def __post_init__(self) -> None:
        check_prime(self.p)
        object.__setattr__(self, "value", self.value % self.p)

    def __add__(self, other: "FpScalar") -> "FpScalar":
        self._same(other)
        return FpScalar(self.value + other.value, self.p)

    def __sub__(self, other: "FpScalar") -> "FpScalar":
        self._same(other)
        return FpScalar(self.value - other.value, self.p)

    def __mul__(self, other: "FpScalar") -> "FpScalar":
        self._same(other)
        return FpScalar(self.value * other.value, self.p)

    def inverse(self) -> "FpScalar":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse")
        return FpScalar(pow(self.value, -1, self.p), self.p)

    def _same(self, other: "FpScalar") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __int__(self) -> int:
        return self.value


class FpMatrix:
    """Dense matrix over F_p.  Immutable by convention: operations copy."""

    __slots__ = ("a", "p")

    def __init__(self, array, p: int):
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

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(a: np.ndarray, p: int) -> "FpMatrix":
        """A 2-d int64 array reduced mod p, for a prime already checked."""
        m = object.__new__(FpMatrix)
        m.a, m.p = a % p, p
        return m

    @staticmethod
    def zeros(rows: int, cols: int, p: int) -> "FpMatrix":
        return FpMatrix._of(np.zeros((rows, cols), dtype=np.int64), _check_matrix_prime(p))

    @staticmethod
    def identity(n: int, p: int) -> "FpMatrix":
        return FpMatrix._of(np.eye(n, dtype=np.int64), _check_matrix_prime(p))

    # -- shape / access ----------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.a[:, j].copy()

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool((self.a == other.a).all())
        )

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.a.tolist()})"

    # -- arithmetic ----------------------------------------------------

    def _same(self, other: "FpMatrix") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._same(other)
        return FpMatrix._of(self.a + other.a, self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._same(other)
        return FpMatrix._of(self.a - other.a, self.p)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix._of(-self.a, self.p)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._same(other)
        return FpMatrix._of(self.a @ other.a, self.p)

    def power(self, k: int) -> "FpMatrix":
        """self^k in floor(log2 k) + popcount(k) - 1 products (k >= 1)."""
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out @ base
            k >>= 1
            if k:
                base = base @ base
        return FpMatrix.identity(self.rows, self.p) if out is None else out

    def mul_vec(self, v: np.ndarray) -> np.ndarray:
        return (self.a @ (np.asarray(v, dtype=np.int64) % self.p)) % self.p


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b % p for int64 matrices of residues.  Every partial sum is an
    integer of at most k (p - 1)^2 for inner dimension k; below 2^53 float64
    holds it exactly, so the product runs on BLAS, and above it on int64."""
    if a.shape[1] * (p - 1) ** 2 < 1 << 53:
        out = a.astype(np.float64) @ b.astype(np.float64)
        return np.fmod(out, p, out=out).astype(np.int64)
    return a @ b % p


def _row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """In-place RREF of a copy; returns (reduced array, pivot column list)."""
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
    red, pivots = _row_reduce(m.a.copy(), m.p)
    rank = len(pivots)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    kernel = []
    for f in free:
        v = np.zeros(m.cols, dtype=np.int64)
        v[f], v[pivots] = 1, (-red[:rank, f]) % m.p
        kernel.append(v)
    image = [m.column(c) for c in pivots]
    return RrefResult(rank, kernel, image, tuple(pivots), red)


def rank(m: FpMatrix) -> int:
    return len(_row_reduce(m.a.copy(), m.p)[1])


def kernel_basis(m: FpMatrix) -> list:
    return rref(m).kernel_basis


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


def solve_in_span(basis: list, v: np.ndarray, p: int):
    """Coefficients expressing v in the given spanning vectors, or None."""
    if not basis:
        return None if (np.asarray(v) % p).any() else np.zeros(0, dtype=np.int64)
    m = FpMatrix(np.column_stack(basis), p)
    return solve(m, v)


def nilpotent_partition(t: FpMatrix) -> list[int]:
    """Jordan block sizes of a nilpotent operator with t^p = 0.

    Computed from the rank sequence: the number of blocks of size >= k is
    rank(t^{k-1}) - rank(t^k), so exactly k is its second difference.
    Returned sorted descending; sizes sum to the dimension.
    """
    if t.rows != t.cols:
        raise NotNilpotent("operator must be square")
    n, p = t.rows, t.p
    ranks, power = [n], t  # ranks[k] = rank(t^k)
    for _ in range(p - 1):
        ranks.append(rank(power))
        power = power @ t
    if not power.is_zero():
        raise NotNilpotent(f"t^{p} != 0")
    ranks += [0, 0]
    sizes = [k for k in range(p, 0, -1) for _ in range(ranks[k - 1] - 2 * ranks[k] + ranks[k + 1])]
    if sum(sizes) != n:
        raise RuntimeError(f"Jordan block sizes {sizes} do not sum to the dimension {n}")
    return sizes

"""The cyclic-group Morse model on odd spheres and its Euler-class constants.

The infinite lens space is approached through finite skeleta: each level l
contributes 2p critical points, p of even index 2l (coordinate z_l a p-th
root of -1) and p of odd index 2l+1 (z_l a p-th root of 1).  The resulting
cochain complex is the standard alternating resolution

    F_p[G] --(1-sigma)--> F_p[G] --N--> F_p[G] --(1-sigma)--> ...

whose homology is F_p in degree 0 and zero in the interior degrees; the
last degree is a truncation boundary and carries no claim.

The local invertibility constants come from the top Chern class of n
copies of the reduced regular representation: (-1)^n u^{n(p-1)}, with the
sign produced by the product of all units of F_p (Wilson's theorem).

The resolution's homology is read off two p x p circulants, 1 - sigma and
N, built as sparse columns (N by squaring, as a complex's norm is) and each
ranked by one column reduction; the constants loop over the units of F_p.
So the public functions take primes below MORSE_PRIME_BOUND only and raise
PrimeTooLarge, before any work, above it.  The resolution length and the
number of critical points are bounded too (MAX_RESOLUTION_LENGTH,
MAX_CRITICAL_POINTS), and TooLarge is raised before anything is built.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .complexes import _affine, _power
from .errors import MalformedInput, PrimeTooLarge, check_size
from .fp_core import check_prime, reduce_columns

MORSE_PRIME_BOUND = 2**8
# one dimension per resolution degree, and 2p(l_max + 1) critical points
MAX_RESOLUTION_LENGTH = 10**5
MAX_CRITICAL_POINTS = 10**5

__all__ = [
    "CriticalPoint",
    "EulerConstant",
    "enumerate_critical_points",
    "resolution_homology",
    "wilson_constant",
    "local_euler_constant",
]


@dataclass(frozen=True)
class CriticalPoint:
    """A critical circle representative on the sphere skeleton.

    level is the coordinate index l; root_index locates the distinguished
    coordinate among the p roots (of 1 for odd parity, of -1 for even);
    the Morse index is 2*level plus one for odd parity.
    """

    p: int
    level: int
    root_index: int
    parity: str  # "even" or "odd"

    def __post_init__(self):
        check_prime(self.p)
        if self.level < 0:
            raise MalformedInput("level must be non-negative")
        if self.parity not in ("even", "odd"):
            raise MalformedInput(f"parity must be 'even' or 'odd', got {self.parity!r}")
        object.__setattr__(self, "root_index", self.root_index % self.p)

    @property
    def index(self) -> int:
        return 2 * self.level + (1 if self.parity == "odd" else 0)

    def coordinate(self) -> complex:
        """Numeric value of the distinguished coordinate z_level."""
        root = cmath.exp(2j * cmath.pi * self.root_index / self.p)
        return root if self.parity == "odd" else -root


def _check_budget(p: int) -> None:
    check_prime(p)
    if p >= MORSE_PRIME_BOUND:
        raise PrimeTooLarge(f"the Morse model takes primes below {MORSE_PRIME_BOUND}, got {p}")


def enumerate_critical_points(p: int, l_max: int) -> list[CriticalPoint]:
    """All critical points up to level l_max: exactly p per Morse index,
    2p(l_max + 1) in total."""
    _check_budget(p)
    if l_max < 0:
        raise MalformedInput("l_max must be non-negative")
    check_size("critical points 2p(l_max + 1)", 2 * p * (l_max + 1), MAX_CRITICAL_POINTS)
    return [
        CriticalPoint(p, l, k, parity)
        for l in range(l_max + 1)
        for parity in ("even", "odd")
        for k in range(p)
    ]


def resolution_homology(p: int, length: int) -> tuple[int, ...]:
    """Homology dimensions of the length-term alternating resolution.

    Degree k holds one copy of F_p[G]; the map out of degree k is
    1 - sigma for even k and the norm N for odd k.  So degree k has
    dimension p - rank(map out of k) - rank(map into k), where degree 0 has
    no map in and the last degree no map out.  Returns one dimension per
    degree; all but the first and last must vanish, and the last is a
    truncation artifact with no vanishing claim.
    """
    _check_budget(p)
    if length < 2:
        raise MalformedInput("resolution needs at least 2 terms")
    check_size("resolution length", length, MAX_RESOLUTION_LENGTH)
    sigma = [{(j + 1) % p: 1} for j in range(p)]  # e_j -> e_{j+1}, as columns
    # out_rank[k % 2]: the rank of the map out of degree k, 1 - sigma or
    # N = (sigma - 1)^(p-1), as the pivot count of one column reduction
    maps = (_affine(sigma, -1, 1, p), _power(_affine(sigma, 1, -1, p), p - 1, p))
    out_rank = [sum(low >= 0 for low in reduce_columns(m, p)) for m in maps]
    return tuple(
        p - (out_rank[k % 2] if k < length - 1 else 0) - (out_rank[(k - 1) % 2] if k else 0)
        for k in range(length)
    )


def wilson_constant(p: int) -> int:
    """Product of all units of F_p; always the residue p - 1."""
    _check_budget(p)
    out = 1
    for a in range(2, p):
        out = (out * a) % p
    return out


@dataclass(frozen=True)
class EulerConstant:
    """Top Chern-class coefficient of n reduced regular representations:
    the monomial sign * u^(n(p-1)) with sign = (-1)^n in F_p."""

    p: int
    n: int
    sign: int
    u_exponent: int


def local_euler_constant(n: int, p: int) -> EulerConstant:
    """The constant for n copies: sign (-1)^n (as a Wilson-product power),
    u-exponent n(p-1)."""
    _check_budget(p)
    if n < 0:
        raise MalformedInput("n must be non-negative")
    return EulerConstant(p=p, n=n, sign=pow(wilson_constant(p), n, p), u_exponent=n * (p - 1))

"""Structure of F_p[Z/pZ]-modules and the fixed-point dimension chain.

Over F_p the group algebra of Z/pZ is F_p[t]/(t^p) with t = sigma - 1, a
local PID quotient, so every finite module splits as a sum of Jordan blocks
F_p[t]/(t^k), 1 <= k <= p.  The block multiplicities determine both the
Tate cohomology (blocks of size p are invisible) and the invariant
dimension (one line per block), which is all the bookkeeping the
fixed-point inequalities need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .complexes import Columns, _affine
from .errors import NotNilpotent, NotOrderP, check_size
from .fp_core import column_rank, nilpotent_partition

# the largest p whose p Jordan multiplicities decompose allocates and a
# report lists; the largest prime the tests, the CI fuzz steps and the
# benchmark pass in is 509, below the fuzz size bound of 512
MAX_DECOMPOSE_PRIME = 4096


@dataclass(frozen=True)
class ModuleDecomposition:
    """Jordan block multiplicities of an F_p[Z/pZ]-module.

    multiplicities[k-1] counts blocks F_p[t]/(t^k); the module dimension is
    sum k * m_k.
    """

    p: int
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.multiplicities) != self.p:
            raise ValueError("need exactly p multiplicities")
        if any(m < 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def dim(self) -> int:
        return sum((k + 1) * m for k, m in enumerate(self.multiplicities))

    @property
    def free_rank(self) -> int:
        return self.multiplicities[-1]

    @property
    def is_free(self) -> bool:
        return all(m == 0 for m in self.multiplicities[:-1])


def decompose(sigma: Columns, p: int) -> ModuleDecomposition:
    """Jordan multiplicities of the module (F_p^n, sigma) over F_p[Z/pZ],
    for sigma given as n sparse columns; a key at or past n raises NotOrderP.

    sigma^p - 1 = (sigma - 1)^p in characteristic p, so sigma has order
    dividing p exactly when t = sigma - 1 has t^p = 0, which
    nilpotent_partition tests.  A prime above MAX_DECOMPOSE_PRIME raises
    TooLarge before any multiplicity is allocated."""
    check_size("p, the number of Jordan multiplicities", p, MAX_DECOMPOSE_PRIME)
    n = len(sigma)
    if max(chain.from_iterable(sigma), default=-1) >= n:
        raise NotOrderP("sigma must be square")
    try:
        partition = nilpotent_partition(_affine(sigma, 1, -1, p), p)
    except NotNilpotent:
        raise NotOrderP(f"sigma^{p} != identity") from None
    m = [0] * p
    for size in partition:
        m[size - 1] += 1
    return ModuleDecomposition(p, tuple(m))


def tate_and_invariant_dims(d: ModuleDecomposition) -> tuple[int, int]:
    """(total Tate dimension, invariant dimension) from the multiplicities.

    Each block of size k < p contributes one even and one odd Tate class;
    size-p blocks contribute none.  Every block has a one-dimensional fixed
    subspace.
    """
    small = sum(d.multiplicities[:-1])
    return 2 * small, small + d.multiplicities[-1]


@dataclass(frozen=True)
class ChainReport:
    """Evaluation of the dimension chain

        hf_phi_dim <= m_1+...+m_(p-1) <= invariant_dim <= module_dim.

    The first inequality is the sharpened bound; replacing its right side
    by invariant_dim gives the classical one.  When the module has free
    summands (m_p > 0) the sharpened bound is strictly stronger.
    """

    p: int
    hf_phi_dim: int
    decomposition: ModuleDecomposition
    sharpened_bound: int
    invariant_dim: int
    module_dim: int
    holds_sharpened: bool
    holds_classical: bool
    holds_invariant_leq_dim: bool
    sharpened_strictly_stronger: bool

    @property
    def chain_holds(self) -> bool:
        return self.holds_sharpened and self.holds_classical and self.holds_invariant_leq_dim


def smith_chain_check(hf_phi_dim: int, sigma_on_hf_phi_p: Columns, p: int) -> ChainReport:
    """Check the fixed-point dimension chain against a concrete sigma.

    hf_phi_dim is the dimension being bounded; sigma_on_hf_phi_p is the
    induced order-p operator on the p-th iterate's cohomology, as sparse
    columns.  The invariant dimension is cross-computed as
    n - rank(sigma - 1) and must match the multiplicity formula.
    """
    if hf_phi_dim < 0:
        raise ValueError("hf_phi_dim must be nonnegative")
    d = decompose(sigma_on_hf_phi_p, p)
    sharpened = sum(d.multiplicities[:-1])
    _, invariant = tate_and_invariant_dims(d)
    n = len(sigma_on_hf_phi_p)
    direct_invariant = n - column_rank(_affine(sigma_on_hf_phi_p, 1, -1, p), n, p)
    if direct_invariant != invariant:
        raise RuntimeError(
            f"invariant dimension {direct_invariant} from rank(sigma - 1) differs from {invariant} from the decomposition"
        )
    return ChainReport(
        p=d.p,
        hf_phi_dim=hf_phi_dim,
        decomposition=d,
        sharpened_bound=sharpened,
        invariant_dim=invariant,
        module_dim=d.dim,
        holds_sharpened=hf_phi_dim <= sharpened,
        holds_classical=hf_phi_dim <= invariant,
        holds_invariant_leq_dim=invariant <= d.dim,
        sharpened_strictly_stronger=d.multiplicities[-1] > 0,
    )

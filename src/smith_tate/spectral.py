"""Spectral sequences of the action filtration and the algebraic u-filtration.

Two filtrations drive this module.  A filtered complex is graded by its
real action values: the differential strictly lowers action, the sorted
distinct values give a finite decreasing filtration, and the pages E_r^s
converge to total homology.  Over a field the complex splits into the
intervals of its persistence pairing, so the pages are counted from the
pairing that also gives the barcode; the subquotient construction of E_r
is the reference route in tests/oracles.py.

The equivariant model filters by powers of u instead.  Its differential on
V<1, theta> over F_p[[u]] is assembled from a family of maps d_alpha^i
(alpha marks the theta-component of the source; i is the parameter index,
with d_alpha^i of internal degree 1 - i + alpha):

    d(x ox 1)     = sum_even_i  u^(i/2) d_0^i x ox 1
                  + sum_odd_i   u^((i-1)/2) d_0^i x ox theta
    d(x ox theta) = sum_odd_i   u^((i-1)/2) d_1^i x ox theta
                  + sum_even_i>=2 u^(i/2) d_1^i x ox 1

Only d_0^0 and d_1^1 preserve the u-filtration level, so the E_1 page is
the d_0^0-homology tensor R_p, with page differential induced by d_0^1 and
d_1^2; when the model comes from a genuine group action these induce
1 - sigma* and the norm N*, making E_2 the group cohomology of H(V).  The
infinity page is computed directly as the Tate cohomology of the assembled
matrix, and must fit under E_2.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .complexes import (
    ChainComplex,
    Columns,
    FilteredComplex,
    _affine,
    _compose,
    _json_object,
    _out_of_range,
    _power,
    _shown,
    _strict_int,
    _triplets_from_json,
    _triplets_to_json,
    complex_from_json,
    complex_to_json,
)
from .errors import (
    FiltrationViolation,
    InvalidComplex,
    MalformedInput,
    NotSquareZero,
)
from .fp_core import column_rank
from .persistence import persistence_pairing
from .tate import _parity_dims, assemble, tate_terms

if TYPE_CHECKING:
    from .module_decomp import ModuleDecomposition

__all__ = [
    "FilteredComplex",
    "EquivariantFloerModel",
    "SpectralSequencePages",
    "PageData",
    "AlgebraicSSPages",
    "action_ss_pages",
    "algebraic_ss_pages",
    "model_to_json",
    "model_from_json",
]


# ---------------------------------------------------------------------------
# action spectral sequence


@dataclass(frozen=True)
class PageData:
    r: int
    dims: dict  # (filtration index s, degree k) -> dim E_r^{s,k}
    differential_ranks: dict  # (s, k) -> rank of d_r: E_r^{s,k} -> E_r^{s+r,k+1}


@dataclass(frozen=True)
class SpectralSequencePages:
    levels: list  # ascending distinct action values; index s filters from above
    pages: list  # PageData for r = 1, 2, ...
    infinity: dict  # (s, k) -> dim E_inf^{s,k}
    total_homology: dict  # k -> dim H^k of the total complex
    converges: bool
    stabilized_at: int


def action_ss_pages(fc: ChainComplex) -> SpectralSequencePages:
    """Pages of the spectral sequence of the action filtration.

    Filtration index s keeps generators with action <= the (L-s)-th distinct
    value, so the differential raises s by at least 1.  Over F_p the
    filtered complex splits into the intervals of its persistence pairing,
    so the pages are counted from that pairing: E_r^{s,k} counts the
    generators at (s, k) that are unpaired or whose partner is at least r
    filtration steps away, and d_r out of (s, k) has rank the number of
    pairs exactly r steps apart whose higher-action end sits at (s, k).
    The subquotient construction Z_r^s / (Z_{r-1}^{s+1} + d Z_{r-1}^{s-r+1})
    is kept in tests/oracles.py as the reference route.  A differential can
    jump at most L-1 filtration steps, so page L is already the infinity
    page; every page up to there is reported.  E_infinity must total to the
    homology of the complex in each degree, computed independently.
    """
    order, lows = persistence_pairing(fc)
    levels, level = fc._level_table[:2]
    L = len(levels)
    keys = [(L - 1 - level[i], fc._degree[i]) for i in order]
    # pages each generator survives: the filtration distance to its partner
    life = [math.inf] * len(order)
    for j, i in enumerate(lows):
        if i >= 0:
            life[i] = life[j] = keys[i][0] - keys[j][0]
    pages = []
    last_page = max(1, L)
    for r in range(1, last_page + 1):
        dims = Counter(key for key, t in zip(keys, life) if t >= r)
        ranks = Counter(keys[j] for j, i in enumerate(lows) if i >= 0 and life[j] == r)
        pages.append(PageData(r, dict(sorted(dims.items())), dict(sorted(ranks.items()))))
    inf_dims = pages[-1].dims
    # earliest page that already equals E_infinity with nothing left to run
    stabilized_at = last_page
    for pg in reversed(pages[:-1]):
        if pg.dims != inf_dims or pg.differential_ranks:
            break
        stabilized_at = pg.r
    total_h = fc.homology_dims()
    einf_by_degree: dict[int, int] = {}
    for (_, k), v in inf_dims.items():
        einf_by_degree[k] = einf_by_degree.get(k, 0) + v
    converges = einf_by_degree == {k: v for k, v in total_h.items() if v}
    return SpectralSequencePages(
        levels=list(levels),
        pages=pages,
        infinity=inf_dims,
        total_homology=total_h,
        converges=converges,
        stabilized_at=stabilized_at,
    )


# ---------------------------------------------------------------------------
# the equivariant model


class EquivariantFloerModel:
    """A Z/pZ-equivariant deformation of a filtered complex.

    base supplies the generators, the action values, sigma, and the default
    structure maps; d_terms maps (i, alpha) to n sparse columns, read mod p,
    in the stored generator order, replacing or extending the defaults

        d_0^0 = d,  d_0^1 = 1 - sigma,  d_1^1 = -d,  d_1^2 = N.

    Every term d_alpha^i must have internal degree 1 - i + alpha; the two
    filtration-level terms d_0^0 and d_1^1 must strictly decrease action and
    all others must not increase it.  The assembled differential must square
    to zero over F_p[[u]].  terms holds each nonzero term as sparse columns
    of nonzero residues, the defaults being tate.tate_terms of base; no
    term is ever held as an array.
    """

    def __init__(
        self,
        base: ChainComplex,
        d_terms: dict[tuple[int, int], Columns] | None = None,
        i_max: int | None = None,
        *,
        check: bool = True,
    ):
        self.base = base
        self.p = p = base.p
        n = base.dim()
        terms = tate_terms(base)
        supplied = d_terms or {}
        for (i, alpha), cols in supplied.items():
            if alpha not in (0, 1) or i < 0:
                raise MalformedInput(f"bad d_term slot ({i}, {alpha})")
            if (i, alpha) == (0, 1):
                raise MalformedInput("the (i=0, alpha=1) slot does not exist")
            if len(cols) != n or not all(0 <= r < n for col in cols for r in col):
                raise MalformedInput(f"d_term ({i},{alpha}) must be {n} columns of rows below {n}")
            terms[(i, alpha)] = [{r: x for r, v in col.items() if (x := v % p)} for col in cols]
        if i_max is None:
            raise MalformedInput("i_max is required")
        self.i_max = int(i_max)
        for (i, alpha) in list(terms):
            if i > self.i_max:
                if (i, alpha) in supplied:
                    raise MalformedInput(f"d_term ({i},{alpha}) exceeds i_max={self.i_max}")
                del terms[(i, alpha)]  # defaults above i_max are dropped
        self.terms: dict[tuple[int, int], Columns] = {k: v for k, v in terms.items() if any(v)}
        self._verdict_cache: tuple[str | None, str | None] | None = None
        self._columns: Columns | None = None
        self._square_zero: bool | None = None
        if check:
            self._validate()

    def _verdict(self) -> tuple[str | None, str | None]:
        """Messages for the first d_term entry that breaks its degree rule
        and the first that breaks its action rule, or None; computed once.

        Term (i, alpha) must have internal degree 1 - i + alpha, so that the
        assembled differential is homogeneous of degree +1 with |u| = 2 and
        |theta| = 1; d_0^0 and d_1^1 must strictly decrease action and the
        others must not increase it.  Each message names the term's first
        breaking entry in row-major order.
        """
        if self._verdict_cache is None:
            ids, degree, level = self.base._ids, self.base._degree, self.base._level_table[1]
            degree_msg = action_msg = None
            for (i, alpha), cols in self.terms.items():
                entries = [(r, j) for j, col in enumerate(cols) for r in col]
                step = 1 - i + alpha
                if degree_msg is None and (bad := _out_of_range(entries, degree, step, step)):
                    tgt, src = (ids[x] for x in min(bad))
                    degree_msg = f"d_term ({i},{alpha}) entry {src} -> {tgt} violates degree 1-i+alpha = {step}"
                strict = (i, alpha) in ((0, 0), (1, 1))
                if action_msg is None and (bad := _out_of_range(entries, level, -math.inf, -1 if strict else 0)):
                    tgt, src = (ids[x] for x in min(bad))
                    rule = "strictly decrease" if strict else "not increase"
                    action_msg = f"d_term ({i},{alpha}) must {rule} action ({src} -> {tgt})"
            self._verdict_cache = (degree_msg, action_msg)
        return self._verdict_cache

    def _validate(self):
        degree_msg, action_msg = self._verdict()
        if degree_msg:
            raise InvalidComplex(degree_msg)
        if action_msg:
            raise FiltrationViolation(action_msg)
        if not self.square_is_zero():
            raise NotSquareZero("assembled equivariant differential does not square to zero")

    def columns(self) -> Columns:
        """The 2n sparse columns of the assembled differential at u = 1
        (tate.assemble): term (i, alpha) is u^(i // 2) d_alpha^i from
        theta^alpha to theta^(i mod 2).  Assembled once and shared, so
        callers must not write to them.  Raises InvalidComplex unless the
        differential is homogeneous, so that these columns determine it.
        """
        if self._columns is None:
            if degree_msg := self._verdict()[0]:
                raise InvalidComplex(degree_msg)
            self._columns = assemble(self.terms, self.base.dim(), self.p)
        return self._columns

    def square_is_zero(self) -> bool:
        """Whether the assembled differential squares to zero over F_p[u];
        computed once, at construction under check=True or on first use
        otherwise.

        With |u| = 2 and |theta| = 1 a homogeneous differential of degree +1
        is M(u) = u^(1/2) G^-1 M(1) G for G = diag(u^(deg/2)) over the total
        degrees of the basis, so M(u)^2 = u G^-1 M(1)^2 G vanishes exactly
        when M(1)^2 does.
        """
        if self._square_zero is None:
            m = self.columns()
            self._square_zero = not any(_compose(m, m, self.p))
        return self._square_zero

    def tate_parity_dims(self) -> tuple[int, int]:
        """(even, odd) F_p((u))-dims of the homology of the assembled complex."""
        return _parity_dims(self.base._degree, self.columns(), self.p)

    def __repr__(self) -> str:
        slots = sorted(self.terms)
        return f"EquivariantFloerModel(p={self.p}, n={self.base.dim()}, terms={slots}, i_max={self.i_max})"


# ---------------------------------------------------------------------------
# algebraic spectral sequence


@dataclass
class AlgebraicSSPages:
    """E_1, E_2, E_infinity data of the u-filtration spectral sequence.

    e1_* give the page-one dimensions per internal degree (homology of the
    filtration-preserving terms); d10_induced / d21_induced are the page
    differentials in those homology bases, per degree one sparse column
    {target class index: coefficient} per source class.  e2/einf dims are
    (even, odd) over F_p((u)); sigma_module reports the Jordan decomposition
    of the induced sigma* when the zeroth term is genuinely equivariant.
    """

    p: int
    e1_even_dims: dict
    e1_odd_dims: dict
    d10_induced: dict
    d21_induced: dict
    e2_by_degree: dict
    e2_dims: tuple[int, int]
    einf_dims: tuple[int, int]
    tate_bound_holds: bool
    sigma_module: ModuleDecomposition | None
    sigma_module_tate_dim: int | None


def _induced(a: Columns, src: ChainComplex, tgt: ChainComplex, k: int) -> Columns:
    """The map H^k(src) -> H^k(tgt) induced by the degree-0 operator with
    columns a on all generators, in the homology bases of src and tgt: a
    applied to the sparse representatives of src, whose images tgt reads
    in its class coordinates, one sparse column per class of src."""
    return tgt._coordinates(k, _compose(a, src._homology(k), src.p))


def algebraic_ss_pages(model: EquivariantFloerModel) -> AlgebraicSSPages:
    """E_1, E_2 and E_infinity of the u-filtration, with the dimension bound.

    E_1 is the homology of d_0^0 (even u-slots) and of d_1^1 (odd slots);
    the induced maps of d_0^1 and d_1^2 are computed in those bases and
    alternate to give E_2.  E_infinity is the directly computed Tate
    cohomology of the assembled complex; the bound asserts it fits under
    E_2 parity by parity.
    """
    from .module_decomp import ModuleDecomposition, decompose, tate_and_invariant_dims

    if not model.square_is_zero():
        raise NotSquareZero("model differential does not square to zero")
    p = model.p
    base = model.base
    n = base.dim()
    gens, zero = list(zip(base._ids, base._degree, base._action)), [{}] * n
    d00 = model.terms.get((0, 0), zero)
    # M(u)^2 = 0 and the theta -> 1 block has no u^0 term, so the u^0 parts
    # of its 1 -> 1 and theta -> theta blocks give (d_0^0)^2 = (d_1^1)^2 = 0
    even_cx = ChainComplex._of(p, gens, d00, check=False)
    d11 = model.terms.get((1, 1), zero)
    # when d_1^1 = -d_0^0, as for the default terms, it has d_0^0's kernel
    # vectors and image, so the same representatives and class
    # coordinates: the odd page complex is the even one
    odd_cx = even_cx if d11 == _affine(d00, -1, 0, p) else ChainComplex._of(p, gens, d11, check=False)
    e1_even = even_cx.homology_dims()
    e1_odd = odd_cx.homology_dims()
    degrees = sorted(set(e1_even) | set(e1_odd))
    d10_induced: dict[int, Columns] = {}
    d21_induced: dict[int, Columns] = {}
    e2_by_degree: dict[int, dict[str, int]] = {}
    e2_even_total = 0
    e2_odd_total = 0
    for k in degrees:
        # both induced maps have internal degree 0
        m10 = d10_induced[k] = _induced(model.terms.get((1, 0), zero), even_cx, odd_cx, k)
        m21 = d21_induced[k] = _induced(model.terms.get((2, 1), zero), odd_cx, even_cx, k)
        # m10 has a column per class of the even page, m21 one per class of the odd
        r10 = column_rank(m10, len(m21), p)
        r21 = column_rank(m21, len(m10), p)
        one_part = len(m10) - r10 - r21  # ker[d10] / im[d21]
        theta_part = len(m21) - r21 - r10  # ker[d21] / im[d10]
        e2_by_degree[k] = {"one": one_part, "theta": theta_part}
        if k % 2 == 0:
            e2_even_total += one_part
            e2_odd_total += theta_part
        else:
            e2_even_total += theta_part
            e2_odd_total += one_part
    einf = model.tate_parity_dims()
    bound = einf[0] <= e2_even_total and einf[1] <= e2_odd_total
    sigma_module = None
    sigma_tate = None
    # the base is homogeneous (tate_terms), so sigma's columns are all of sigma
    s = base.columns("sigma")
    if _power(s, p, p) == [{j: 1} for j in range(len(s))] and _compose(s, d00, p) == _compose(d00, s, p):
        # sigma descends to H(d_0^0), degree by degree: sum their Jordan blocks
        parts = [decompose(_induced(s, even_cx, even_cx, k), p).multiplicities for k in e1_even]
        sigma_module = ModuleDecomposition(p, tuple(map(sum, zip([0] * p, *parts))))
        sigma_tate = tate_and_invariant_dims(sigma_module)[0]
    return AlgebraicSSPages(
        p=p,
        e1_even_dims=e1_even,
        e1_odd_dims=e1_odd,
        d10_induced=d10_induced,
        d21_induced=d21_induced,
        e2_by_degree=e2_by_degree,
        e2_dims=(e2_even_total, e2_odd_total),
        einf_dims=einf,
        tate_bound_holds=bound,
        sigma_module=sigma_module,
        sigma_module_tate_dim=sigma_tate,
    )


# ---------------------------------------------------------------------------
# JSON


def model_to_json(model: EquivariantFloerModel) -> dict:
    out = complex_to_json(model.base)
    out["i_max"] = model.i_max
    out["d_terms"] = [
        {"i": i, "alpha": alpha, "matrix": _triplets_to_json(cols)}
        for (i, alpha), cols in sorted(model.terms.items())
    ]
    return out


def model_from_json(data) -> EquivariantFloerModel:
    data = _json_object(data, "model")
    base = complex_from_json({k: v for k, v in data.items() if k not in ("d_terms", "i_max", "filtered")})
    terms: dict[tuple[int, int], Columns] = {}
    raw = data.get("d_terms", [])
    if not isinstance(raw, list):
        raise MalformedInput("'d_terms' must be a list")
    for item in raw:
        if not isinstance(item, dict) or "i" not in item or "alpha" not in item:
            raise MalformedInput(f"bad d_term entry: {_shown(item)}")
        i, alpha = _strict_int(item["i"], "d_term 'i'"), _strict_int(item["alpha"], "d_term 'alpha'")
        terms[(i, alpha)] = _triplets_from_json(item.get("matrix", []), base.dim(), base.p)
    i_max = data.get("i_max")
    if i_max is None:  # the smallest value consistent with the terms and the default, 2
        i_max = max([2, *(i for i, _ in terms)])
    return EquivariantFloerModel(base, terms, _strict_int(i_max, "'i_max'"))

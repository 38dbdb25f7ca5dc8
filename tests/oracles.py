"""Polynomial reference routes for the u = 1 computations.

The library takes Tate ranks and square-zero checks at u = 1, which is
exact only because every differential it sees is homogeneous.  These
helpers redo the same computations over F_p[u] entry by entry, with no
use of the grading, so that tests can compare the two.
"""

from smith_tate.ratfun import bareiss_rank, padd, poly_mat_mul, pupow
from smith_tate.tate import assemble_parity_blocks


def model_poly_blocks(model):
    """Blocks (A, B, C, D) of an EquivariantFloerModel's differential over
    F_p[u]: term (i, alpha) contributes u^(i // 2) d_alpha^i."""
    p, n = model.p, model.base.dim()
    A, C, B, D = ([[() for _ in range(n)] for _ in range(n)] for _ in range(4))
    for (i, alpha), m in model.terms.items():
        tgt = (A, C, B, D)[2 * alpha + i % 2]
        for r in range(n):
            for c in range(n):
                if m[r, c]:
                    tgt[r][c] = padd(tgt[r][c], pupow(i // 2, int(m[r, c]), p), p)
    return A, B, C, D


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

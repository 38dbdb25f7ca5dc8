"""Exact arithmetic over the polynomial ring F_p[u], for the Bareiss rank.

Polynomials are tuples of residues indexed by u-exponent with no trailing
zeros; () is the zero polynomial.  Polynomial matrices are lists of rows of
such tuples.

bareiss_rank is the independent rank route over F_p(u): fraction-free
(Bareiss) Gaussian elimination on a polynomial matrix, used by
`tate_cohomology_dims(..., method="bareiss")` and by the tests as an
oracle.  It holds the matrix as one int64 coefficient array, indexed by
u-exponent on the last axis, and runs each elimination step as a few
exact array products.  Nothing else in the library computes over F_p[u]:
every differential it builds is homogeneous, so Tate ranks are F_p ranks
at u = 1 (see tate.tate_cohomology_dims) and the deformed models of
random_instances.random_floer_model are conjugated at u = 1.
"""

from __future__ import annotations

import numpy as np

from .errors import TooLarge, check_size

Poly = tuple  # tuple[int, ...], coefficient of u^k at index k

# cells (rows * cols * width) of the coefficient array bareiss_rank may hold
MAX_BAREISS_CELLS = 1 << 22
# rows * cols * width^2, the work of one step on the widest array; a matrix
# of degree-1 entries within the cell limit stays far below it
MAX_BAREISS_WORK = 1 << 31

# ---------------------------------------------------------------------------
# polynomial helpers


def pnorm(coeffs, p: int) -> Poly:
    c = [int(x) % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pupow(k: int, x: int, p: int) -> Poly:
    """x * u^k."""
    return pnorm((0,) * k + (x,), p)


# ---------------------------------------------------------------------------
# polynomial matrices as coefficient arrays


def _shift_matrices(q: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) Toeplitz matrices S with S[k, k + l] = q[..., l], one
    per leading index of q, so that a coefficient row x gives x @ S = the
    coefficients of x * q cut at cols.  A view of q padded with zeros, row
    k starting k places before row 0: no rows x cols array is allocated."""
    padded = np.zeros(q.shape[:-1] + (rows - 1 + cols,), dtype=np.int64)
    padded[..., rows - 1 : rows - 1 + min(q.shape[-1], cols)] = q[..., :cols]
    *lead, step = padded.strides
    return np.ndarray(q.shape[:-1] + (rows, cols), np.int64, padded, (rows - 1) * step, (*lead, -step, step))


def _series_inverse(q: np.ndarray, n: int, p: int) -> np.ndarray:
    """The first n coefficients of 1 / q as a power series; q[0] != 0."""
    q = q.tolist()
    inv = [pow(q[0], -1, p)]
    for k in range(1, n):
        s = sum(q[l] * inv[k - l] for l in range(1, min(k, len(q) - 1) + 1))
        inv.append(-s * inv[0] % p)
    return np.array(inv, dtype=np.int64)


def _trim(a: np.ndarray) -> np.ndarray:
    """a cut on its last axis after the highest coefficient that is nonzero
    anywhere in a."""
    live = np.flatnonzero(a.reshape(-1, a.shape[-1]).any(axis=0))
    return a[..., : live[-1] + 1 if live.size else 0]


def _divide_exact(num: np.ndarray, prev: np.ndarray, width: int, p: int) -> np.ndarray:
    """Each row of num divided by prev over F_p[u], or ArithmeticError.

    With prev = u^v q0 and q0(0) != 0, the quotient is num / u^v times the
    power series 1 / q0, cut to deg num - deg prev + 1 coefficients.  Then
    quotient * prev agrees with num below u^(qw + v) whenever the v lowest
    coefficients of num vanish, so only those and the deg q0 highest ones
    are checked.  An exact quotient is a minor, so at most width wide."""
    v = int(np.flatnonzero(prev)[0])
    dp, nw = len(prev) - 1, num.shape[1]
    qw = nw - dp
    if qw > width or num[:, : v if qw > 0 else nw].any():
        raise ArithmeticError("inexact polynomial division")
    if qw <= 0:
        return num[:, :0]
    quot = num[:, v : v + qw] @ _shift_matrices(_series_inverse(prev[v:], qw, p), qw, qw) % p
    if dp > v:
        top = quot @ _shift_matrices(prev, qw, nw)[:, qw + v :] % p
        if not np.array_equal(top, num[:, qw + v :]):
            raise ArithmeticError("inexact polynomial division")
    return quot


def _bareiss_step(a: np.ndarray, piv: np.ndarray, prev: np.ndarray, width: int, p: int) -> np.ndarray:
    """The trailing block (piv a[i, j] - a[i, 0] a[0, j]) / prev, i, j >= 1,
    of the live block a after one fraction-free step on its pivot
    piv = a[0, 0]."""
    m, n, w = a.shape[0] - 1, a.shape[1] - 1, a.shape[2]
    nw = 2 * w - 1
    num = a[1:, 1:].reshape(m * n, w) @ _shift_matrices(piv, w, nw)
    # the pivot column against the shift matrix of each pivot-row entry
    cross = a[1:, 0] @ _shift_matrices(a[0, 1:], w, nw)  # (n, m, nw)
    num = _trim((num - cross.transpose(1, 0, 2).reshape(m * n, nw)) % p)
    if len(prev) > 1 or prev[0] != 1:
        num = _divide_exact(num, prev, width, p)
    return num.reshape(m, n, num.shape[1])


def _check_limits(rows: int, cols: int, deg: int, p: int) -> int:
    """The width min(rows, cols) * deg + 1 of a rows x cols polynomial
    matrix of entry degree deg >= 0, after bareiss_rank's size and work
    limits: the shape and degree suffice, so a caller can check them
    before it builds the matrix."""
    width = min(rows, cols) * deg + 1
    check_size("Bareiss coefficient array (rows * cols * width)", rows * cols * width, MAX_BAREISS_CELLS)
    if width * (p - 1) ** 2 >= 1 << 63:
        raise TooLarge(f"Bareiss width {width} at p = {p} could overflow int64 sums")
    check_size("Bareiss step work (rows * cols * width^2)", rows * cols * width * width, MAX_BAREISS_WORK)
    return width


def bareiss_rank(poly_mat: list[list[Poly]], p: int) -> int:
    """Rank of a polynomial matrix over F_p(u) by fraction-free Gaussian
    elimination (Bareiss, Math. Comp. 1968).

    The matrix is loaded once into an int64 array A[rows, cols, width]
    with the u-exponent on the last axis.  A step on pivot A[0, 0] forms
    every numerator A[0, 0] A[i, j] - A[i, 0] A[0, j] at once as products
    with Toeplitz shift matrices, then divides all of them exactly by the
    previous pivot (Sylvester's identity) and cuts the width to the highest
    nonzero coefficient left.  Every live entry is a minor, so the width
    stays within min(rows, cols) * D + 1 for entry degree D; past
    MAX_BAREISS_CELLS, int64 sums or MAX_BAREISS_WORK, _check_limits raises
    TooLarge before anything is allocated.
    """
    deg = max((max(map(len, row), default=0) for row in poly_mat), default=0) - 1
    if deg < 0:
        return 0
    width = _check_limits(len(poly_mat), len(poly_mat[0]), deg, p)
    a = np.zeros((len(poly_mat), len(poly_mat[0]), deg + 1), dtype=np.int64)
    for i, row in enumerate(poly_mat):
        for j, e in enumerate(row):
            if e:
                a[i, j, : len(e)] = e
    a %= p
    prev = np.ones(1, dtype=np.int64)
    r = 0
    while a.size:
        nz = np.flatnonzero(a[:, 0].any(axis=1))
        if not nz.size:
            a = a[:, 1:]
            continue
        if nz[0]:
            a[[0, nz[0]]] = a[[nz[0], 0]]
        r += 1
        piv = _trim(a[0, 0])
        a = _bareiss_step(a, piv, prev, width, p)
        prev = piv
    return r

"""Exact arithmetic over the polynomial ring F_p[u], for the Bareiss rank.

Polynomials are tuples of residues indexed by u-exponent with no trailing
zeros; () is the zero polynomial.  Polynomial matrices are lists of rows of
such tuples.

bareiss_rank is the independent rank route over F_p(u): fraction-free
(Bareiss) Gaussian elimination on a polynomial matrix, used by
`tate_cohomology_dims(..., method="bareiss")` and by the tests as an
oracle.  Nothing else in the library computes over F_p[u]: every
differential it builds is homogeneous, so Tate ranks are F_p ranks at
u = 1 (see tate.tate_cohomology_dims) and the deformed models of
random_instances.random_floer_model are conjugated at u = 1.
"""

from __future__ import annotations

Poly = tuple  # tuple[int, ...], coefficient of u^k at index k

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


def psub(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    return pnorm([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)], p)


def pmul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return pnorm(out, p)


def pdivmod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
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


def pdiv_exact(a: Poly, b: Poly, p: int) -> Poly:
    q, r = pdivmod(a, b, p)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


# ---------------------------------------------------------------------------
# polynomial matrices


def bareiss_rank(poly_mat: list[list[Poly]], p: int) -> int:
    """Rank of a polynomial matrix by fraction-free Gaussian elimination."""
    mat = [list(row) for row in poly_mat]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    prev: Poly = (1,)
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


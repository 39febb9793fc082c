"""Exact dense linear algebra over the rationals, for the polynomial route
and the oracles of `rotorspec verify`.

Plain Gauss-Jordan elimination; matrices here are small (block sizes are
2j + 1 <= 26), so clarity beats asymptotics.  Matrices are lists of lists
(or tuples of tuples) of ints and Fractions; every result is exact.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def mat_zero(n: int, m: int):
    return [[0] * m for _ in range(n)]


def mat_add(a, b):
    return [[x + y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[x * s if x else x for x in row] for row in a]


def mat_mul(a, b):
    """The product a b, summed over the nonzero entries of a's rows and b's
    rows only: the matrices here are mostly zeros (J3 is diagonal, Jp and
    Jm have one nonzero diagonal off the main one)."""
    m = len(b[0])
    sparse_b = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for ai in a:
        oi = [0] * m
        for c, bt in zip(ai, sparse_b):
            if c:
                for j, x in bt:
                    oi[j] = oi[j] + c * x
        out.append(oi)
    return out


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_equal(a, b) -> bool:
    return all(all(map(operator.eq, ra, rb)) for ra, rb in zip(a, b))


def nullspace(rows) -> list[list[int | Fraction]]:
    """Basis of the right null space of an integer matrix, by fraction-free
    Gauss-Jordan: integer row combinations clear each pivot column, and
    every row formed is divided by its content, so its entries stay small.

    Returns vectors with a deterministic normalization: free variable set
    to 1, pivots solved exactly as Fractions.
    """
    if not rows:
        return []
    n_rows, n_cols = len(rows), len(rows[0])
    m = [list(row) for row in rows]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][c]
        for i in range(n_rows):
            f = m[i][c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(m[i], m[r])]
                g = math.gcd(*row) or 1
                m[i] = [x // g for x in row]
        pivot_of_col[c] = r
        r += 1
        if r == n_rows:
            break
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivot_of_col):
        v = [0] * n_cols
        v[fc] = 1
        for c, pr in pivot_of_col.items():
            v[c] = Fraction(-m[pr][fc], m[pr][c]) if m[pr][fc] else 0
        basis.append(v)
    return basis


def charpoly(a) -> list[Fraction]:
    """Characteristic polynomial of a matrix of ints and Fractions, by the
    Faddeev-LeVerrier recursion.

    Returns coefficients [c_0, ..., c_n] with
    p(t) = c_n t^n + ... + c_0 and c_n = 1.  `rotorspec verify` checks
    that the species of a band (levels.band_species) factor it.
    """
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = mat_mul(a, mk)
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = ck
        for i in range(n):
            mk[i][i] = mk[i][i] + ck
    return coeffs

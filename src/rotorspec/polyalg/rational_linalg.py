"""Exact linear algebra over the Gaussian rationals.

Plain Gauss-Jordan elimination; matrices here are small (block sizes are
2j + 1 <= 26), so clarity beats asymptotics.  Matrices are lists of lists
of QC.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .gaussian import ONE, QC, ZERO


def mat_zero(n: int, m: int):
    # QC is immutable, so every entry may share one zero
    return [[ZERO] * m for _ in range(n)]


def mat_identity(n: int):
    out = mat_zero(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    s = QC.coerce(s)
    return [[x * s for x in row] for row in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = mat_zero(n, m)
    for i in range(n):
        ai = a[i]
        for t in range(k):
            c = ai[t]
            if not c:
                continue
            bt = b[t]
            oi = out[i]
            for j in range(m):
                if bt[j]:
                    oi[j] = oi[j] + c * bt[j]
    return out


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_equal(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def nullspace(rows) -> list[list[QC]]:
    """Basis of the right null space of a matrix, by Gauss-Jordan.

    Returns vectors with a deterministic normalization: free variable set
    to 1, pivots solved exactly.
    """
    if not rows:
        return []
    n_rows, n_cols = len(rows), len(rows[0])
    m = [[QC.coerce(x) for x in row] for row in rows]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        # zero entries pass through unchanged (they are shared, read-only)
        m[r] = [x * inv if x else x for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        pivot_of_col[c] = r
        r += 1
        if r == n_rows:
            break
    free_cols = [c for c in range(n_cols) if c not in pivot_of_col]
    basis = []
    for fc in free_cols:
        v = [ZERO] * n_cols
        v[fc] = ONE
        for c, pr in pivot_of_col.items():
            v[c] = -m[pr][fc]
        basis.append(v)
    return basis


def charpoly(a) -> list[Fraction]:
    """Characteristic polynomial of a matrix with real-rational entries,
    by the Faddeev-LeVerrier recursion.

    Returns coefficients [c_0, ..., c_n] with
    p(t) = c_n t^n + ... + c_0 and c_n = 1.  The Hamiltonian bands use the
    continuant operators.band_charpoly; this dense route is its oracle.
    """
    n = len(a)
    for row in a:
        for x in row:
            if not QC.coerce(x).is_real:
                raise ValueError("charpoly expects a real-rational matrix")
    m = [[QC.coerce(x) for x in row] for row in a]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = mat_identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        trace = sum((mk[i][i].re for i in range(n)), Fraction(0))
        ck = -trace / k
        coeffs[n - k] = ck
        for i in range(n):
            mk[i][i] = mk[i][i] + QC(ck)
    return coeffs


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    # synthetic division by (t - root); exact, remainder must vanish
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + root * carry
    if carry != 0:
        raise ValueError("not a root")
    return out


def _near_convergents(f: float, max_den: int):
    """Continued-fraction convergents h/k of f with k <= max_den that lie
    within 1e-9 (relative) of f, smallest denominator first."""
    n, d = f.as_integer_ratio()
    h_prev, h, k_prev, k = 0, 1, 1, 0
    while d:
        a = n // d
        n, d = d, n - a * d
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        if k > max_den:
            return
        if abs(h / k - f) <= 1e-9 * max(1.0, abs(f)):
            yield Fraction(h, k)


def rational_roots_from_candidates(coeffs: list[Fraction], candidates):
    """Extract exact rational roots of a monic rational polynomial, guided
    by float approximations of its roots (with multiplicity).

    Each candidate is rationalized by continued fractions and accepted only
    on exact substitution, then removed by exact deflation.  Returns
    (rational roots, residual factor, unmatched candidates).

    A float eigenvalue can be several ulps off its exact value p/q, and
    limit_denominator(10**12) then returns a nearby fraction with a larger
    denominator instead of p/q.  p/q is still a convergent of the candidate
    whenever the error is below 1/(2 q^2), so the convergents lying within
    1e-9 (relative) of the candidate are tried after the first two guesses;
    by the rational root theorem only those whose denominator divides the
    leading coefficient of the primitive integer polynomial can be roots.
    """
    work = list(coeffs)
    roots: list[Fraction] = []
    leftover: list[float] = []
    scale = math.lcm(*(Fraction(c).denominator for c in coeffs))
    lead = scale // math.gcd(*(int(c * scale) for c in coeffs))
    for f in candidates:
        f = float(f)
        accepted = None
        if len(work) > 1:
            guesses = (Fraction(f).limit_denominator(10**12), Fraction(round(f)))
            near = (c for c in _near_convergents(f, 10**12) if lead % c.denominator == 0)
            for attempt in chain(guesses, near):
                if _poly_eval(work, attempt) == 0:
                    accepted = attempt
                    break
        if accepted is None:
            leftover.append(f)
        else:
            roots.append(accepted)
            work = _deflate(work, accepted)
    return roots, work, leftover


"""The spectrum path: the levels of every harmonic block of one degree.

In the weight basis the rotor Hamiltonian on a block H^{p,q}
(operators.hamiltonian_matrix) couples l only to l and l +- 2.  Its
diagonal and its products lower_k upper_k = (c1 - c2)^2 alpha_k beta_k
alpha_(k+1) beta_(k+1) / 16 depend on the block only through P_k = alpha_k
beta_k = (k+1)(d-k), so every block of degree d = p + q is similar to one
symmetric band S_d: the diagonal (c1 + c2)(P_(k-1) + P_k)/4 + c3 l_k^2 and
g sqrt(P_k P_(k+1)) at (k, k+2), g = (c1 - c2)/4.  A spectrum takes the
record (a, b, t, den) of its inputs once (band_record): integers over one
denominator 4D for rational input, floats over 1 otherwise.  degree_band
forms S_d of each degree from it, (diag, g, den), and eigenvalues() gives
its levels through its species (band_species, since P_(d-1-k) = P_k):
exactly on degrees p + q <= 4, in closed form, and otherwise as floats
from an implicit QL sweep of each species (_ql_levels), in pure Python.
A float entry is one division by den, which rounds correctly (exact for
den 1), and the closed form is solved on the integers, so a Fraction is
built only for an exact level.  This module sits outside the polyalg
package, the exact polynomial oracle (over the integers and Fractions)
that `rotorspec verify` checks it against, so a spectrum loads none of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from .errors import HamiltonianOverflowError


@lru_cache(maxsize=None)
def _degree_constants(d: int):
    """The integers S_d is built from, with P_k = (k+1)(d-k): the sums
    P_(m-1) + P_m and the squares (2 l_m)^2 = (2m - d)^2 of its diagonal,
    and the products P_m P_(m+1) under its entry at (m, m+2), with their
    float square roots."""
    p = [0, *((k + 1) * (d - k) for k in range(d)), 0]  # p[m + 1] = P_m
    sums = tuple(p[m] + p[m + 1] for m in range(d + 1))
    squares = tuple((2 * m - d) ** 2 for m in range(d + 1))
    products = tuple(p[m + 1] * p[m + 2] for m in range(d - 1))
    return sums, squares, products, tuple(map(math.sqrt, products))


def band_record(i1, i2, i3, hbar0=1):
    """The record (a, b, t, den) that S_d of every degree is built from
    (degree_band), with c_a = hbar0 / (2 I_a): a = (c1 + c2)/4, b = c3/4
    and t = (c1 - c2)/4 as numerators over den.  For rational input these
    are the integers (n1 + n2, n3, n1 - n2) over 4D, with c_a = n_a / D
    over one common denominator D; otherwise they are floats over 1 (each
    c_a exact and rounded once where a momentum rounds to 0.0), and
    HamiltonianOverflowError is raised when a c_a leaves the float range.
    A float a is c1/4 + c2/4 where c1 + c2 leaves the float range.  A
    spectrum takes it once and forms each degree's band from it."""
    if all(isinstance(v, Rational) for v in (i1, i2, i3, hbar0)):
        # n_a = h.num I_a.den (L / I_a.num) and D = 2 h.den L, L = lcm(I_a.num)
        lcm = math.lcm(i1.numerator, i2.numerator, i3.numerator)
        n1, n2, n3 = (hbar0.numerator * mom.denominator * (lcm // mom.numerator) for mom in (i1, i2, i3))
        return n1 + n2, n3, n1 - n2, 8 * hbar0.denominator * lcm
    try:
        try:
            c1, c2, c3 = (float(hbar0) / (2 * float(mom)) for mom in (i1, i2, i3))
        except ZeroDivisionError:  # a momentum below the float range
            c1, c2, c3 = (float(Fraction(hbar0) / (2 * Fraction(mom))) for mom in (i1, i2, i3))
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc
    a = (c1 + c2) / 4
    return (c1 / 4 + c2 / 4 if a == math.inf else a), c3 / 4, (c1 - c2) / 4, 1


def degree_band(d: int, record):
    """S_d, the symmetric band every block of degree d is similar to, as
    (diag, g, den) from a band_record (a, b, t, den): diag_m = a (P_(m-1) +
    P_m) + b (2 l_m)^2 and g = t over den, so that S_d has the diagonal
    diag_m / den and the entry g sqrt(P_m P_(m+1)) / den at (m, m+2) and
    (m+2, m), with P_k = (k+1)(d-k) and l_m = m - d/2.  Integers over 4D
    for rational input, floats over 1 otherwise.  k rho is not included: it
    shifts every level alike (spectra.curvature_shift)."""
    a, b, t, den = record
    sums, squares, _, _ = _degree_constants(d)
    return tuple(a * s + b * q for s, q in zip(sums, squares)), t, den


def _float_band(d: int, diag, g, den):
    """S_d = (diag, g, den) as floats, (diag, off) with off[m] = g
    sqrt(P_m P_(m+1)) / den at (m, m+2): entries, not the products g^2
    P_m P_(m+1), which overflow where the entries do not.  Each entry is
    one true division by den, which rounds correctly for integers, as
    float(Fraction) does, and is exact for floats over 1.
    HamiltonianOverflowError when an entry is not a finite float."""
    try:
        fdiag, fg = [x / den for x in diag], g / den
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc
    off = [fg * r for r in _degree_constants(d)[3]]
    if not all(map(math.isfinite, (*fdiag, *off))):
        raise HamiltonianOverflowError()
    return fdiag, off


def degree_matrix(d: int, diag, g, den):
    """S_d = (diag, g, den) as d+1 dense rows of floats, for the Jacobi
    eigenvectors of `eigensections`; HamiltonianOverflowError when an entry
    is not a finite float."""
    fdiag, off = _float_band(d, diag, g, den)
    rows = [[0.0] * m + [x] + [0.0] * (d - m) for m, x in enumerate(fdiag)]
    for m, x in enumerate(off):
        rows[m][m + 2] = rows[m + 2][m] = x
    return rows


def _rational_sqrt(x):
    """sqrt(x) for a rational square x >= 0, of the class of x (an int or a
    Fraction), else None."""
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        return None
    return num if type(x) is int else Fraction(num, den)


_SQRT2 = math.sqrt(2)


def _wang_fold(diag, off) -> list:
    """The antisymmetric and the symmetric species, (diag, off) pairs, of a
    tridiagonal class that reads the same backwards.  off holds the
    products of its off-diagonal pairs for an exact class, its
    off-diagonal entries for a float one.  Of length 2h+1: its first h
    entries, and its first h+1 with the last product doubled (the last
    entry times sqrt 2).  Of length 2h: its first h entries with |e|, e
    the middle entry, subtracted from or added to the last diagonal entry,
    in that order for an exact and a float class alike (so the first is
    the antisymmetric species when e > 0, the symmetric one when e < 0);
    in a band, e couples l = -1 and 1 and is (c1 - c2) P_(d/2) / 4, so its
    product e^2 is a square."""
    h, odd = divmod(len(diag), 2)
    exact = type(diag[0]) is not float
    if odd:
        return [(diag[:h], off[: h - 1]), (diag[: h + 1], [*off[: h - 1], off[h - 1] * (2 if exact else _SQRT2)] if h else [])]
    shift = _rational_sqrt(off[h - 1]) if exact else abs(off[h - 1])
    return [((*diag[: h - 1], diag[h - 1] + sign * shift), off[: h - 1]) for sign in (-1, 1)]


def band_species(diag, off, d: int) -> list:
    """The species of a band of degree d, (diag, off, count) triples whose
    levels, each taken count times, are the band's: tridiagonal matrices
    with the diagonal diag and, for an exact band, the products off[i] of
    their off-diagonal pairs, for a float band the off-diagonal entries
    off[i].  The band has the diagonal diag and the products (or entries)
    off[m] at (m, m+2) and (m+2, m), which read the same under l -> -l.
    For odd d that map exchanges the two parity classes of the index, so
    each level of class 0 counts twice (Kramers pairs); for even d
    _wang_fold splits each class into two of the four D2 species (Wang,
    Phys. Rev. 34, 243 (1929))."""
    classes = [(diag[s::2], off[s::2]) for s in (0, 1)]
    if d % 2:
        return [(*classes[0], 2)]
    return [(sd, so, 1) for cls in classes if cls[0] for sd, so in _wang_fold(*cls) if sd]


def _ql_levels(diag, off) -> list[float]:
    """Eigenvalues, unsorted (eigenvalues() sorts a degree's levels once),
    of the symmetric tridiagonal float matrix with the diagonal diag and
    the off-diagonal entries off, by the implicit QL sweep of EISPACK's
    tql1 (Bowdler, Martin, Reinsch & Wilkinson, Numer. Math. 11, 293
    (1968)).  The matrix is scaled by 2^-e, with 2^e bounding its largest
    entry, before the sweep and its levels by 2^e after it, both exactly
    (math.ldexp), so no intermediate leaves the float range.
    HamiltonianOverflowError when an entry or a level is not a finite
    float."""
    top = max(map(abs, (*diag, *off)))
    if not math.isfinite(top):
        raise HamiltonianOverflowError()
    if not top:
        return [0.0] * len(diag)
    e = math.frexp(top)[1]
    d = [math.ldexp(x, -e) for x in diag]
    sub = [*(math.ldexp(x, -e) for x in off), 0.0]
    n, f, tst1, hypot = len(d), 0.0, 0.0, math.hypot
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(sub[l]))
        m = l
        while tst1 + abs(sub[m]) != tst1:  # sub[n-1] = 0 ends the search
            m += 1
        if m > l:
            for _ in range(30):
                # the shift, from the leading 2 x 2 block
                g = d[l]
                p = (d[l + 1] - g) / (2 * sub[l])
                r = math.copysign(hypot(p, 1.0), p)
                d[l] = sub[l] / (p + r)
                d[l + 1] = dl1 = sub[l] * (p + r)
                h = g - d[l]
                d[l + 2 :] = [x - h for x in d[l + 2 :]]
                f += h
                # the QL transformation, from m up to l
                p, c, c2, s, s2, el1 = d[m], 1.0, 1.0, 0.0, 0.0, sub[l + 1]
                for i in range(m - 1, l - 1, -1):
                    c3, c2, s2 = c2, c, s
                    g, h = c * sub[i], c * p
                    r = hypot(p, sub[i])
                    sub[i + 1] = s * r
                    s, c = sub[i] / r, p / r
                    p = c * d[i] - s * g
                    d[i + 1] = h + s * (c * g + s * d[i])
                p = -s * s2 * c3 * el1 * sub[l] / dl1
                sub[l], d[l] = s * p, c * p
                if tst1 + abs(sub[l]) == tst1:
                    break
            else:
                raise ArithmeticError("the QL sweep did not converge in 30 iterations")
        d[l] += f
    try:
        return [math.ldexp(x, e) for x in d]
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc


def _species_levels(diag, products, den):
    """(value, exact_flag) pairs of a species of one or two entries, with
    the integer diagonal diag over den and the integer product products[0]
    over den^2: its diagonal, or (a_0 + a_1 -+ sqrt(N)) / 2den with N =
    (a_0 - a_1)^2 + 4 products[0].  A level is a Fraction exactly when it
    is rational: a diagonal entry, or both levels when N is a square,
    which one isqrt decides.  Otherwise it is the float nearest to m -+ r,
    m = (a_0 + a_1) / 2den and r = sqrt(N / 4den^2) to 2^-80 relative:
    isqrt(u v 2^160) / (v 2^80) for N / 4den^2 = u / v in lowest terms.
    m -+ r is divided out once, a correctly rounded int/int division, and
    no float(N) is taken, which can overflow where the levels do not."""
    if len(diag) == 1:
        return [(Fraction(diag[0], den), True)]
    s, n = diag[0] + diag[1], (diag[0] - diag[1]) ** 2 + 4 * products[0]
    r = math.isqrt(n)
    if r * r == n:
        return [(Fraction(s - r, 2 * den), True), (Fraction(s + r, 2 * den), True)]
    common = math.gcd(n, 4 * den * den)
    u, v = n // common, (4 * den * den // common) << 80
    r = math.isqrt(u * v << 80)
    try:
        return [((s * v - 2 * den * r) / (2 * den * v), False), ((s * v + 2 * den * r) / (2 * den * v), False)]
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc


# exact levels are solved on degrees p + q <= this, where every species
# has at most two entries
EXACT_DEGREE_MAX = 4


def eigenvalues(d: int, diag, g, den):
    """Eigenvalues of S_d = (diag, g, den) of degree_band as (value,
    exact_flag) pairs, ascending: an exact S_d is integers over 4D, a float
    one floats over 1.

    When S_d is diagonal (g = 0 or d < 2) they are its diagonal, each a
    Fraction over den for an exact S_d and the float itself otherwise.  An
    exact S_d of degree d <= EXACT_DEGREE_MAX gives the levels of its
    species, solved on the integers (_species_levels): every rational
    level as a Fraction, the others as floats, which raise
    HamiltonianOverflowError when they leave the float range.  Otherwise
    they are floats: the levels of the species of S_d as floats, from its
    entries (_float_band, one division by den per entry), each species
    solved by _ql_levels, so a Kramers pair of odd d is one level twice,
    bit for bit, and the union of the species' levels is sorted once.
    Each is accurate to a few ulps of the degree's largest level.
    HamiltonianOverflowError is raised when an entry or a level is not a
    finite float.  An exact level beyond the float range is caught where a
    spectrum sorts it (spectra._as_float).
    """
    exact = type(g) is not float
    if not g or d < 2:
        return [(Fraction(v, den), True) if exact else (v, False) for v in sorted(diag)]
    if exact and d <= EXACT_DEGREE_MAX:
        products = [g * g * x for x in _degree_constants(d)[2]]
        species = band_species(diag, products, d)
        return sorted((lv for sd, sp, count in species for lv in _species_levels(sd, sp, den) * count), key=lambda t: t[0])
    species = band_species(*_float_band(d, diag, g, den), d)
    return [(v, False) for v in sorted(v for sd, so, count in species for v in _ql_levels(sd, so) * count)]

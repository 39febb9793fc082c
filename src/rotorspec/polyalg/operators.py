"""Angular momentum and Hamiltonian operator matrices on harmonic spaces.

The three rotation generators are realized once and for all as first-order
differential operators in (z1, z2, zb1, zb2):

    Jp = z1 d_z2 - zb2 d_zb1          (raising)
    Jm = z2 d_z1 - zb1 d_zb2          (lowering)
    J3 = (z1 d_z1 - z2 d_z2 - zb1 d_zb1 + zb2 d_zb2) / 2
    J1 = (Jp + Jm) / 2,   J2 = (Jp - Jm) / (2i)

They preserve bidegree, commute with the flat Laplacian, and restrict to an
irreducible spin-j action on each H^{p,q} with j = (p + q) / 2.  These J_a
are the self-adjoint lifts (real eigenvalues; J3 acts on the k-th basis
element with eigenvalue l = k - j) and satisfy [J1, J2] = i J3 cyclically.
The underlying left-invariant vector fields are the skew matrices
L_a = -i J_a with [L1, L2] = L3 cyclically; the Casimir is

    C = J1^2 + J2^2 + J3^2 = -(L1^2 + L2^2 + L3^2) = j(j+1) Id.

On a monomial the ladder operators act as

    Jp z1^a z2^b zb1^c zb2^d = b (a+1, b-1, c, d) - c (a, b, c-1, d+1)
    Jm z1^a z2^b zb1^c zb2^d = a (a-1, b+1, c, d) - d (a, b, c+1, d-1)

(exponent tuples standing for monomials).  On the unnormalized sector
kernels u_k of spaces.py the coefficient of Jp u_k on (a, c) is
(a - c + q) u(a, c), so with d = p + q

    Jp u_k = (k+1) u_(k+1),    Jm u_(k+1) = (d-k) u_k,

the polynomial form of the Condon-Shortley ladder.  On the basis
b_k = u_k / n_k (n_k the signed content, spaces.sector_contents) this gives
the integer coordinates Jp b_k = alpha_k b_(k+1) and Jm b_(k+1) =
beta_k b_k with

    alpha_k = (k+1) n_(k+1) / n_k,    beta_k = (d-k) n_k / n_(k+1),

so alpha_k beta_k = (k+1)(d-k) = j(j+1) - l(l+1).  The pairing weights and
the generator squares the Hamiltonian reads are built from alpha and beta.
The dense J_a, L_a and Casimir matrices are the polynomial route (apply_j*
followed by coordinate extraction, `_raw_matrix`), the oracle against
which `rotorspec verify` checks the ladder, the weights and the squares.

The rotational Hamiltonian with principal momenta (I1, I2, I3) is

    H = (hbar0 / 2) (J1^2 / I1 + J2^2 / I2 + J3^2 / I3) + k rho Id,

normalized so that the spherical case gives E_j = hbar0 j(j+1) / (2 I).
The curvature shift k * rho follows the closed-form spectra (see
spectra.curvature_shift).  In the weight basis H couples l only to l and
l +- 2, the banded form of the rotor (King, Hainer & Cross, J. Chem.
Phys. 11, 27 (1943)).  hamiltonian_matrix builds it exactly on one block
as a HamiltonianBand, from the block's cached square record
(_generator_square): the oracle of the spectrum path.  Its diagonal and
its products lower_k upper_k = (c1 - c2)^2 alpha_k beta_k alpha_(k+1)
beta_(k+1) / 16 depend on the block only through P_k = alpha_k beta_k =
(k+1)(d-k), so every block of degree d is similar to one symmetric band
S_d (degree_band): the diagonal (c1 + c2)(P_(k-1) + P_k)/4 + c3 l_k^2 and
g sqrt(P_k P_(k+1)) at (k, k+2), g = (c1 - c2)/4.  A block's weighted
symmetrization is Sigma S_d Sigma with Sigma = diag(sign of alpha_0 ...
alpha_(k-1)), which maps an eigenvector of S_d to one of the block
(block_vector).  The spectrum path reads S_d alone: eigenvalues() gives
its levels through its species (band_species, since P_(d-1-k) = P_k):
exactly on degrees p + q <= 4, in closed form, and otherwise as floats
from an implicit QL sweep of each species (_ql_levels), in pure Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import TYPE_CHECKING

from ..errors import HamiltonianOverflowError, RepresentationClosureError
from ..inertia import check_positive
from .gaussian import QC
from .polynomial import Polynomial
from .rational_linalg import mat_mul, mat_scale
from .spaces import BidegreeSpace, harmonic_basis, sector_contents

if TYPE_CHECKING:  # numpy is imported where arrays are built
    import numpy as np


def apply_j3(f: Polynomial) -> Polynomial:
    half = Fraction(1, 2)
    return (
        f.diff(0).mul_var(0).scale(half)
        - f.diff(1).mul_var(1).scale(half)
        - f.diff(2).mul_var(2).scale(half)
        + f.diff(3).mul_var(3).scale(half)
    )


def apply_jplus(f: Polynomial) -> Polynomial:
    return f.diff(1).mul_var(0) - f.diff(2).mul_var(3)


def apply_jminus(f: Polynomial) -> Polynomial:
    return f.diff(0).mul_var(1) - f.diff(3).mul_var(2)


def apply_j1(f: Polynomial) -> Polynomial:
    return (apply_jplus(f) + apply_jminus(f)).scale(Fraction(1, 2))


def apply_j2(f: Polynomial) -> Polynomial:
    return (apply_jplus(f) - apply_jminus(f)).scale(QC(0, Fraction(-1, 2)))


@dataclass(frozen=True)
class HamiltonianBand:
    """The exact Hamiltonian on one harmonic block as its three nonzero
    diagonals of Fractions: diag[a] at (a, a), lower[a] at (a+2, a) and
    upper[a] at (a, a+2).
    """

    space: BidegreeSpace
    diag: tuple
    lower: tuple
    upper: tuple


@lru_cache(maxsize=None)
def _ladder(p: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integer ladder coordinates (alpha, beta) on the basis b of H^{p,q}:
    Jp b_k = alpha_k b_(k+1) and Jm b_(k+1) = beta_k b_k, by the closed
    form of the module docstring.  `rotorspec verify` checks them against
    Jp and Jm applied to the basis polynomials."""
    n = sector_contents(p, q)
    d = p + q
    alpha = tuple((k + 1) * n[k + 1] // n[k] for k in range(d))
    beta = tuple((d - k) * n[k] // n[k + 1] for k in range(d))
    return alpha, beta


@lru_cache(maxsize=None)
def pairing_weights(p: int, q: int) -> tuple[Fraction, ...]:
    """Positive diagonal weights of the natural pairing on H^{p,q} in the
    weight-sector basis, fixed by requiring the ladder pair (Jp, Jm) to be
    mutually adjoint, w_(k+1) alpha_k = w_k beta_k; normalized so the
    lowest-weight element has weight 1.
    """
    w = [Fraction(1)]
    for a, b in zip(*_ladder(p, q)):
        w.append(w[-1] * b / a)
    return tuple(w)


def _raw_matrix(space: BidegreeSpace, op) -> list[list[QC]]:
    """Matrix of a bidegree-preserving operator in the space's basis.

    Column k holds the coordinates of op(basis[k]); raises
    RepresentationClosureError if an image leaves the space.  Applied to
    apply_j1..apply_j3 this is the polynomial route of generator_matrix.
    """
    dim = space.dim
    cols = []
    for b in space.basis:
        image = op(b)
        coords = space.coordinates(image)
        if coords is None:
            raise RepresentationClosureError(
                f"operator image leaves H^{{{space.p},{space.q}}}"
            )
        cols.append(coords)
    return [[cols[k][i] for k in range(dim)] for i in range(dim)]


@lru_cache(maxsize=None)
def generator_matrix(axis: int, p: int, q: int) -> tuple[tuple[QC, ...], ...]:
    """Angular momentum matrix J_axis on H^{p,q} as row tuples of QC, by the
    polynomial route: apply_j<axis> on each basis polynomial, read back in
    coordinates.  J3 = diag(l), and the triple satisfies [J1, J2] = i J3
    cyclically; `rotorspec verify` checks both and compares J_a with the
    ladder and the pairing weights."""
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    op = (apply_j1, apply_j2, apply_j3)[axis - 1]
    return tuple(map(tuple, _raw_matrix(harmonic_basis(p, q), op)))


@lru_cache(maxsize=None)
def vector_field_matrix(axis: int, p: int, q: int) -> tuple[tuple[QC, ...], ...]:
    """Skew matrix L_axis = -i J_axis of the left-invariant vector field, as
    row tuples; the triple satisfies [L1, L2] = L3 cyclically."""
    return tuple(map(tuple, mat_scale(generator_matrix(axis, p, q), QC(0, -1))))


@lru_cache(maxsize=None)
def casimir_matrix(p: int, q: int) -> tuple[tuple[QC, ...], ...]:
    """C = J1^2 + J2^2 + J3^2 = -(L1^2 + L2^2 + L3^2) as row tuples; equals
    j(j+1) Id on H^{p,q}, i.e. one quarter of the degree-d sphere eigenvalue
    d(d+2)."""
    squares = [mat_mul(g, g) for g in (generator_matrix(axis, p, q) for axis in (1, 2, 3))]
    return tuple(tuple(x + y + z for x, y, z in zip(*rows)) for rows in zip(*squares))


@lru_cache(maxsize=None)
def _generator_square(p: int, q: int):
    """The squares on H^{p,q}, exact, from the ladder coordinates: J1^2 as
    its three nonzero diagonals (diag, lower, upper) in the layout of
    HamiltonianBand, and the diagonal l_squared of J3^2 = diag(l^2).

    J1^2 has the diagonal (alpha_(k-1) beta_(k-1) + alpha_k beta_k) / 4 and
    entries only two off it: alpha_k alpha_(k+1) / 4 at (k+2, k) and
    beta_k beta_(k+1) / 4 at (k, k+2).  J2^2 is J1^2 with the off-diagonals
    negated.
    """
    space = harmonic_basis(p, q)
    alpha, beta = _ladder(p, q)
    products = [0, *(a * b for a, b in zip(alpha, beta)), 0]
    diag = tuple(Fraction(products[k] + products[k + 1], 4) for k in range(space.dim))
    lower = tuple(Fraction(alpha[k] * alpha[k + 1], 4) for k in range(space.dim - 2))
    upper = tuple(Fraction(beta[k] * beta[k + 1], 4) for k in range(space.dim - 2))
    return diag, lower, upper, tuple(l * l for l in space.l_values)


def hamiltonian_matrix(
    space: BidegreeSpace, i1, i2, i3, hbar0=1, k=0, rho=0
) -> HamiltonianBand:
    """Rotational Hamiltonian on one harmonic block, exactly, as a band: the
    generator squares times c_a = hbar0 / (2 I_a), plus k * rho on the
    diagonal.  A float input is read as the rational it is.

    The band reads the one cached square record (D, L, U, l^2) of
    _generator_square: J2^2 shares D with J1^2 and negates L and U, so diag
    = k rho + (c1 + c2) D + c3 l^2, lower = (c1 - c2) L and upper = (c1 -
    c2) U.  This is the oracle of the spectrum path, which reads S_d
    (degree_band) instead.
    """
    check_positive(i1=i1, i2=i2, i3=i3, hbar0=hbar0)
    sq_diag, sq_lower, sq_upper, l_squared = _generator_square(space.p, space.q)
    c1, c2, c3 = (Fraction(hbar0) / (2 * Fraction(mom)) for mom in (i1, i2, i3))
    shift, c_sum, c_diff = Fraction(k) * Fraction(rho), c1 + c2, c1 - c2
    diag = tuple(shift + c_sum * x + c3 * y for x, y in zip(sq_diag, l_squared))
    return HamiltonianBand(space, diag, tuple(c_diff * x for x in sq_lower), tuple(c_diff * x for x in sq_upper))


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


def degree_band(d: int, i1, i2, i3, hbar0=1):
    """S_d, the symmetric band every block of degree d is similar to, as
    (diag, g): diag_m = (c1 + c2)(P_(m-1) + P_m)/4 + c3 l_m^2 and the entry
    g sqrt(P_m P_(m+1)) at (m, m+2) and (m+2, m), with c_a = hbar0 / (2 I_a),
    g = (c1 - c2)/4, P_k = (k+1)(d-k) and l_m = m - d/2.  Fractions for
    rational input, floats otherwise; HamiltonianOverflowError when an input
    leaves the float range.  k rho is not included: it shifts every level
    alike (spectra.curvature_shift)."""
    sums, squares, _, _ = _degree_constants(d)
    if all(isinstance(v, Rational) for v in (i1, i2, i3, hbar0)):
        c1, c2, c3 = (Fraction(hbar0) / (2 * Fraction(mom)) for mom in (i1, i2, i3))
    else:
        try:
            c1, c2, c3 = (float(hbar0) / (2 * float(mom)) for mom in (i1, i2, i3))
        except OverflowError as exc:
            raise HamiltonianOverflowError() from exc
    a, b = (c1 + c2) / 4, c3 / 4
    return tuple(a * s + b * t for s, t in zip(sums, squares)), (c1 - c2) / 4


def _float_band(d: int, diag, g):
    """S_d as floats, (diag, off) with off[m] = g sqrt(P_m P_(m+1)) at (m,
    m+2): entries, not the products g^2 P_m P_(m+1), which overflow where
    the entries do not.  HamiltonianOverflowError when an entry is not a
    finite float."""
    try:
        fdiag, fg = [float(x) for x in diag], float(g)
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc
    off = [fg * r for r in _degree_constants(d)[3]]
    if not all(map(math.isfinite, (*fdiag, *off))):
        raise HamiltonianOverflowError()
    return fdiag, off


def degree_matrix(d: int, diag, g) -> np.ndarray:
    """S_d as a dense float array; HamiltonianOverflowError when an entry
    is not a finite float."""
    import numpy as np  # only eigensections and the tests read a dense S_d

    fdiag, off = _float_band(d, diag, g)
    dense = np.diag(fdiag)
    a = np.arange(d - 1)
    dense[a + 2, a] = dense[a, a + 2] = off
    return dense


def block_vector(p: int, q: int, u) -> list[float]:
    """The coordinates in the basis of H^{p,q} of the eigenvector of its
    band that an eigenvector u of S_(p+q) stands for: sigma_k u_k /
    sqrt(w_k), with w the pairing weights and sigma_k the sign of alpha_0
    ... alpha_(k-1).  The block's weighted symmetrization is Sigma S_d
    Sigma, since sign(beta_k) = sign(alpha_k)."""
    alpha, _ = _ladder(p, q)
    sign, out = 1, []
    for k, (x, w) in enumerate(zip(u, pairing_weights(p, q))):
        out.append(sign * float(x) / math.sqrt(w))
        if k < len(alpha) and alpha[k] < 0:
            sign = -sign
    return out


def _rational_sqrt(x: Fraction):
    """sqrt(x) for a rational square x >= 0, else None."""
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator else None


_SQRT2 = math.sqrt(2)


def _wang_fold(diag, off) -> list:
    """The antisymmetric and the symmetric species, (diag, off) pairs, of a
    tridiagonal class that reads the same backwards.  off holds the
    products of its off-diagonal pairs for an exact class, its
    off-diagonal entries for a float one.  Of length 2h+1: its first h
    entries, and its first h+1 with the last product doubled (the last
    entry times sqrt 2).  Of length 2h: its first h entries with the middle
    entry e subtracted from or added to the last diagonal entry; in a band,
    e couples l = -1 and 1 and is (c1 - c2) P_(d/2) / 4, so its product
    e^2 is a square."""
    h, odd = divmod(len(diag), 2)
    exact = isinstance(diag[0], Fraction)
    if odd:
        return [(diag[:h], off[: h - 1]), (diag[: h + 1], [*off[: h - 1], off[h - 1] * (2 if exact else _SQRT2)] if h else [])]
    shift = _rational_sqrt(off[h - 1]) if exact else off[h - 1]
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
    """Eigenvalues, ascending, of the symmetric tridiagonal float matrix
    with the diagonal diag and the off-diagonal entries off, by the
    implicit QL sweep of EISPACK's tql1 (Bowdler, Martin, Reinsch &
    Wilkinson, Numer. Math. 11, 293 (1968)).  The matrix is scaled by
    2^-e, with 2^e bounding its largest entry, before the sweep and its
    levels by 2^e after it, both exactly (math.ldexp), so no intermediate
    leaves the float range.  HamiltonianOverflowError when an entry or a
    level is not a finite float."""
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
        return sorted(math.ldexp(x, e) for x in d)
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc


def _species_levels(diag, products):
    """(value, exact_flag) pairs of a species of one or two entries: its
    diagonal, or m -+ r with m the mean of the diagonal and r^2 = ((a_0 -
    a_1) / 2)^2 + products[0], exact when r^2 is a rational square."""
    if len(diag) == 1:
        return [(diag[0], True)]
    mid, r2 = (diag[0] + diag[1]) / 2, ((diag[0] - diag[1]) / 2) ** 2 + products[0]
    r = _rational_sqrt(r2)
    if r is not None:
        return [(mid - r, True), (mid + r, True)]
    # sqrt(r2) to 2^-80 relative, without float(r2), which can overflow
    # where the levels do not
    r = Fraction(math.isqrt(r2.numerator * r2.denominator << 160), r2.denominator << 80)
    try:
        return [(float(mid - r), False), (float(mid + r), False)]
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc


# exact levels are solved on degrees p + q <= this, where every species
# has at most two entries
EXACT_DEGREE_MAX = 4


def eigenvalues(d: int, diag, g):
    """Eigenvalues of S_d = (diag, g) (degree_band) as (value, exact_flag)
    pairs, ascending.

    When S_d is diagonal (g = 0 or d < 2) they are its diagonal.  An
    exact S_d of degree d <= EXACT_DEGREE_MAX gives the levels of its
    species, the products g^2 P_m P_(m+1), in closed form: every rational
    level as a Fraction, the others as floats, which raise
    HamiltonianOverflowError when they leave the float range.  Otherwise
    they are floats: the levels of the species of S_d as floats, from its
    entries (_float_band), each species solved by _ql_levels, so a Kramers
    pair of odd d is one level twice, bit for bit.  Each is accurate to a
    few ulps of the degree's largest level.  HamiltonianOverflowError is
    raised when an entry or a level is not a finite float.  An exact level
    beyond the float range is caught where a spectrum sorts it
    (spectra._as_float).
    """
    if not g or d < 2:
        return [(v, isinstance(v, Fraction)) for v in sorted(diag)]
    if isinstance(g, Fraction) and d <= EXACT_DEGREE_MAX:
        products = [g * g * x for x in _degree_constants(d)[2]]
        levels = [lv for sd, sp, count in band_species(diag, products, d) for lv in _species_levels(sd, sp) * count]
        return sorted(levels, key=lambda t: t[0])
    species = band_species(*_float_band(d, diag, g), d)
    return [(v, False) for v in sorted(v for sd, so, count in species for v in _ql_levels(sd, so) * count)]

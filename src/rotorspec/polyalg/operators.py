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
Phys. 11, 27 (1943)), so a Hamiltonian block is a real HamiltonianBand of
three diagonals: Fractions for rational input, floats otherwise, built
from the block's cached square record (_generator_square); no Polynomial
or QC is built on that path.  The diagonal and the products lower_k
upper_k = (c1 - c2)^2 alpha_k beta_k alpha_(k+1) beta_(k+1) / 16 depend on
the block only through P_k = alpha_k beta_k = (k+1)(d-k), so all blocks of
a degree share one characteristic polynomial, and the spectrum path builds
the band of one block per degree (spectra.diagonalized_spectrum).  Since
P_(d-1-k) = P_k, an exact band splits into species (band_species), which
eigenvalues() solves in closed form on blocks of degree p + q <= 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

import numpy as np

from ..errors import HamiltonianOverflowError, RepresentationClosureError
from ..inertia import check_positive
from .gaussian import QC
from .polynomial import Polynomial
from .rational_linalg import mat_mul, mat_scale
from .spaces import BidegreeSpace, harmonic_basis, sector_contents


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
    """The Hamiltonian on one harmonic block as its three nonzero diagonals:
    diag[a] at (a, a), lower[a] at (a+2, a) and upper[a] at (a, a+2);
    Fractions for rational input, floats otherwise.
    """

    space: BidegreeSpace
    diag: tuple
    lower: tuple
    upper: tuple

    @property
    def exact(self) -> bool:
        return isinstance(self.diag[0], Fraction)

    def is_diagonal(self) -> bool:
        return not any(self.lower) and not any(self.upper)


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


@lru_cache(maxsize=None)
def _generator_square_float(p: int, q: int):
    """The record of _generator_square with the pairing weights appended,
    (D, L, U, l^2, w), each entry converted by float() once per block."""
    return tuple(tuple(map(float, part)) for part in (*_generator_square(p, q), pairing_weights(p, q)))


def hamiltonian_matrix(
    space: BidegreeSpace, i1, i2, i3, hbar0=1, k=0, rho=0
) -> HamiltonianBand:
    """Rotational Hamiltonian on one harmonic block, as a band: the exact
    generator squares times c_a = hbar0 / (2 I_a), plus k * rho on the
    diagonal.

    The band reads the one cached square record (D, L, U, l^2) of
    _generator_square, or its cached float copy for float input: J2^2
    shares D with J1^2 and negates L and U.  For
    rational input it is exact: diag = k rho + (c1 + c2) D + c3 l^2, lower
    = (c1 - c2) L, upper = (c1 - c2) U.  Otherwise it is float, in axis
    order: diag = ((k rho + c1 D) + c2 D) + c3 l^2, lower = c1 L - c2 L,
    upper alike; HamiltonianOverflowError if an input leaves the float range
    or an entry weighted by the pairing weights w does: w_a diag_a,
    w_(a+2) lower_a or w_a upper_a.
    """
    check_positive(i1=i1, i2=i2, i3=i3, hbar0=hbar0)
    if all(isinstance(v, Rational) for v in (i1, i2, i3, hbar0, k, rho)):
        sq_diag, sq_lower, sq_upper, l_squared = _generator_square(space.p, space.q)
        c1, c2, c3 = (Fraction(hbar0) / (2 * Fraction(mom)) for mom in (i1, i2, i3))
        shift, c_sum, c_diff = Fraction(k) * Fraction(rho), c1 + c2, c1 - c2
        diag = [shift + c_sum * x + c3 * y for x, y in zip(sq_diag, l_squared)]
        lower = [c_diff * x for x in sq_lower]
        upper = [c_diff * x for x in sq_upper]
    else:
        try:
            c1, c2, c3 = (float(hbar0) / (2 * float(mom)) for mom in (i1, i2, i3))
            shift = float(k) * float(rho)
        except OverflowError as exc:
            raise HamiltonianOverflowError() from exc
        sq_diag, sq_lower, sq_upper, l_squared, w = _generator_square_float(space.p, space.q)
        diag = [((shift + c1 * x) + c2 * x) + c3 * y for x, y in zip(sq_diag, l_squared)]
        lower = [c1 * x - c2 * x for x in sq_lower]
        upper = [c1 * x - c2 * x for x in sq_upper]
        weighted = [x * y for ws, band in ((w, diag), (w[2:], lower), (w, upper)) for x, y in zip(ws, band)]
        if not all(map(math.isfinite, weighted)):
            raise HamiltonianOverflowError()
    return HamiltonianBand(space=space, diag=tuple(diag), lower=tuple(lower), upper=tuple(upper))


def _rational_sqrt(x: Fraction):
    """sqrt(x) for a rational square x >= 0, else None."""
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator else None


def _wang_fold(diag, products) -> list:
    """The antisymmetric and the symmetric species, (diag, products) pairs,
    of a tridiagonal class that reads the same backwards.  Of length 2h+1:
    its first h entries, and its first h+1 with the last product doubled.
    Of length 2h: its first h entries with sqrt(b) of the middle product b
    subtracted from or added to the last diagonal entry; in a band, b
    couples l = -1 and 1 and is (c1 - c2)^2 P_(d/2)^2 / 16, a square."""
    h, odd = divmod(len(diag), 2)
    if odd:
        return [(diag[:h], products[: h - 1]), (diag[: h + 1], [*products[: h - 1], 2 * products[h - 1]] if h else [])]
    shift = _rational_sqrt(products[h - 1])
    return [((*diag[: h - 1], diag[h - 1] + sign * shift), products[: h - 1]) for sign in (-1, 1)]


def band_species(op: HamiltonianBand) -> list:
    """The species of an exact band, (diag, products, count) triples whose
    levels, each taken count times, are the band's: tridiagonal matrices
    with the diagonal diag and the products lower_i upper_i = products[i].
    The band's diagonal and products read the same under l -> -l.  For odd
    d that map exchanges the two parity classes of the index, so each level
    of class 0 counts twice (Kramers pairs); for even d _wang_fold splits
    each class into two of the four D2 species (Wang, Phys. Rev. 34, 243
    (1929))."""
    classes = [(op.diag[s::2], [lo * up for lo, up in zip(op.lower[s::2], op.upper[s::2])]) for s in (0, 1)]
    if (op.space.p + op.space.q) % 2:
        return [(*classes[0], 2)]
    return [(diag, products, 1) for cls in classes if cls[0] for diag, products in _wang_fold(*cls) if diag]


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


# exact levels are solved on blocks of degree p + q <= this, where every
# species has at most two entries
EXACT_DEGREE_MAX = 4


def eigenvalues(op: HamiltonianBand):
    """Eigenvalues of a self-adjoint Hamiltonian band as (value, exact_flag)
    pairs, ascending.

    An exact diagonal band gives its diagonal.  Other exact bands of degree
    p + q <= EXACT_DEGREE_MAX give the levels of their species in closed
    form: every rational level as a Fraction, the others as floats, which
    raise HamiltonianOverflowError when they leave the float range.  Any
    other band gives floats from eigvalsh of the symmetrized band, behind
    the overflow guard of weighted_symmetrization.  An exact level beyond
    the float range is caught where a spectrum sorts it
    (spectra._as_float).
    """
    if op.exact and op.is_diagonal():
        return [(v, True) for v in sorted(op.diag)]
    if op.exact and op.space.p + op.space.q <= EXACT_DEGREE_MAX:
        levels = [lv for diag, products, count in band_species(op) for lv in _species_levels(diag, products) * count]
        return sorted(levels, key=lambda t: t[0])
    return [(float(v), False) for v in np.linalg.eigvalsh(weighted_symmetrization(op)[0])]


@lru_cache(maxsize=None)
def _sqrt_weights(p: int, q: int) -> np.ndarray:
    """sqrt(float(w)) for the pairing weights w of H^{p,q}, read-only."""
    s = np.sqrt(np.array([float(x) for x in pairing_weights(p, q)]))
    s.flags.writeable = False
    return s


def weighted_symmetrization(op: HamiltonianBand) -> tuple[np.ndarray, np.ndarray]:
    """(S, s) with s = sqrt(w) for the pairing weights w and S = D A D^-1,
    D = diag(s), A the band as a dense float array (float(entry) at offsets
    0 and +-2, zero elsewhere).

    A band that is self-adjoint for the weighted pairing becomes the
    genuinely symmetric S with the same spectrum; an eigenvector v of S
    maps back to the eigenvector v / s of A.  Raises
    HamiltonianOverflowError when an entry or S leaves the float range.
    """
    s = _sqrt_weights(op.space.p, op.space.q)
    n = len(op.diag)
    band = np.zeros((n, n))
    a = np.arange(n)
    try:
        band[a, a] = [float(x) for x in op.diag]
        band[a[2:], a[:-2]] = [float(x) for x in op.lower]
        band[a[:-2], a[2:]] = [float(x) for x in op.upper]
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (s[:, None] * band) / s[None, :]
    if not np.isfinite(sym).all():
        raise HamiltonianOverflowError()
    return sym, s

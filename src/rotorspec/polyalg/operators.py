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
The dense J_a, L_a and Casimir matrices are the polynomial route (Jp, Jm
and J3 applied to the basis polynomials, followed by coordinate
extraction), the oracle against which `rotorspec verify` checks the
ladder, the weights and the squares.

The rotational Hamiltonian with principal momenta (I1, I2, I3) is

    H = (hbar0 / 2) (J1^2 / I1 + J2^2 / I2 + J3^2 / I3) + k rho Id,

normalized so that the spherical case gives E_j = hbar0 j(j+1) / (2 I).
The curvature shift k * rho follows the closed-form spectra (see
spectra.curvature_shift).  In the weight basis H couples l only to l and
l +- 2, the banded form of the rotor (King, Hainer & Cross, J. Chem.
Phys. 11, 27 (1943)).  hamiltonian_matrix builds it exactly on one block
as a HamiltonianBand, from the block's cached square record
(_generator_square): the oracle of the spectrum path, which reads the one
band S_d every block of degree d is similar to (levels.py).  A block's
weighted symmetrization is Sigma S_d Sigma with Sigma = diag(sign of
alpha_0 ... alpha_(k-1)), which maps an eigenvector of S_d to one of the
block (block_vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ..errors import RepresentationClosureError
from ..inertia import check_positive
from .gaussian import QC
from .levels import eigenvalues  # noqa: F401  (the span target rotorbench/spans.py wraps)
from .polynomial import Polynomial
from .rational_linalg import mat_add, mat_mul, mat_scale, mat_sub
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


def _coordinate_matrix(space: BidegreeSpace, images) -> list[list[QC]]:
    """The matrix whose column k holds the coordinates of images[k] in the
    space's basis; raises RepresentationClosureError if an image leaves the
    space."""
    cols = []
    for image in images:
        coords = space.coordinates(image)
        if coords is None:
            raise RepresentationClosureError(
                f"operator image leaves H^{{{space.p},{space.q}}}"
            )
        cols.append(coords)
    return [list(row) for row in zip(*cols)]


def _raw_matrix(space: BidegreeSpace, op) -> list[list[QC]]:
    """Matrix of a bidegree-preserving operator in the space's basis: column
    k holds the coordinates of op(basis[k]).  Applied to apply_j1..apply_j3
    this is the polynomial route of generator_matrix."""
    return _coordinate_matrix(space, [op(b) for b in space.basis])


@lru_cache(maxsize=None)
def _ladder_images(p: int, q: int) -> tuple[tuple[Polynomial, Polynomial], ...]:
    """(Jp b_k, Jm b_k) for each basis polynomial b_k of H^{p,q}, by the
    differential operators: the one polynomial-route image of the ladder,
    which generator_matrix reads for J1 and J2 and `rotorspec verify`
    compares with the integer ladder."""
    return tuple((apply_jplus(b), apply_jminus(b)) for b in harmonic_basis(p, q).basis)


@lru_cache(maxsize=None)
def generator_matrix(axis: int, p: int, q: int) -> tuple[tuple[QC, ...], ...]:
    """Angular momentum matrix J_axis on H^{p,q} as row tuples of QC, by the
    polynomial route: J3 from apply_j3 on each basis polynomial, and J1 =
    (P + M) / 2, J2 = (P - M) (-i/2) from the coordinate matrices P and M
    of the cached images Jp b_k and Jm b_k (coordinates are linear, so
    this is apply_j1 and apply_j2 read back in coordinates).  J3 = diag(l),
    and the triple satisfies [J1, J2] = i J3 cyclically; `rotorspec
    verify` checks both and compares J_a with the ladder and the pairing
    weights."""
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    space = harmonic_basis(p, q)
    if axis == 3:
        return tuple(map(tuple, _raw_matrix(space, apply_j3)))
    images = _ladder_images(p, q)
    plus = _coordinate_matrix(space, [up for up, _ in images])
    minus = _coordinate_matrix(space, [down for _, down in images])
    if axis == 1:
        rows = mat_scale(mat_add(plus, minus), Fraction(1, 2))
    else:
        rows = mat_scale(mat_sub(plus, minus), QC(0, Fraction(-1, 2)))
    return tuple(map(tuple, rows))


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
    (levels.degree_band) instead.
    """
    check_positive(i1=i1, i2=i2, i3=i3, hbar0=hbar0)
    sq_diag, sq_lower, sq_upper, l_squared = _generator_square(space.p, space.q)
    c1, c2, c3 = (Fraction(hbar0) / (2 * Fraction(mom)) for mom in (i1, i2, i3))
    shift, c_sum, c_diff = Fraction(k) * Fraction(rho), c1 + c2, c1 - c2
    diag = tuple(shift + c_sum * x + c3 * y for x, y in zip(sq_diag, l_squared))
    return HamiltonianBand(space, diag, tuple(c_diff * x for x in sq_lower), tuple(c_diff * x for x in sq_upper))


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

"""Angular momentum and Hamiltonian operator matrices on harmonic spaces.

The three rotation generators are realized once and for all as first-order
differential operators in (z1, z2, zb1, zb2):

    Jp = z1 d_z2 - zb2 d_zb1          (raising)
    Jm = z2 d_z1 - zb1 d_zb2          (lowering)
    J3 = (z1 d_z1 - z2 d_z2 - zb1 d_zb1 + zb2 d_zb2) / 2

They preserve bidegree, commute with the flat Laplacian, and restrict to an
irreducible spin-j action on each H^{p,q} with j = (p + q) / 2; J3 acts on
the k-th basis element with eigenvalue l = k - j.  This Chevalley basis has
rational coefficients and satisfies [J3, Jp] = Jp, [J3, Jm] = -Jm and
[Jp, Jm] = 2 J3, so the whole oracle computes over the integers and
Fractions.  The paper's self-adjoint generators are J1 = (Jp + Jm) / 2 and
J2 = (Jp - Jm) / (2i), with [J1, J2] = i J3 cyclically, and its
left-invariant vector fields the skew L_a = -i J_a, with [L1, L2] = L3;
that change of basis is invertible over Q(i), so each relation holds
exactly when its Chevalley form does.  The Casimir is

    C = J1^2 + J2^2 + J3^2 = Jm Jp + J3^2 + J3 = j(j+1) Id.

On a monomial the ladder operators act as

    Jp z1^a z2^b zb1^c zb2^d = b (a+1, b-1, c, d) - c (a, b, c-1, d+1)
    Jm z1^a z2^b zb1^c zb2^d = a (a-1, b+1, c, d) - d (a, b, c+1, d-1)

(exponent tuples standing for monomials).  polynomial.apply_operator
applies Jp, Jm and 2 J3 from their term tables (_JPLUS, _JMINUS and
_J3_TWICE).  On the unnormalized sector kernels u_k of spaces.py the
coefficient of Jp u_k on (a, c) is (a - c + q) u(a, c), so with d = p + q

    Jp u_k = (k+1) u_(k+1),    Jm u_(k+1) = (d-k) u_k,

the polynomial form of the Condon-Shortley ladder.  On the basis
b_k = u_k / n_k (n_k the signed content, spaces.sector_contents) this gives
the integer coordinates Jp b_k = alpha_k b_(k+1) and Jm b_(k+1) =
beta_k b_k with

    alpha_k = (k+1) n_(k+1) / n_k,    beta_k = (d-k) n_k / n_(k+1),

so alpha_k beta_k = (k+1)(d-k) = j(j+1) - l(l+1).  The pairing weights, the
generator squares the Hamiltonian reads and the ladder matrices
(generator_matrix) are built from alpha and beta.  The matrices of the
differential operators Jp, Jm and J3 and the Casimir (vector_field_matrix,
casimir_matrix) are the polynomial route (the operator applied to the
basis polynomials, followed by coordinate extraction), the oracle against
which `rotorspec verify` checks the ladder, the weights and the squares.

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
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from ..errors import RepresentationClosureError
from ..inertia import check_positive
from .levels import eigenvalues  # noqa: F401  (the span target rotorbench/spans.py wraps)
from .polynomial import Polynomial, apply_operator
from .rational_linalg import mat_add, mat_mul
from .spaces import BidegreeSpace, harmonic_basis, sector_contents


_JPLUS = ((1, (1,), (0,)), (-1, (2,), (3,)))
_JMINUS = ((1, (0,), (1,)), (-1, (3,), (2,)))
_J3_TWICE = ((1, (0,), (0,)), (-1, (1,), (1,)), (-1, (2,), (2,)), (1, (3,), (3,)))


def apply_j3(f: Polynomial) -> Polynomial:
    return apply_operator(f, _J3_TWICE).scale(Fraction(1, 2))


def apply_jplus(f: Polynomial) -> Polynomial:
    return apply_operator(f, _JPLUS)


def apply_jminus(f: Polynomial) -> Polynomial:
    return apply_operator(f, _JMINUS)


class HamiltonianBand(NamedTuple):
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


# the axes of generator_matrix and vector_field_matrix: Jp, Jm and J3
AXES = ("+", "-", 3)


def _raw_matrix(space: BidegreeSpace, op) -> list[list]:
    """Matrix of a bidegree-preserving operator in the space's basis: column
    k holds the coordinates of op(basis[k]); raises
    RepresentationClosureError if an image leaves the space."""
    cols = []
    for b in space.basis:
        coords = space.coordinates(op(b))
        if coords is None:
            raise RepresentationClosureError(
                f"operator image leaves H^{{{space.p},{space.q}}}"
            )
        cols.append(coords)
    return [list(row) for row in zip(*cols)]


def generator_matrix(axis, p: int, q: int) -> tuple[tuple, ...]:
    """Jp (axis "+"), Jm ("-") or J3 (3) on H^{p,q} as row tuples, from the
    integer ladder and the l-values: (Jp)_(k+1,k) = alpha_k, (Jm)_(k,k+1)
    = beta_k and J3 = diag(l), zero elsewhere.  `rotorspec verify` compares
    it with vector_field_matrix entry by entry."""
    if axis not in AXES:
        raise ValueError('axis must be "+", "-" or 3')
    dim = p + q + 1
    rows = [[0] * dim for _ in range(dim)]
    if axis == 3:
        for k, l in enumerate(harmonic_basis(p, q).l_values):
            rows[k][k] = l
    else:
        for k, (a, b) in enumerate(zip(*_ladder(p, q))):
            if axis == "+":
                rows[k + 1][k] = a
            else:
                rows[k][k + 1] = b
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def vector_field_matrix(axis, p: int, q: int) -> tuple[tuple, ...]:
    """Jp (axis "+"), Jm ("-") or J3 (3) on H^{p,q} as row tuples, by the
    polynomial route: the differential operator applied to each basis
    polynomial and read back in coordinates.  Every entry is an int or a
    Fraction."""
    if axis not in AXES:
        raise ValueError('axis must be "+", "-" or 3')
    op = {"+": apply_jplus, "-": apply_jminus, 3: apply_j3}[axis]
    return tuple(map(tuple, _raw_matrix(harmonic_basis(p, q), op)))


@lru_cache(maxsize=None)
def casimir_matrix(p: int, q: int) -> tuple[tuple, ...]:
    """C = Jm Jp + J3^2 + J3 from the matrices of vector_field_matrix, as
    row tuples; it is J1^2 + J2^2 + J3^2 (since [Jp, Jm] = 2 J3) and equals
    j(j+1) Id on H^{p,q}, i.e. one quarter of the degree-d sphere
    eigenvalue d(d+2)."""
    jp, jm, j3 = (vector_field_matrix(axis, p, q) for axis in AXES)
    rows = mat_add(mat_add(mat_mul(jm, jp), mat_mul(j3, j3)), j3)
    return tuple(map(tuple, rows))


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
    (levels.degree_band of the inputs' levels.band_record) instead.
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

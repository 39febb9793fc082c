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

(exponent tuples standing for monomials), so on the integer sector vectors
b_0..b_2j of the harmonic basis they give integer coordinates
Jp b_k = alpha_k b_(k+1) and Jm b_(k+1) = beta_k b_k.  The pairing
weights and the generator squares the Hamiltonian reads are built from
alpha and beta.  The dense J_a, L_a and Casimir matrices are the
polynomial route (apply_j* followed by coordinate extraction,
`_raw_matrix`), the oracle against which `rotorspec verify` checks the
ladder, the weights and the squares.

The rotational Hamiltonian with principal momenta (I1, I2, I3) is

    H = (hbar0 / 2) (J1^2 / I1 + J2^2 / I2 + J3^2 / I3) + k rho Id,

normalized so that the spherical case gives E_j = hbar0 j(j+1) / (2 I).
The curvature shift k * rho follows the closed-form spectra (see
spectra.curvature_shift).  In the weight basis H couples l only to l and
l +- 2, the banded form of the rotor (King, Hainer & Cross, J. Chem.
Phys. 11, 27 (1943)), so a Hamiltonian block is a real HamiltonianBand of
three diagonals: Fractions for rational input, floats otherwise, built per
block from the sector vectors, the ladder and one cached square record
(_generator_square); no Polynomial or QC is built on that path.  Its
characteristic polynomial is the product of the continuants of the even
and odd parity classes (band_charpoly); eigenvalues() decides where exact
extraction is tried.
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
from .rational_linalg import mat_mul, mat_scale, rational_roots_from_candidates
from .spaces import BidegreeSpace, harmonic_basis


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
    Fractions for rational input, floats otherwise.  adjointness is the
    verdict of the weighted-pairing check: "self", "zero" or "none".
    """

    space: BidegreeSpace
    diag: tuple
    lower: tuple
    upper: tuple
    adjointness: str

    @property
    def exact(self) -> bool:
        return isinstance(self.diag[0], Fraction)

    def is_diagonal(self) -> bool:
        return not any(self.lower) and not any(self.upper)


def _ladder_image(terms: dict, raising: bool) -> dict:
    """Jp (raising) or Jm of a polynomial given as {exponent: coefficient},
    by the monomial formulas of the module docstring; zero terms dropped."""
    out: dict = {}
    for (a, b, c, d), v in terms.items():
        if raising:
            moves = ((b, (a + 1, b - 1, c, d)), (-c, (a, b, c - 1, d + 1)))
        else:
            moves = ((a, (a - 1, b + 1, c, d)), (-d, (a, b, c + 1, d - 1)))
        for factor, e in moves:
            if factor:
                out[e] = out.get(e, 0) + factor * v
    return {e: v for e, v in out.items() if v}


def _multiple(image: dict, target: dict, what: str) -> int:
    """The integer r with image = r * target (r = 0 for an empty target,
    whose image must vanish); RepresentationClosureError otherwise.  The
    target has content 1, so any multiple is an integer one, and a floor
    quotient with a remainder fails the entrywise check at e0."""
    ratio = 0
    if target:
        e0, t0 = next(iter(target.items()))
        ratio = image.get(e0, 0) // t0
    if image.keys() - target.keys() or any(image.get(e, 0) != ratio * t for e, t in target.items()):
        raise RepresentationClosureError(f"{what} is not a multiple of the adjacent basis element")
    return ratio


@lru_cache(maxsize=None)
def _ladder(p: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integer ladder coordinates (alpha, beta) on the basis b of H^{p,q}:
    Jp b_k = alpha_k b_(k+1) and Jm b_(k+1) = beta_k b_k exactly.

    The images are computed in integers from the sector vectors of
    harmonic_basis.  Closure is checked on every basis element: each image
    must be exactly proportional to its neighbour, and Jp of the top element
    and Jm of the bottom one must vanish; RepresentationClosureError
    otherwise.
    """
    vecs = [dict(sector) for sector in harmonic_basis(p, q).sectors]
    alpha, beta = [], []
    for k, vec in enumerate(vecs):
        up = vecs[k + 1] if k + 1 < len(vecs) else {}
        down = vecs[k - 1] if k else {}
        where = f"on basis element {k} of H^{{{p},{q}}}"
        alpha.append(_multiple(_ladder_image(vec, raising=True), up, "Jp " + where))
        beta.append(_multiple(_ladder_image(vec, raising=False), down, "Jm " + where))
    # the last alpha and the first beta are the vanishing top and bottom images
    return tuple(alpha[:-1]), tuple(beta[1:])


@lru_cache(maxsize=None)
def pairing_weights(p: int, q: int) -> tuple[Fraction, ...]:
    """Positive diagonal weights of the natural pairing on H^{p,q} in the
    weight-sector basis, fixed by requiring the ladder pair (Jp, Jm) to be
    mutually adjoint; normalized so the lowest-weight element has weight 1.
    """
    space = harmonic_basis(p, q)
    alpha, beta = _ladder(p, q)
    j = space.j
    w = [Fraction(1)]
    for l, a, b in zip(space.l_values, alpha, beta):
        if a == 0:
            raise AssertionError("ladder matrices are not in the expected form")
        if a * b != j * (j + 1) - l * (l + 1):
            raise AssertionError("ladder product violates the Casimir identity")
        w.append(w[-1] * b / a)
        if w[-1] <= 0:
            raise AssertionError("pairing weights must be positive")
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
    negated.  J1 and J2 are self-adjoint exactly when w_(k+1) alpha_k =
    w_k beta_k for the pairing weights w; this is asserted.
    """
    space = harmonic_basis(p, q)
    alpha, beta = _ladder(p, q)
    weights = pairing_weights(p, q)
    for k, (a, b) in enumerate(zip(alpha, beta)):
        if weights[k + 1] * a != weights[k] * b:
            raise AssertionError("J1 and J2 failed the self-adjointness check")
    products = [0, *(a * b for a, b in zip(alpha, beta)), 0]
    diag = tuple(Fraction(products[k] + products[k + 1], 4) for k in range(space.dim))
    lower = tuple(Fraction(alpha[k] * alpha[k + 1], 4) for k in range(space.dim - 2))
    upper = tuple(Fraction(beta[k] * beta[k + 1], 4) for k in range(space.dim - 2))
    return diag, lower, upper, tuple(l * l for l in space.l_values)


def hamiltonian_matrix(
    space: BidegreeSpace, i1, i2, i3, hbar0=1, k=0, rho=0
) -> HamiltonianBand:
    """Rotational Hamiltonian on one harmonic block, as a band: the exact
    generator squares times c_a = hbar0 / (2 I_a), plus k * rho on the
    diagonal.

    The band reads the one cached square record (D, L, U, l^2) of
    _generator_square: J2^2 shares D with J1^2 and negates L and U.  For
    rational input it is exact: diag = k rho + (c1 + c2) D + c3 l^2, lower
    = (c1 - c2) L, upper = (c1 - c2) U.  Otherwise it is float, in axis
    order: diag = ((k rho + c1 D) + c2 D) + c3 l^2, lower = c1 L - c2 L,
    upper alike; HamiltonianOverflowError if an input leaves the float range.
    """
    check_positive(i1=i1, i2=i2, i3=i3, hbar0=hbar0)
    sq_diag, sq_lower, sq_upper, l_squared = _generator_square(space.p, space.q)
    if all(isinstance(v, Rational) for v in (i1, i2, i3, hbar0, k, rho)):
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
        diag = [((shift + c1 * x) + c2 * x) + c3 * y for x, y in zip(map(float, sq_diag), map(float, l_squared))]
        lower = [c1 * x - c2 * x for x in map(float, sq_lower)]
        upper = [c1 * x - c2 * x for x in map(float, sq_upper)]
    return HamiltonianBand(
        space=space,
        diag=tuple(diag),
        lower=tuple(lower),
        upper=tuple(upper),
        adjointness=_band_adjointness(diag, lower, upper, pairing_weights(space.p, space.q)),
    )


def _band_adjointness(diag, lower, upper, weights) -> str:
    """Verdict "self", "zero" or "none" under the weighted pairing: w_(a+2)
    lower_a against w_a upper_a.  Exact for Fractions, where "zero" means
    every entry vanishes (the weights are positive).  For floats within
    1e-12 of the largest weighted entry, with HamiltonianOverflowError if
    any weighted entry is not finite.
    """
    if isinstance(diag[0], Fraction):
        if not any(diag) and not any(lower) and not any(upper):
            return "zero"
        same = all(weights[a + 2] * lo == weights[a] * up for a, (lo, up) in enumerate(zip(lower, upper)))
        return "self" if same else "none"
    weights = [float(w) for w in weights]
    pairs = [(weights[a + 2] * lo, weights[a] * up) for a, (lo, up) in enumerate(zip(lower, upper))]
    scaled = [w * x for w, x in zip(weights, diag)] + [x for pair in pairs for x in pair]
    if not all(map(math.isfinite, scaled)):
        raise HamiltonianOverflowError()
    if not any(scaled):
        return "zero"
    tol = 1e-12 * max(map(abs, scaled))
    return "self" if max((abs(x - y) for x, y in pairs), default=0.0) <= tol else "none"


def band_charpoly(op: HamiltonianBand) -> list[Fraction]:
    """Characteristic polynomial det(t - H) of an exact band, as
    coefficients [c_0, ..., c_n] with c_n = 1 (the layout of charpoly).

    The band couples index a only to a and a +- 2, so H splits into two
    tridiagonal parity classes (even and odd a), and det(t - H) is the
    product of their continuants

        p_i = (t - a_i) p_(i-1) - (lower_(i-1) upper_(i-1)) p_(i-2)

    with a_i, lower_i and upper_i read along the class.
    """
    out = [Fraction(1)]
    for start in (0, 1):
        diag = op.diag[start::2]
        products = [lo * up for lo, up in zip(op.lower[start::2], op.upper[start::2])]
        prev, cur = [], [Fraction(1)]
        for i, a in enumerate(diag):
            # (t - a) cur - b prev, coefficients lowest first
            nxt = [Fraction(0), *cur]
            for m, c in enumerate(cur):
                nxt[m] -= a * c
            if i:
                for m, c in enumerate(prev):
                    nxt[m] -= products[i - 1] * c
            prev, cur = cur, nxt
        out = _poly_mul(out, cur)
    return out


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for m, y in enumerate(b):
            out[i + m] += x * y
    return out


# exact eigenvalue extraction is tried on blocks of degree p + q <= this
EXACT_DEGREE_MAX = 4


def eigenvalues(op: HamiltonianBand):
    """Eigenvalues of a self-adjoint Hamiltonian band as (value, exact_flag)
    pairs, ascending.

    An exact diagonal band gives its diagonal.  Other exact bands of degree
    p + q <= EXACT_DEGREE_MAX give Fractions for the rational roots of the
    characteristic polynomial (band_charpoly, the product of the two
    parity-class continuants; rational_linalg.charpoly is its oracle in the
    tests) and floats for the rest.  Any other band gives floats from
    eigvalsh of the symmetrized band.
    """
    if op.adjointness not in ("self", "zero"):
        raise ValueError("eigenvalue extraction expects a self-adjoint matrix")
    if op.exact and op.is_diagonal():
        return [(v, True) for v in sorted(op.diag)]
    floats = np.linalg.eigvalsh(weighted_symmetrization(op)[0])
    if op.exact and op.space.p + op.space.q <= EXACT_DEGREE_MAX:
        # candidates from the stable float diagonalization (np.roots would
        # split degenerate roots); acceptance is by exact substitution
        roots, residual, leftover = rational_roots_from_candidates(band_charpoly(op), floats)
        out = [(r, True) for r in roots]
        if len(residual) == 3 and len(leftover) == 2:
            # quadratic factor: exact coefficients, closed-form roots
            c0, c1, c2 = residual
            disc = c1 * c1 - 4 * c2 * c0
            s = float(disc) ** 0.5
            out.append(((-float(c1) - s) / (2 * float(c2)), False))
            out.append(((-float(c1) + s) / (2 * float(c2)), False))
        else:
            out.extend((f, False) for f in leftover)
        return sorted(out, key=lambda t: float(t[0]))
    return [(float(v), False) for v in floats]


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

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

(exponent tuples standing for monomials), so on the integer harmonic basis
b_0..b_2j they give exact coordinates Jp b_k = alpha_k b_(k+1) and
Jm b_(k+1) = beta_k b_k.  The generator matrices, the pairing weights and
the generator squares are built from alpha and beta; the polynomial route
(apply_j* followed by coordinate extraction, `_raw_matrix`) is the oracle
`rotorspec verify` compares them against.

The rotational Hamiltonian with principal momenta (I1, I2, I3) is

    H = (hbar0 / 2) (J1^2 / I1 + J2^2 / I2 + J3^2 / I3) + k rho Id,

normalized so that the spherical case gives E_j = hbar0 j(j+1) / (2 I).
The curvature shift k * rho follows the closed-form spectra (see
spectra.curvature_shift).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

import numpy as np

from ..errors import RepresentationClosureError
from .gaussian import QC
from .polynomial import Polynomial
from .rational_linalg import charpoly, mat_mul, mat_scale, rational_roots_from_candidates
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
class OperatorMatrix:
    """A square matrix on a harmonic space, exact (QC entries) or float.

    adjointness records the verified behavior under the natural sesquilinear
    pairing of the space: "self", "skew" or "none".
    """

    space: BidegreeSpace
    entries: tuple[tuple[QC, ...], ...] | None
    array: np.ndarray
    adjointness: str

    @property
    def exact(self) -> bool:
        return self.entries is not None

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def rows(self) -> list[list[QC]]:
        if self.entries is None:
            raise ValueError("matrix is not exact")
        return [list(r) for r in self.entries]

    def is_diagonal(self) -> bool:
        if self.exact:
            return all(
                not c for i, row in enumerate(self.entries) for j, c in enumerate(row) if i != j
            )
        off = self.array - np.diag(np.diag(self.array))
        return bool(np.all(off == 0))


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


def _multiple(image: dict, target: dict, what: str) -> Fraction:
    """The exact factor r with image = r * target; an empty target means
    the image must vanish (r = 0).  Raises RepresentationClosureError
    otherwise."""
    ratio = Fraction(0)
    if target:
        e0, t0 = next(iter(target.items()))
        ratio = Fraction(image.get(e0, 0), t0)
    if image.keys() - target.keys() or any(image.get(e, 0) != ratio * t for e, t in target.items()):
        raise RepresentationClosureError(f"{what} is not a multiple of the adjacent basis element")
    return ratio


@lru_cache(maxsize=None)
def _ladder(p: int, q: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Ladder coordinates (alpha, beta) on the basis b of H^{p,q}:
    Jp b_k = alpha_k b_(k+1) and Jm b_(k+1) = beta_k b_k exactly.

    The basis has integer coefficients (see harmonic_basis), so the images
    are computed in integers.  Closure is checked on every basis element:
    each image must be exactly proportional to its neighbour, and Jp of the
    top element and Jm of the bottom one must vanish;
    RepresentationClosureError otherwise.
    """
    vecs = []
    for b in harmonic_basis(p, q).basis:
        if any(c.im or c.re.denominator != 1 for c in b.terms.values()):
            raise AssertionError("harmonic basis coefficients must be integers")
        vecs.append({e: c.re.numerator for e, c in b.terms.items()})
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
    apply_j1..apply_j3 this is the polynomial route, the oracle for
    generator_matrix.
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


def _verify_adjointness(rows, weights) -> str:
    """Classify a matrix as self-/skew-adjoint (or neither) under the
    weighted pairing <e_m, e_n> = w_m delta_mn, exactly."""
    dim = len(rows)
    selfadj = True
    skewadj = True
    for m in range(dim):
        # the condition at (n, m) is the complex conjugate of the one at (m, n)
        for n in range(m, dim):
            x, y = rows[m][n], rows[n][m]
            if not x and not y:
                continue  # both sides of the condition vanish
            # w_m x against w_n conj(y), by real and imaginary part
            lhs = (weights[m] * x.re, weights[m] * x.im)
            rhs = (weights[n] * y.re, -weights[n] * y.im)
            if lhs != rhs:
                selfadj = False
            if lhs != (-rhs[0], -rhs[1]):
                skewadj = False
    if selfadj and skewadj:
        return "zero"
    if selfadj:
        return "self"
    if skewadj:
        return "skew"
    return "none"


def _wrap(space: BidegreeSpace, rows) -> OperatorMatrix:
    weights = pairing_weights(space.p, space.q)
    adj = _verify_adjointness(rows, weights)
    return OperatorMatrix(
        space=space,
        entries=tuple(tuple(r) for r in rows),
        array=_to_array(rows),
        adjointness=adj,
    )


def _to_array(rows) -> np.ndarray:
    """Complex array of an exact matrix, converting the nonzero entries."""
    arr = np.zeros((len(rows), len(rows)), dtype=complex)
    for m, row in enumerate(rows):
        for n, c in enumerate(row):
            if c:
                arr[m, n] = c.to_complex()
    return arr


@lru_cache(maxsize=None)
def generator_matrix(axis: int, p: int, q: int) -> OperatorMatrix:
    """Self-adjoint angular momentum matrix J_axis on H^{p,q}.

    J3 = diag(l), J1 = (Jp + Jm) / 2 and J2 = (Jp - Jm) (-i/2), with Jp and
    Jm from the ladder coordinates; the triple satisfies [J1, J2] = i J3
    cyclically.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    space = harmonic_basis(p, q)
    rows = [[QC(0)] * space.dim for _ in range(space.dim)]
    if axis == 3:
        for k, l in enumerate(space.l_values):
            rows[k][k] = QC(l)
    else:
        alpha, beta = _ladder(p, q)
        for k, (a, b) in enumerate(zip(alpha, beta)):
            if axis == 1:
                rows[k + 1][k], rows[k][k + 1] = QC(a / 2), QC(b / 2)
            else:
                rows[k + 1][k], rows[k][k + 1] = QC(0, -a / 2), QC(0, b / 2)
    m = _wrap(space, rows)
    if m.adjointness not in ("self", "zero"):
        raise AssertionError(f"J{axis} failed the self-adjointness check")
    return m


@lru_cache(maxsize=None)
def vector_field_matrix(axis: int, p: int, q: int) -> OperatorMatrix:
    """Skew matrix L_axis = -i J_axis of the left-invariant vector field;
    the triple satisfies [L1, L2] = L3 cyclically (exact)."""
    jm = generator_matrix(axis, p, q)
    rows = mat_scale(jm.rows(), QC(0, -1))
    m = _wrap(jm.space, rows)
    if m.adjointness not in ("skew", "zero"):
        raise AssertionError(f"L{axis} failed the skew-adjointness check")
    return m


@lru_cache(maxsize=None)
def casimir_matrix(p: int, q: int) -> OperatorMatrix:
    """C = J1^2 + J2^2 + J3^2 = -(L1^2 + L2^2 + L3^2); equals j(j+1) Id on
    H^{p,q}, i.e. one quarter of the degree-d sphere eigenvalue d(d+2)."""
    space = harmonic_basis(p, q)
    total = None
    for axis in (1, 2, 3):
        sq = mat_mul(generator_matrix(axis, p, q).rows(), generator_matrix(axis, p, q).rows())
        total = sq if total is None else [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, sq)]
    return _wrap(space, total)


@lru_cache(maxsize=None)
def _generator_square(axis: int, p: int, q: int):
    """J_axis^2 on H^{p,q}, exact, from the ladder coordinates.

    J3^2 = diag(l^2).  J1^2 and J2^2 share the diagonal
    (alpha_(k-1) beta_(k-1) + alpha_k beta_k) / 4 and have entries only two
    off it: alpha_k alpha_(k+1) / 4 at (k+2, k) and beta_k beta_(k+1) / 4 at
    (k, k+2), negated for J2.
    """
    space = generator_matrix(axis, p, q).space  # J_axis passes its checks first
    dim = space.dim
    rows = [[QC(0)] * dim for _ in range(dim)]
    if axis == 3:
        for k, l in enumerate(space.l_values):
            rows[k][k] = QC(l * l)
    else:
        alpha, beta = _ladder(p, q)
        products = [0, *(a * b for a, b in zip(alpha, beta)), 0]
        sign = 1 if axis == 1 else -1
        for k in range(dim):
            rows[k][k] = QC(Fraction(products[k] + products[k + 1]) / 4)
        for k in range(dim - 2):
            rows[k + 2][k] = QC(sign * alpha[k] * alpha[k + 1] / 4)
            rows[k][k + 2] = QC(sign * beta[k] * beta[k + 1] / 4)
    return tuple(tuple(r) for r in rows)


def hamiltonian_matrix(
    space: BidegreeSpace, i1, i2, i3, hbar0=1, k=0, rho=0
) -> OperatorMatrix:
    """Rotational Hamiltonian on one harmonic block.

    Exact (rational) entries whenever all scalar inputs are rational;
    otherwise the matrix is assembled in floating point from the exact
    generator squares.  The curvature shift k * rho is added to the
    diagonal.
    """
    if min(float(i1), float(i2), float(i3)) <= 0:
        raise ValueError("principal momenta must be positive")
    squares = [_generator_square(axis, space.p, space.q) for axis in (1, 2, 3)]
    exact = all(isinstance(v, Rational) for v in (i1, i2, i3, hbar0, k, rho))
    if exact:
        shift = Fraction(k) * Fraction(rho)
        coefs = [Fraction(hbar0) / (2 * Fraction(mom)) for mom in (i1, i2, i3)]
        rows = [[QC(0)] * space.dim for _ in range(space.dim)]
        # the squares vanish outside the diagonal and the entries two off it
        for a in range(space.dim):
            for b in (a - 2, a, a + 2):
                if 0 <= b < space.dim:
                    entry = shift if a == b else Fraction(0)
                    for sq, coef in zip(squares, coefs):
                        entry += coef * sq[a][b].re
                    rows[a][b] = QC(entry)
        return _wrap(space, rows)
    arr = (float(k) * float(rho)) * np.eye(space.dim)
    for sq, mom in zip(squares, (i1, i2, i3)):
        block = _to_array(sq)
        if np.max(np.abs(block.imag)) != 0:
            raise AssertionError("generator squares must be real")
        arr = arr + (float(hbar0) / (2.0 * float(mom))) * block.real
    weights = pairing_weights(space.p, space.q)
    adj = _verify_adjointness_float(arr, weights)
    return OperatorMatrix(space=space, entries=None, array=arr.astype(complex), adjointness=adj)


def _verify_adjointness_float(arr: np.ndarray, weights) -> str:
    w = np.array([float(x) for x in weights])
    lhs = w[:, None] * arr
    rhs = (w[:, None] * arr).T
    if not np.any(lhs):
        return "zero"
    scale = np.max(np.abs(lhs))
    return "self" if np.max(np.abs(lhs - rhs)) <= 1e-12 * scale else "none"


def eigenvalues(op: OperatorMatrix, prefer_exact: bool = True):
    """Eigenvalues of a self-adjoint operator matrix, ascending.

    Returns a list of (value, exact_flag); values are Fractions when the
    characteristic polynomial factors over the rationals, floats otherwise.
    Exact extraction is attempted for exact matrices when prefer_exact is
    set (block degrees above 4 use the float path by policy).
    """
    if op.adjointness not in ("self", "zero"):
        raise ValueError("eigenvalue extraction expects a self-adjoint matrix")
    if op.exact and op.is_diagonal():
        vals = sorted((row[i].re for i, row in enumerate(op.entries)))
        return [(v, True) for v in vals]
    floats = np.linalg.eigvalsh(weighted_symmetrization(op)[0])
    if op.exact and prefer_exact:
        # candidates from the stable float diagonalization (np.roots would
        # split degenerate roots); acceptance is by exact substitution
        coeffs = charpoly(op.rows())
        roots, residual, leftover = rational_roots_from_candidates(coeffs, floats)
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


def weighted_symmetrization(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(S, s) with s = sqrt(w) for the pairing weights w and S = D A D^-1,
    D = diag(s).

    A matrix A that is self-adjoint for the weighted pairing becomes the
    genuinely symmetric (Hermitian) S with the same spectrum; an
    eigenvector v of S maps back to the eigenvector v / s of A.
    """
    w = np.array([float(x) for x in pairing_weights(op.space.p, op.space.q)])
    s = np.sqrt(w)
    arr = op.array.real if np.max(np.abs(op.array.imag)) == 0 else op.array
    return (s[:, None] * arr) / s[None, :], s

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


@lru_cache(maxsize=None)
def pairing_weights(p: int, q: int) -> tuple[Fraction, ...]:
    """Positive diagonal weights of the natural pairing on H^{p,q} in the
    weight-sector basis, fixed by requiring the ladder pair (Jp, Jm) to be
    mutually adjoint; normalized so the lowest-weight element has weight 1.
    """
    space = harmonic_basis(p, q)
    jp = _raw_matrix(space, apply_jplus)
    jm = _raw_matrix(space, apply_jminus)
    dim = space.dim
    w = [Fraction(1)] * dim
    j = space.j
    for k in range(dim - 1):
        alpha = jp[k + 1][k]
        beta = jm[k][k + 1]
        if not (alpha.is_real and beta.is_real) or alpha.re == 0:
            raise AssertionError("ladder matrices are not in the expected form")
        l = space.l_values[k]
        if alpha.re * beta.re != j * (j + 1) - l * (l + 1):
            raise AssertionError("ladder product violates the Casimir identity")
        w[k + 1] = w[k] * beta.re / alpha.re
        if w[k + 1] <= 0:
            raise AssertionError("pairing weights must be positive")
    return tuple(w)


def _raw_matrix(space: BidegreeSpace, op) -> list[list[QC]]:
    """Matrix of a bidegree-preserving operator in the space's basis.

    Column k holds the coordinates of op(basis[k]); raises
    RepresentationClosureError if an image leaves the space.
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
            lhs = QC(weights[m]) * rows[m][n]
            rhs = QC(weights[n]) * rows[n][m].conjugate()
            if lhs != rhs:
                selfadj = False
            if lhs != -rhs:
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
    arr = np.array([[c.to_complex() for c in r] for r in rows], dtype=complex)
    return OperatorMatrix(
        space=space,
        entries=tuple(tuple(r) for r in rows),
        array=arr,
        adjointness=adj,
    )


_APPLY = {1: apply_j1, 2: apply_j2, 3: apply_j3}


@lru_cache(maxsize=None)
def generator_matrix(axis: int, p: int, q: int) -> OperatorMatrix:
    """Self-adjoint angular momentum matrix J_axis on H^{p,q}.

    J3 is diagonal with eigenvalues -j..j in integer steps; the triple
    satisfies [J1, J2] = i J3 cyclically.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    space = harmonic_basis(p, q)
    m = _wrap(space, _raw_matrix(space, _APPLY[axis]))
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
    g = generator_matrix(axis, p, q)
    return tuple(tuple(r) for r in mat_mul(g.rows(), g.rows()))


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
    squares = [
        [list(r) for r in _generator_square(axis, space.p, space.q)]
        for axis in (1, 2, 3)
    ]
    exact = all(isinstance(v, Rational) for v in (i1, i2, i3, hbar0, k, rho))
    if exact:
        shift = QC(Fraction(k) * Fraction(rho))
        rows = [[shift if a == b else QC(0) for b in range(space.dim)] for a in range(space.dim)]
        for sq, mom in zip(squares, (i1, i2, i3)):
            coef = QC(Fraction(hbar0) / (2 * Fraction(mom)))
            for a in range(space.dim):
                for b in range(space.dim):
                    rows[a][b] = rows[a][b] + coef * sq[a][b]
        return _wrap(space, rows)
    arr = (float(k) * float(rho)) * np.eye(space.dim)
    for sq, mom in zip(squares, (i1, i2, i3)):
        block = np.array([[c.to_complex() for c in r] for r in sq])
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

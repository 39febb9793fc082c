"""Particle data, the center-of-mass frame and the degeneracy class of a body.

This module provides the canonical center-of-mass configuration of the
rigid body and the rank of its pairwise position differences, which fixes
the degeneracy class, all on floats and tuples in pure Python, and the
cyclic Jacobi eigensolver the package shares.  The rank decision is
relative to the largest singular value, so it does not depend on the unit
of length.  The velocity splitting and the angular-velocity map live in
classical_em, beside the fields they are evaluated with.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import mul
from typing import NamedTuple

from .defaults import DEFAULT_TOLERANCES, Tolerances
from .errors import AllCoincidentError, NonPositiveMassError, OutOfRangeError


class DegeneracyClass(Enum):
    """Rank class of the span of pairwise position differences."""

    DEGENERATE = 1  # collinear body, configuration manifold is S^2
    WEAKLY_NONDEGENERATE = 2  # planar body, SO(3)
    STRONGLY_NONDEGENERATE = 3  # full 3-d body, SO(3)

    @property
    def is_degenerate(self) -> bool:
        return self is DegeneracyClass.DEGENERATE


def _floats(values) -> tuple[float, ...]:
    try:
        return tuple(map(float, values))
    except TypeError as exc:
        raise ValueError("expected a list of numbers") from exc


def _rows(rows, n: int, what: str) -> tuple[tuple[float, float, float], ...]:
    """rows as n 3-tuples of floats, one per particle, or ValueError."""
    try:
        out = tuple((float(x), float(y), float(z)) for x, y, z in rows)
    except (TypeError, ValueError):
        out = None
    if out is None or len(out) != n:
        raise ValueError(f"one {what} 3-vector per particle required")
    return out


class ParticleSystem(NamedTuple("ParticleSystem", [("masses", tuple), ("charges", tuple), ("positions", tuple)])):
    """Raw input: n >= 2 particles with masses, charges and absolute positions.

    masses are in mass units (strictly positive), charges in charge units,
    positions in length units.  Any sequences are accepted and stored as
    tuples of floats, positions as n rows (x, y, z), by _replace too.
    """

    __slots__ = ()

    def __new__(cls, masses, charges, positions):
        masses, charges = _floats(masses), _floats(charges)
        n = len(masses)
        positions = _rows(positions, n, "position")
        if n < 2:
            raise ValueError("a rigid body needs at least 2 particles")
        if len(charges) != n:
            raise ValueError("masses and charges must agree in length")
        if any(m <= 0.0 for m in masses):
            raise NonPositiveMassError("all masses must be strictly positive")
        return super().__new__(cls, masses, charges, positions)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.masses)

    @property
    def weights(self) -> tuple[float, ...]:
        """Mass fractions mu_i = m_i / m; they sum to 1."""
        total = self.total_mass
        return tuple(m / total for m in self.masses)


class RigidConfiguration(NamedTuple):
    """Center-of-mass frame configuration of a rigid body.

    relatives r_i (rows (x, y, z)) satisfy sum_i mu_i r_i = 0;
    characteristic is the rank of the span of pairwise differences and
    fixes the degeneracy class.
    """

    center: tuple[float, float, float]
    relatives: tuple[tuple[float, float, float], ...]
    masses: tuple[float, ...]
    characteristic: int
    degeneracy: DegeneracyClass

    @property
    def n(self) -> int:
        return len(self.relatives)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.masses)

    @property
    def weights(self) -> tuple[float, ...]:
        total = self.total_mass
        return tuple(m / total for m in self.masses)


def _dot(a, b) -> float:
    return sum(map(mul, a, b))


def _triangular_factor(cols):
    """The three columns of R, 3 x 3 (zero-padded below n rows), of a
    Householder QR of the n x 3 matrix with the given columns, whose
    largest entry is in [1/2, 1): R has the singular values of the matrix.
    A column whose reflector has v.v / 2 = 0 in floats, which takes a
    column below 2^-537, far under the rounding of the largest entry, is
    reduced to its norm and reflects no other column, as _singular_values
    leaves a column below 2^-55 alone."""
    cols = [list(c) for c in cols]
    for k in range(min(len(cols[0]), 3)):
        v = cols[k][k:]
        alpha = -math.copysign(math.hypot(*v), v[0])
        cols[k][k:] = [alpha, *(0.0 for _ in v[1:])]
        if not alpha:
            continue
        v[0] -= alpha
        vv = alpha * v[0]  # -(v.v) / 2
        if not vv:
            continue
        for c in cols[k + 1 :]:
            tail = c[k:]
            s = _dot(v, tail) / vv
            c[k:] = [x + s * y for x, y in zip(tail, v)]
    pad = [0.0] * (3 - len(cols[0][:3]))
    return [(*c[:3], *pad) for c in cols]


def _singular_values(cols) -> list[float]:
    """Singular values, descending, of the 3 x 3 matrix with the given
    columns and a largest entry in [1/2, 1), by cyclic one-sided Jacobi
    (Hestenes): plane rotations of column pairs until every pair is
    orthogonal to working precision; the singular values are then the
    column norms.  A column shorter than 2^-55, below the rounding of the
    largest entry, is left alone.  Accurate to a few ulps of the largest,
    unlike the square roots of the eigenvalues of the Gram matrix, which
    lose half the digits of the small ones."""
    cols = list(cols)
    for _ in range(30):
        rotated = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            (x0, x1, x2), (y0, y1, y2) = cols[i], cols[j]
            alpha, beta = x0 * x0 + x1 * x1 + x2 * x2, y0 * y0 + y1 * y1 + y2 * y2
            gamma = x0 * y0 + x1 * y1 + x2 * y2
            if min(alpha, beta) < 2.0**-110 or abs(gamma) <= 2.0**-53 * math.sqrt(alpha * beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2 * gamma)
            t = math.copysign(1.0 / (abs(zeta) + math.hypot(1.0, zeta)), zeta)
            c = 1.0 / math.hypot(1.0, t)
            s = c * t
            cols[i] = (c * x0 - s * y0, c * x1 - s * y1, c * x2 - s * y2)
            cols[j] = (s * x0 + c * y0, s * x1 + c * y1, s * x2 + c * y2)
        if not rotated:
            break
    return sorted((math.hypot(*c) for c in cols), reverse=True)


def _jacobi_eigh(matrix):
    """Eigenvalues and eigenvectors (the columns of n rows) of a symmetric
    n x n float matrix by cyclic Jacobi (Rutishauser, Numer. Math. 9, 1
    (1966)): rotations annihilate each off-diagonal entry in row order until
    each is zero or negligible beside both diagonal entries it couples.  A
    zero entry is never rotated, so the eigenvectors of a matrix that splits
    into blocks stay inside their blocks.  Eigenvalues are accurate to a few
    ulps of the largest."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    v = [[float(i == k) for k in range(n)] for i in range(n)]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for _ in range(50):
        if not any(a[p][q] for p, q in pairs):
            break
        for p, q in pairs:
            ap, aq = a[p], a[q]
            apq = ap[q]
            g = 100.0 * abs(apq)
            if abs(ap[p]) + g == abs(ap[p]) and abs(aq[q]) + g == abs(aq[q]):
                ap[q] = aq[p] = 0.0
                continue
            theta = (aq[q] - ap[p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            ap[p] -= t * apq
            aq[q] += t * apq
            ap[q] = aq[p] = 0.0
            for r, ar in enumerate(a):
                if r != p and r != q:
                    arp, arq = ar[p], ar[q]
                    ar[p] = ap[r] = c * arp - s * arq
                    ar[q] = aq[r] = s * arp + c * arq
            for row in v:
                vp, vq = row[p], row[q]
                row[p], row[q] = c * vp - s * vq, s * vp + c * vq
    else:
        raise ArithmeticError("the Jacobi sweeps did not converge")
    return [a[k][k] for k in range(n)], v


def characteristic_rank(relatives, eps_rel: float) -> int:
    """Rank of span{r_i - r_j}, computed from the singular values of the
    relatives matrix (equivalent because the weighted centroid vanishes).

    Singular values below eps_rel * sigma_max count as zero.  The matrix
    is scaled by a power of two, exactly, to a largest entry in [1/2, 1),
    reduced to its triangular factor (_triangular_factor), and that
    factor's singular values taken by one-sided Jacobi (_singular_values).
    Every entry must be finite; the rank is then 0 for the zero matrix
    only, since a nonzero one scales to sigma_max >= 1/2.
    """
    e = -math.frexp(max(abs(x) for row in relatives for x in row))[1]
    sv = _singular_values(_triangular_factor([math.ldexp(x, e) for x in col] for col in zip(*relatives)))
    return sum(1 for s in sv if s > eps_rel * sv[0])


def canonicalize(
    system: ParticleSystem, tol: Tolerances = DEFAULT_TOLERANCES
) -> RigidConfiguration:
    """Move to the center-of-mass frame and classify the body.

    Returns a RigidConfiguration with center = sum_i mu_i e_i and
    r_i = e_i - center.  Raises AllCoincidentError when every position
    equals the first (no rotational degrees of freedom; a test free of any
    length scale), and OutOfRangeError when a relative coordinate is not a
    finite float or tol.rel is not below 1.  Past these, a relative
    coordinate is finite and nonzero and sigma_max > tol.rel * sigma_max,
    so the rank is at least 1.
    """
    first, *others = system.positions
    if all(e == first for e in others):
        raise AllCoincidentError("all particles coincide with the center of mass")
    mu = system.weights
    center = tuple(_dot(mu, col) for col in zip(*system.positions))
    cx, cy, cz = center
    rel = tuple((x - cx, y - cy, z - cz) for x, y, z in system.positions)
    if not all(math.isfinite(x) for row in rel for x in row):
        raise OutOfRangeError("particles: a relative position is not a finite float (positions too far apart or not finite)")
    if not tol.rel < 1:
        raise OutOfRangeError(f"tolerances.rel must be below 1, got {tol.rel!r}")
    c_rot = characteristic_rank(rel, tol.rel)
    return RigidConfiguration(
        center=center,
        relatives=rel,
        masses=system.masses,
        characteristic=c_rot,
        degeneracy=DegeneracyClass(c_rot),
    )

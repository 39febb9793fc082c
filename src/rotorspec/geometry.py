"""Particle data, center-of-mass frame, and the kinematics of rigid rotation.

The multi-particle velocity space splits orthogonally (with respect to the
mass-weighted metric) into a center-of-mass part and a relative part; on the
rigid constraint surface the relative part is parameterized by an angular
velocity through v_i = omega x r_i.  This module provides the canonical
center-of-mass configuration, the degeneracy classification of the body,
and the splitting / angular-velocity maps, all on floats and tuples in pure
Python, and the cross product and cyclic Jacobi eigensolver the package
shares.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import mul
from typing import NamedTuple

from .defaults import DEFAULT_TOLERANCES, Tolerances
from .errors import AllCoincidentError, NonPositiveMassError, NotRigidVelocityError


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
    fixes the degeneracy class; distances, the symmetric matrix of mutual
    lengths, is computed on each read.
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

    @property
    def distances(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(math.dist(a, b) for b in self.relatives) for a in self.relatives)


class SplitVector(NamedTuple):
    """Result of the velocity splitting: v_i = v_cen + v_rel,i exactly."""

    center: tuple[float, float, float]
    relative: tuple[tuple[float, float, float], ...]


class SplitCovector(NamedTuple):
    """Result of the covector splitting: alpha_cen = sum_i alpha_i."""

    center: tuple[float, float, float]
    relative: tuple[tuple[float, float, float], ...]


def _dot(a, b) -> float:
    return sum(map(mul, a, b))


def _cross(a, b) -> tuple[float, float, float]:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _triangular_factor(cols):
    """The three columns of R, 3 x 3 (zero-padded below n rows), of a
    Householder QR of the n x 3 matrix with the given columns: R has the
    singular values of the matrix."""
    cols = [list(c) for c in cols]
    for k in range(min(len(cols[0]), 3)):
        v = cols[k][k:]
        alpha = -math.copysign(math.hypot(*v), v[0])
        cols[k][k:] = [alpha, *(0.0 for _ in v[1:])]
        if not alpha:
            continue
        v[0] -= alpha
        vv = alpha * v[0]  # -(v.v) / 2
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
    """
    top = max(abs(x) for row in relatives for x in row)
    if not top:
        return 0
    e = -math.frexp(top)[1]
    sv = _singular_values(_triangular_factor([math.ldexp(x, e) for x in col] for col in zip(*relatives)))
    return sum(1 for s in sv if s > eps_rel * sv[0])


def canonicalize(
    system: ParticleSystem, tol: Tolerances = DEFAULT_TOLERANCES
) -> RigidConfiguration:
    """Move to the center-of-mass frame and classify the body.

    Returns a RigidConfiguration with center = sum_i mu_i e_i and
    r_i = e_i - center.  Raises AllCoincidentError when every particle sits
    at one point (no rotational degrees of freedom): every position equals
    the first, or the relatives have rank 0.  Both tests are free of any
    length scale.
    """
    first, *others = system.positions
    if all(e == first for e in others):
        raise AllCoincidentError("all particles coincide with the center of mass")
    mu = system.weights
    center = tuple(_dot(mu, col) for col in zip(*system.positions))
    cx, cy, cz = center
    rel = tuple((x - cx, y - cy, z - cz) for x, y, z in system.positions)
    c_rot = characteristic_rank(rel, tol.rel)
    if c_rot == 0:
        raise AllCoincidentError("all particles coincide with the center of mass")
    return RigidConfiguration(
        center=center,
        relatives=rel,
        masses=system.masses,
        characteristic=c_rot,
        degeneracy=DegeneracyClass(c_rot),
    )


def split_velocity(config: RigidConfiguration, velocities) -> SplitVector:
    """Split one velocity 3-vector per particle into center + relative parts.

    v_cen = sum_i mu_i v_i and v_rel,i = v_i - v_cen, so the relative parts
    have vanishing weighted sum and the two parts are orthogonal under the
    mass-weighted metric.
    """
    v = _rows(velocities, config.n, "velocity")
    v_cen = tuple(_dot(config.weights, col) for col in zip(*v))
    return SplitVector(center=v_cen, relative=tuple(tuple(x - c for x, c in zip(row, v_cen)) for row in v))


def recombine(split: SplitVector) -> tuple[tuple[float, float, float], ...]:
    """Inverse of split_velocity: v_i = v_cen + v_rel,i."""
    return tuple(tuple(x + c for x, c in zip(row, split.center)) for row in split.relative)


def split_covector(config: RigidConfiguration, covectors) -> SplitCovector:
    """Split one covector per particle into (sum_i a_i, a_i - mu_i sum_j
    a_j); the relative parts sum to zero (unweighted)."""
    a = _rows(covectors, config.n, "covector")
    total = tuple(map(sum, zip(*a)))
    relative = tuple(tuple(x - m * t for x, t in zip(row, total)) for m, row in zip(config.weights, a))
    return SplitCovector(center=total, relative=relative)


def weighted_inner(config: RigidConfiguration, u, v) -> float:
    """Mass-weighted inner product sum_i mu_i u_i . v_i of two velocity lists."""
    u, v = _rows(u, config.n, "velocity"), _rows(v, config.n, "velocity")
    return sum(m * _dot(a, b) for m, a, b in zip(config.weights, u, v))


def velocities_from_angular(config: RigidConfiguration, omega) -> tuple[tuple[float, float, float], ...]:
    """Relative velocities omega x r_i of a rigid rotation with angular
    velocity omega."""
    omega = _floats(omega)
    return tuple(_cross(omega, r) for r in config.relatives)


def _rotation_metric(rs):
    """sum_i (|r_i|^2 Id - r_i r_i^T); each diagonal entry sums the squares
    of the other two coordinates (r[a - 1], r[a - 2]), free of cancellation."""
    return [[sum(r[a - 1] ** 2 + r[a - 2] ** 2 if a == b else -r[a] * r[b] for r in rs) for b in range(3)] for a in range(3)]


def angular_velocity(
    config: RigidConfiguration, relative_velocities, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, float, float]:
    """Invert v_i = omega x r_i for omega.

    Solves the normal equations M omega = sum_i r_i x v_i of the stacked
    cross-product system, M = sum_i (|r_i|^2 Id - r_i r_i^T), by the
    eigenpairs of M (_jacobi_eigh) in the frame of M's eigenvectors, where
    the small eigenvalue of a thin body is a sum of squares, not a
    cancellation; the residual must be below tol.rel * |v| + tol.abs.  For
    a degenerate (collinear) body omega is defined up to the body axis,
    the eigenvector of M's smallest eigenvalue; dropping that eigenpair
    gives the minimum-norm representative, orthogonal to the axis.
    """
    v = _rows(relative_velocities, config.n, "velocity")
    frame = list(zip(*_jacobi_eigh(_rotation_metric(config.relatives))[1]))
    rs, vs = ([tuple(_dot(f, x) for f in frame) for x in xs] for xs in (config.relatives, v))
    vals, vecs = _jacobi_eigh(_rotation_metric(rs))
    rhs = tuple(map(sum, zip(*map(_cross, rs, vs))))
    pairs = sorted(zip(vals, zip(*vecs)))[1 if config.degeneracy.is_degenerate else 0 :]
    local = [sum(_dot(e, rhs) / val * e[a] for val, e in pairs) for a in range(3)]
    omega = tuple(_dot(local, col) for col in zip(*frame))
    residual = math.hypot(*(x - y for r, row in zip(config.relatives, v) for x, y in zip(_cross(omega, r), row)))
    vnorm = math.hypot(*(x for row in v for x in row))
    if residual > tol.rel * vnorm + tol.abs:
        raise NotRigidVelocityError(
            f"velocities are not a rigid rotation (residual {residual:.3e}, |v| {vnorm:.3e})"
        )
    return omega

"""Particle data, center-of-mass frame, and the kinematics of rigid rotation.

The multi-particle velocity space splits orthogonally (with respect to the
mass-weighted metric) into a center-of-mass part and a relative part; on the
rigid constraint surface the relative part is parameterized by an angular
velocity through v_i = omega x r_i.  This module provides the canonical
center-of-mass configuration, the degeneracy classification of the body,
and the splitting / angular-velocity maps.  The configuration is floats and
tuples in pure Python; only the splitting and angular-velocity maps, which
take and return arrays, import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING

from .defaults import DEFAULT_TOLERANCES, Tolerances
from .errors import AllCoincidentError, NonPositiveMassError, NotRigidVelocityError

if TYPE_CHECKING:  # numpy is imported where arrays are built
    import numpy as np


class DegeneracyClass(Enum):
    """Rank class of the span of pairwise position differences."""

    DEGENERATE = 1  # collinear body, configuration manifold is S^2
    WEAKLY_NONDEGENERATE = 2  # planar body, SO(3)
    STRONGLY_NONDEGENERATE = 3  # full 3-d body, SO(3)

    @property
    def is_degenerate(self) -> bool:
        return self is DegeneracyClass.DEGENERATE


def _as_matrix(rows, dim=3) -> np.ndarray:
    """rows as an (n, dim) float array; numpy is imported here, by the
    velocity and covector helpers only."""
    import numpy as np

    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"expected an (n, {dim}) array, got shape {a.shape}")
    return a


def _floats(values) -> tuple[float, ...]:
    try:
        return tuple(map(float, values))
    except TypeError as exc:
        raise ValueError("expected a list of numbers") from exc


@dataclass(frozen=True)
class ParticleSystem:
    """Raw input: n >= 2 particles with masses, charges and absolute positions.

    masses are in mass units (strictly positive), charges in charge units,
    positions in length units.  Any sequences are accepted and stored as
    tuples of floats, positions as n rows (x, y, z).
    """

    masses: tuple[float, ...]
    charges: tuple[float, ...]
    positions: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "masses", _floats(self.masses))
        object.__setattr__(self, "charges", _floats(self.charges))
        try:
            positions = tuple([(float(x), float(y), float(z)) for x, y, z in self.positions])
        except (TypeError, ValueError) as exc:
            raise ValueError("expected an (n, 3) array of positions") from exc
        object.__setattr__(self, "positions", positions)
        n = len(self.masses)
        if n < 2:
            raise ValueError("a rigid body needs at least 2 particles")
        if len(self.charges) != n or len(positions) != n:
            raise ValueError("masses, charges and positions must agree in length")
        if any(m <= 0.0 for m in self.masses):
            raise NonPositiveMassError("all masses must be strictly positive")

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


@dataclass(frozen=True)
class RigidConfiguration:
    """Center-of-mass frame configuration of a rigid body.

    relatives r_i (rows (x, y, z)) satisfy sum_i mu_i r_i = 0;
    characteristic is the rank of the span of pairwise differences and
    fixes the degeneracy class; distances, the symmetric matrix of mutual
    lengths, is computed on first read.
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

    @cached_property
    def distances(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(math.dist(a, b) for b in self.relatives) for a in self.relatives)


@dataclass(frozen=True)
class SplitVector:
    """Result of the velocity splitting: v_i = v_cen + v_rel,i exactly."""

    center: np.ndarray
    relative: np.ndarray


@dataclass(frozen=True)
class SplitCovector:
    """Result of the covector splitting: alpha_cen = sum_i alpha_i."""

    center: np.ndarray
    relative: np.ndarray


def _dot(a, b) -> float:
    return sum(map(mul, a, b))


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
    at the center (no rotational degrees of freedom).
    """
    mu = system.weights
    center = tuple(_dot(mu, col) for col in zip(*system.positions))
    cx, cy, cz = center
    rel = tuple((x - cx, y - cy, z - cz) for x, y, z in system.positions)
    if all(math.hypot(*r) <= tol.abs for r in rel):
        raise AllCoincidentError("all particles coincide with the center of mass")
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
    import numpy as np

    v = _as_matrix(velocities)
    if v.shape[0] != config.n:
        raise ValueError("one velocity per particle required")
    v_cen = np.asarray(config.weights) @ v
    return SplitVector(center=v_cen, relative=v - v_cen)


def recombine(split: SplitVector) -> np.ndarray:
    """Inverse of split_velocity: v_i = v_cen + v_rel,i."""
    return split.relative + split.center


def split_covector(config: RigidConfiguration, covectors) -> SplitCovector:
    """Split one covector per particle: (sum_i a_i, a_i - mu_i sum_j a_j).

    The relative parts sum to zero (unweighted).
    """
    a = _as_matrix(covectors)
    if a.shape[0] != config.n:
        raise ValueError("one covector per particle required")
    import numpy as np

    total = a.sum(axis=0)
    return SplitCovector(center=total, relative=a - np.outer(config.weights, total))


def weighted_inner(config: RigidConfiguration, u, v) -> float:
    """Mass-weighted inner product sum_i mu_i u_i . v_i of two velocity lists."""
    import numpy as np

    u = _as_matrix(u)
    v = _as_matrix(v)
    return float(np.einsum("i,ij,ij->", config.weights, u, v))


def velocities_from_angular(config: RigidConfiguration, omega) -> np.ndarray:
    """Relative velocities omega x r_i of a rigid rotation with angular
    velocity omega."""
    import numpy as np

    omega = np.asarray(omega, dtype=float)
    return np.cross(omega, config.relatives)


def angular_velocity(
    config: RigidConfiguration, relative_velocities, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Invert v_i = omega x r_i for omega.

    Solves the stacked cross-product system in the least-squares sense and
    accepts the solution only if the residual is below tol.rel * |v|.  For a
    degenerate (collinear) body the angular velocity is only defined up to
    the body axis; the minimum-norm solution returned here is the unique
    representative orthogonal to that axis.
    """
    v = _as_matrix(relative_velocities)
    if v.shape[0] != config.n:
        raise ValueError("one velocity per particle required")
    import numpy as np

    # omega x r = -skew(r) omega, stacked over particles
    r = _as_matrix(config.relatives)
    blocks = np.zeros((config.n, 3, 3))
    blocks[:, 0, 1] = r[:, 2]
    blocks[:, 0, 2] = -r[:, 1]
    blocks[:, 1, 0] = -r[:, 2]
    blocks[:, 1, 2] = r[:, 0]
    blocks[:, 2, 0] = r[:, 1]
    blocks[:, 2, 1] = -r[:, 0]
    a = blocks.reshape(3 * config.n, 3)
    b = v.reshape(3 * config.n)
    omega, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.linalg.norm(a @ omega - b)
    vnorm = np.linalg.norm(b)
    if residual > tol.rel * vnorm + tol.abs:
        raise NotRigidVelocityError(
            f"velocities are not a rigid rotation (residual {residual:.3e}, |v| {vnorm:.3e})"
        )
    return omega

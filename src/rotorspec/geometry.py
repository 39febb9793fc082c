"""Particle data, center-of-mass frame, and the kinematics of rigid rotation.

The multi-particle velocity space splits orthogonally (with respect to the
mass-weighted metric) into a center-of-mass part and a relative part; on the
rigid constraint surface the relative part is parameterized by an angular
velocity through v_i = omega x r_i.  This module provides the canonical
center-of-mass configuration, the degeneracy classification of the body,
and the splitting / angular-velocity maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

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


def _as_matrix(rows, dim=3) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"expected an (n, {dim}) array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ParticleSystem:
    """Raw input: n >= 2 particles with masses, charges and absolute positions.

    masses are in mass units (strictly positive), charges in charge units,
    positions in length units.
    """

    masses: np.ndarray
    charges: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        object.__setattr__(self, "charges", np.asarray(self.charges, dtype=float))
        object.__setattr__(self, "positions", _as_matrix(self.positions))
        n = self.masses.shape[0]
        if n < 2:
            raise ValueError("a rigid body needs at least 2 particles")
        if self.charges.shape != (n,) or self.positions.shape != (n, 3):
            raise ValueError("masses, charges and positions must agree in length")
        if np.any(self.masses <= 0.0):
            raise NonPositiveMassError("all masses must be strictly positive")

    @property
    def n(self) -> int:
        return self.masses.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def weights(self) -> np.ndarray:
        """Mass fractions mu_i = m_i / m; they sum to 1."""
        return self.masses / self.total_mass


@dataclass(frozen=True)
class RigidConfiguration:
    """Center-of-mass frame configuration of a rigid body.

    relatives r_i satisfy sum_i mu_i r_i = 0; distances is the symmetric
    matrix of mutual lengths; characteristic is the rank of the span of
    pairwise differences and fixes the degeneracy class.
    """

    center: np.ndarray
    relatives: np.ndarray
    masses: np.ndarray
    distances: np.ndarray
    characteristic: int
    degeneracy: DegeneracyClass

    @property
    def n(self) -> int:
        return self.relatives.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def weights(self) -> np.ndarray:
        return self.masses / self.total_mass


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


def characteristic_rank(relatives: np.ndarray, eps_rel: float) -> int:
    """Rank of span{r_i - r_j}, computed from singular values of the
    relatives matrix (equivalent because the weighted centroid vanishes).

    Singular values below eps_rel * sigma_max count as zero.
    """
    sv = np.linalg.svd(np.asarray(relatives, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > eps_rel * sv[0]))


def canonicalize(
    system: ParticleSystem, tol: Tolerances = DEFAULT_TOLERANCES
) -> RigidConfiguration:
    """Move to the center-of-mass frame and classify the body.

    Returns a RigidConfiguration with center = sum_i mu_i e_i and
    r_i = e_i - center.  Raises AllCoincidentError when every particle sits
    at the center (no rotational degrees of freedom).
    """
    mu = system.weights
    center = mu @ system.positions
    rel = system.positions - center
    if np.all(np.linalg.norm(rel, axis=1) <= tol.abs):
        raise AllCoincidentError("all particles coincide with the center of mass")
    c_rot = characteristic_rank(rel, tol.rel)
    if c_rot == 0:
        raise AllCoincidentError("all particles coincide with the center of mass")
    diffs = rel[:, None, :] - rel[None, :, :]
    distances = np.linalg.norm(diffs, axis=2)
    return RigidConfiguration(
        center=center,
        relatives=rel,
        masses=system.masses.copy(),
        distances=distances,
        characteristic=c_rot,
        degeneracy=DegeneracyClass(c_rot),
    )


def classify(config: RigidConfiguration) -> DegeneracyClass:
    """Degeneracy class of a configuration (Degenerate iff c_rot = 1)."""
    return config.degeneracy


def split_velocity(config: RigidConfiguration, velocities) -> SplitVector:
    """Split one velocity 3-vector per particle into center + relative parts.

    v_cen = sum_i mu_i v_i and v_rel,i = v_i - v_cen, so the relative parts
    have vanishing weighted sum and the two parts are orthogonal under the
    mass-weighted metric.
    """
    v = _as_matrix(velocities)
    if v.shape[0] != config.n:
        raise ValueError("one velocity per particle required")
    v_cen = config.weights @ v
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
    total = a.sum(axis=0)
    return SplitCovector(center=total, relative=a - np.outer(config.weights, total))


def weighted_inner(config: RigidConfiguration, u, v) -> float:
    """Mass-weighted inner product sum_i mu_i u_i . v_i of two velocity lists."""
    u = _as_matrix(u)
    v = _as_matrix(v)
    return float(np.einsum("i,ij,ij->", config.weights, u, v))


def velocities_from_angular(config: RigidConfiguration, omega) -> np.ndarray:
    """Relative velocities omega x r_i of a rigid rotation with angular
    velocity omega."""
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
    # omega x r = -skew(r) omega, stacked over particles
    r = config.relatives
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

"""Splitting of a pattern electromagnetic field on the rigid body.

The charge-weighted pullback of the pattern field to the rigid
configuration space decomposes into a center-of-mass component, a
rotational component and a mixed component.  Each component is evaluated
here on explicit tangent data: center 3-vectors with their observer time
components, and angular vectors for the rotational parts (the tangent
vector at particle i is v_cen + omega x r_i).

A single 2-form evaluation convention is used throughout, matching the
observed splitting F = -2 dt ^ E + 2 * (i_B eta):

    F(e; v, w) = -2 (v0 E(e).w - w0 E(e).v) + 2 B(e).(v x w).

The classical momentum map of the rotational action lives here too.  This
is the one module of the em-split path that needs numpy; the package
imports it on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .defaults import DEFAULT_TOLERANCES, Tolerances
from .geometry import ParticleSystem, RigidConfiguration

Vec3Field = Callable[[np.ndarray], np.ndarray]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross(a, b) of two 3-vectors, bit for bit: the same products and
    differences a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0 in float64,
    without the axis handling that dominates np.cross on one pair."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


@dataclass(frozen=True)
class PatternField:
    """Observed electric and magnetic fields as maps from position to
    3-vectors, with flags used by the decoupling criterion."""

    electric: Vec3Field
    magnetic: Vec3Field
    constant: bool = False
    spacelike_affine: bool = False
    is_zero: bool = False

    @staticmethod
    def uniform(e_vec, b_vec) -> "PatternField":
        e = np.asarray(e_vec, dtype=float)
        b = np.asarray(b_vec, dtype=float)
        zero = not (np.any(e) or np.any(b))
        return PatternField(
            electric=lambda _pos: e,
            magnetic=lambda _pos: b,
            constant=True,
            spacelike_affine=True,
            is_zero=zero,
        )

    @staticmethod
    def zero() -> "PatternField":
        return PatternField.uniform((0, 0, 0), (0, 0, 0))

    def evaluate(self, position, v4, w4) -> float:
        """F(e; v, w) on two 4-vectors (v0, v_vec), (w0, w_vec)."""
        v0, v = v4
        w0, w = w4
        e_val = np.asarray(self.electric(np.asarray(position, dtype=float)), dtype=float)
        b_val = np.asarray(self.magnetic(np.asarray(position, dtype=float)), dtype=float)
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        return float(
            -2.0 * (v0 * e_val.dot(w) - w0 * e_val.dot(v)) + 2.0 * b_val.dot(_cross(v, w))
        )


@dataclass(frozen=True)
class SplitFieldValue:
    """The three component evaluations; they sum to the unsplit pullback."""

    cen: float
    rot: float
    mixed: float

    @property
    def total(self) -> float:
        return self.cen + self.rot + self.mixed


def split_field(
    system: ParticleSystem,
    config: RigidConfiguration,
    fld: PatternField,
    v: tuple,
    w: tuple,
    v0: float = 0.0,
    w0: float = 0.0,
) -> SplitFieldValue:
    """Evaluate the split pullback of the field on two rigid tangent vectors.

    v = (v_cen, omega) and w = (w_cen, psi); v0, w0 are the observer time
    components of the center parts.  Component formulas:

        cen   = sum_i (q_i/m) F(e_i; v_cen, w_cen)
        rot   = sum_i (q_i/m) F(e_i; omega x r_i, psi x r_i)
              = sum_i (q_i/m) 2 (B(e_i).r_i) ((omega x psi).r_i)
        mixed = sum_i (q_i/m) [F(e_i; v_cen, psi x r_i) + F(e_i; omega x r_i, w_cen)]

    Every cross product of two 3-vectors here and in PatternField.evaluate
    is _cross, which gives np.cross's bits at a fraction of its cost.
    """
    v_cen, omega = (np.asarray(x, dtype=float) for x in v)
    w_cen, psi = (np.asarray(x, dtype=float) for x in w)
    m = system.total_mass
    center = np.asarray(config.center)
    cen = rot = mixed = 0.0
    for qi, ri in zip(system.charges, np.asarray(config.relatives)):
        pos = center + ri
        weight = qi / m
        v_rot = _cross(omega, ri)
        w_rot = _cross(psi, ri)
        cen += weight * fld.evaluate(pos, (v0, v_cen), (w0, w_cen))
        rot += weight * fld.evaluate(pos, (0.0, v_rot), (0.0, w_rot))
        mixed += weight * (
            fld.evaluate(pos, (v0, v_cen), (0.0, w_rot))
            + fld.evaluate(pos, (0.0, v_rot), (w0, w_cen))
        )
    return SplitFieldValue(cen=cen, rot=rot, mixed=mixed)


def unsplit_field(
    system: ParticleSystem,
    config: RigidConfiguration,
    fld: PatternField,
    v: tuple,
    w: tuple,
    v0: float = 0.0,
    w0: float = 0.0,
) -> float:
    """The unsplit pullback sum_i (q_i/m) F(e_i; v_i, w_i) with the full
    tangent vectors v_i = v_cen + omega x r_i; equals SplitFieldValue.total."""
    v_cen, omega = (np.asarray(x, dtype=float) for x in v)
    w_cen, psi = (np.asarray(x, dtype=float) for x in w)
    m = system.total_mass
    center = np.asarray(config.center)
    out = 0.0
    for qi, ri in zip(system.charges, np.asarray(config.relatives)):
        pos = center + ri
        vi = v_cen + _cross(omega, ri)
        wi = w_cen + _cross(psi, ri)
        out += (qi / m) * fld.evaluate(pos, (v0, vi), (w0, wi))
    return out


def decoupling_check(
    system: ParticleSystem,
    fld: PatternField,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[bool, str]:
    """Whether the mixed component vanishes identically.

    True for a zero field, or when the charges are proportional to the
    masses and the field is spacelikely affine.  The report names the first
    failing criterion.
    """
    if fld.is_zero:
        return True, "field vanishes; splitting is trivially decoupled"
    ratios = [q / m for q, m in zip(system.charges, system.masses)]
    spread = max(ratios) - min(ratios)
    scale = max(map(abs, ratios))
    proportional = spread <= tol.rel * max(scale, 1.0)
    if not proportional:
        return False, (
            "charges are not proportional to masses "
            f"(charge/mass ratios spread {spread:.3e})"
        )
    if not fld.spacelike_affine:
        return False, "field is not spacelikely affine"
    return True, "charges proportional to masses and field spacelikely affine"


def split_potential(
    system: ParticleSystem, config: RigidConfiguration, potentials
) -> tuple[np.ndarray, np.ndarray]:
    """Split per-particle spacelike potential covectors A_i.

    Returns (a_cen, a_rot): a_cen pairs with the center velocity,
    a_cen = sum_i (q_i/m) A_i; a_rot pairs with the angular velocity,
    a_rot = sum_i (q_i/m) r_i x A_i  (so a_rot . omega = sum_i (q_i/m)
    A_i . (omega x r_i)).  Their sum reproduces the full pullback on any
    rigid tangent vector.
    """
    a = np.asarray(potentials, dtype=float)
    if a.shape != (system.n, 3):
        raise ValueError("one covector per particle required")
    m = system.total_mass
    weights = np.asarray(system.charges) / m
    a_cen = np.einsum("i,ij->j", weights, a)
    a_rot = np.einsum("i,ij->j", weights, np.cross(config.relatives, a))
    return a_cen, a_rot


def classical_momentum_map(omega, config: RigidConfiguration, velocities, hbar0=1):
    """Momentum map J(omega) of the rotational SO(3) action on a rigid
    velocity list: the rescaled metric pairing of the generator field with
    the velocity,

        J(omega) = (1 / hbar0) sum_i m_i (omega x r_i) . v_i,

    i.e. the classical angular momentum about the center of mass contracted
    with omega.
    """
    omega = np.asarray(omega, dtype=float)
    v = np.asarray(velocities, dtype=float)
    gen = np.cross(omega, config.relatives)
    return float(np.einsum("i,ij,ij->", config.masses, gen, v)) / float(hbar0)

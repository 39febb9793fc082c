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

The classical momentum map of the rotational action lives here too.
Vectors are tuples of floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .defaults import DEFAULT_TOLERANCES, Tolerances
from .geometry import ParticleSystem, RigidConfiguration, _cross, _dot, _floats, _rows

Vec3 = tuple[float, float, float]
Vec3Field = Callable[[Vec3], Vec3]


def _add(a, b) -> Vec3:
    return tuple(x + y for x, y in zip(a, b))


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
        e, b = _floats(e_vec), _floats(b_vec)
        zero = not (any(e) or any(b))
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
        e_val, b_val = self.electric(position), self.magnetic(position)
        return float(-2.0 * (v0 * _dot(e_val, w) - w0 * _dot(e_val, v)) + 2.0 * _dot(b_val, _cross(v, w)))


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
    """
    v_cen, omega = map(_floats, v)
    w_cen, psi = map(_floats, w)
    m = system.total_mass
    cen = rot = mixed = 0.0
    for qi, ri in zip(system.charges, config.relatives):
        pos = _add(config.center, ri)
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
    v_cen, omega = map(_floats, v)
    w_cen, psi = map(_floats, w)
    m = system.total_mass
    out = 0.0
    for qi, ri in zip(system.charges, config.relatives):
        vi = _add(v_cen, _cross(omega, ri))
        wi = _add(w_cen, _cross(psi, ri))
        out += (qi / m) * fld.evaluate(_add(config.center, ri), (v0, vi), (w0, wi))
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
) -> tuple[Vec3, Vec3]:
    """Split per-particle spacelike potential covectors A_i.

    Returns (a_cen, a_rot): a_cen pairs with the center velocity,
    a_cen = sum_i (q_i/m) A_i; a_rot pairs with the angular velocity,
    a_rot = sum_i (q_i/m) r_i x A_i  (so a_rot . omega = sum_i (q_i/m)
    A_i . (omega x r_i)).  Their sum reproduces the full pullback on any
    rigid tangent vector.
    """
    a = _rows(potentials, system.n, "covector")
    weights = [q / system.total_mass for q in system.charges]
    a_cen = tuple(_dot(weights, col) for col in zip(*a))
    a_rot = tuple(_dot(weights, col) for col in zip(*map(_cross, config.relatives, a)))
    return a_cen, a_rot


def classical_momentum_map(omega, config: RigidConfiguration, velocities, hbar0=1):
    """Momentum map J(omega) of the rotational SO(3) action on a rigid
    velocity list: the rescaled metric pairing of the generator field with
    the velocity,

        J(omega) = (1 / hbar0) sum_i m_i (omega x r_i) . v_i,

    i.e. the classical angular momentum about the center of mass contracted
    with omega.
    """
    omega = _floats(omega)
    v = _rows(velocities, config.n, "velocity")
    return sum(m * _dot(_cross(omega, r), vi) for m, r, vi in zip(config.masses, config.relatives, v)) / float(hbar0)

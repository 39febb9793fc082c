"""Rigid tangent data and the splitting of a pattern electromagnetic field.

The multi-particle velocity space splits orthogonally (under the
mass-weighted metric) into a center-of-mass part and a relative part; on
the rigid constraint surface the relative part is v_i = omega x r_i.  The
charge-weighted pullback of the pattern field to the rigid configuration
space decomposes into a center-of-mass, a rotational and a mixed
component, each evaluated here on explicit tangent data: center 3-vectors
with their observer time components, and angular vectors for the
rotational parts (the tangent vector at particle i is v_cen + omega x r_i).

A single 2-form evaluation convention is used throughout, matching the
observed splitting F = -2 dt ^ E + 2 * (i_B eta):

    F(e; v, w) = -2 (v0 E(e).w - w0 E(e).v) + 2 B(e).(v x w).

The velocity splitting, the angular-velocity map and the classical
momentum map of the rotational action live here too.  Vectors are tuples
of floats.  Every tolerance is relative, so no verdict depends on units.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .defaults import DEFAULT_TOLERANCES, Tolerances
from .errors import NotRigidVelocityError
from .geometry import ParticleSystem, RigidConfiguration, _dot, _floats, _jacobi_eigh, _rows

Vec3 = tuple[float, float, float]
Vec3Field = Callable[[Vec3], Vec3]


class SplitVector(NamedTuple):
    """Result of the velocity splitting: v_i = v_cen + v_rel,i exactly."""

    center: tuple[float, float, float]
    relative: tuple[tuple[float, float, float], ...]


class SplitCovector(NamedTuple):
    """Result of the covector splitting: alpha_cen = sum_i alpha_i."""

    center: tuple[float, float, float]
    relative: tuple[tuple[float, float, float], ...]


def _cross(a, b) -> tuple[float, float, float]:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _add(a, b) -> Vec3:
    return tuple(x + y for x, y in zip(a, b))


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
    cancellation; the residual must be at most tol.rel * |v|, whatever the
    units.  For a degenerate (collinear) body omega is defined up to the
    body axis, the eigenvector of M's smallest eigenvalue; dropping that
    eigenpair gives the minimum-norm representative, orthogonal to the axis.
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
    if residual > tol.rel * vnorm:
        raise NotRigidVelocityError(
            f"velocities are not a rigid rotation (residual {residual:.3e}, |v| {vnorm:.3e})"
        )
    return omega


class PatternField(NamedTuple):
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


class SplitFieldValue(NamedTuple):
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
    masses (their ratios spread by at most tol.rel times the largest
    |ratio|, whatever the units) and the field is spacelikely affine.  The
    report names the first failing criterion.
    """
    if fld.is_zero:
        return True, "field vanishes; splitting is trivially decoupled"
    ratios = [q / m for q, m in zip(system.charges, system.masses)]
    spread = max(ratios) - min(ratios)
    scale = max(map(abs, ratios))
    proportional = spread <= tol.rel * scale
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

"""Inertia tensor, principal momenta, top classification and scalar curvature.

The rotational configuration space carries a left-invariant metric whose
principal coefficients are the inertia momenta (divided by hbar0).  Its
scalar curvature admits closed forms per top class; an independent oracle
computes the same curvature from the structure constants of so(3) and is
used to pin down the labeling of the symmetric-case formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Number, Rational

from .defaults import DEFAULT_TOLERANCES, Tolerances
from .geometry import DegeneracyClass, RigidConfiguration


class TopClass(Enum):
    SPHERICAL = "spherical"
    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class InertiaTensor:
    """Symmetric positive-semidefinite 3x3 matrix in mass * length^2 units,
    as three rows of floats.

    M_ab = sum_i m_i (|r_i|^2 delta_ab - r_ia r_ib); trace = 2 sum_i m_i |r_i|^2.
    """

    matrix: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        m = tuple(tuple(map(float, row)) for row in self.matrix)
        if len(m) != 3 or any(len(row) != 3 for row in m):
            raise ValueError("inertia tensor must be 3x3")
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return self.matrix[0][0] + self.matrix[1][1] + self.matrix[2][2]


@dataclass(frozen=True)
class PrincipalMomenta:
    """Eigen-data of the inertia tensor.

    momenta are sorted ascending I1 <= I2 <= I3; axes (three rows) has the
    matching orthonormal eigenvectors as columns, oriented right-handedly.  For a
    symmetric top, axis_momentum is the distinct eigenvalue and
    pair_momentum the repeated one.  For a degenerate (collinear) body the
    sorted momenta are (0, I, I); transverse_momentum returns the repeated
    value I = sum_i m_i |r_i|^2.
    """

    momenta: tuple[float, float, float]
    axes: tuple[tuple[float, float, float], ...]
    top_class: TopClass
    pair_momentum: float | None = None
    axis_momentum: float | None = None

    @property
    def transverse_momentum(self) -> float:
        if self.top_class is not TopClass.DEGENERATE:
            raise ValueError("transverse momentum is defined for degenerate bodies")
        return self.momenta[2]


def inertia_tensor(config: RigidConfiguration) -> InertiaTensor:
    """Inertia tensor about the center of mass (equals m * sigma, with sigma
    the mass-fraction-weighted rotational metric).  Its diagonal entries
    are the sums of m_i (r_ib^2 + r_ic^2) over the other two axes b, c."""
    sxx = syy = szz = sxy = sxz = syz = 0.0
    for m, (x, y, z) in zip(config.masses, config.relatives):
        mx, my = m * x, m * y
        sxx += mx * x
        syy += my * y
        szz += m * z * z
        sxy += mx * y
        sxz += mx * z
        syz += my * z
    return InertiaTensor(((syy + szz, -sxy, -sxz), (-sxy, sxx + szz, -syz), (-sxz, -syz, sxx + syy)))


def classify_momenta(momenta, tol: Tolerances = DEFAULT_TOLERANCES):
    """Top class of a momentum triple given in any order, with the momenta
    of the matching closed form: (I,) for a spherical top, (pair, axis) for
    a symmetric one, None for an asymmetric one.

    The triple is sorted by value; two neighbours coincide when they differ
    by at most tol.rel times the largest momentum.  I is the middle value
    and the pair momentum the mean of the two coinciding values, both taken
    from the values as passed, so rational input (ints included) stays
    exact and the result does not depend on the order of the triple.  This
    is the one coincidence rule every classifier uses.  It compares floats;
    only when a momentum is a rational beyond the float range does it
    compare the exact values instead.
    """
    try:
        (i1, i2, i3), eq12, eq23 = _coincidences(momenta, tol.rel, float)
    except OverflowError:
        (i1, i2, i3), eq12, eq23 = _coincidences(momenta, tol.rel, Fraction)
    if eq12 and eq23:
        return TopClass.SPHERICAL, (i2,)
    if eq12:
        return TopClass.SYMMETRIC, (_pair_mean(i1, i2), i3)
    if eq23:
        return TopClass.SYMMETRIC, (_pair_mean(i2, i3), i1)
    return TopClass.ASYMMETRIC, None


def _coincidences(momenta, rel, num):
    """The triple sorted by num(value), and whether the lower and the upper
    pair of neighbours coincide, with every comparison made on num(value)."""
    i1, i2, i3 = sorted(momenta, key=num)
    gap = num(rel) * max(abs(num(i3)), 1e-300)
    return (i1, i2, i3), abs(num(i2) - num(i1)) <= gap, abs(num(i3) - num(i2)) <= gap


def _pair_mean(x, y):
    """(x + y) / 2, as a Fraction when both values are rational (the true
    division of two ints would give a float)."""
    if isinstance(x, Rational) and isinstance(y, Rational):
        return (Fraction(x) + Fraction(y)) / 2
    return (x + y) / 2


def classify_top(
    momenta: tuple[float, float, float],
    degeneracy: DegeneracyClass | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> TopClass:
    """Spherical / symmetric / asymmetric from coincidences among the
    momenta (see classify_momenta); a degenerate body overrides the
    eigenvalue pattern."""
    if degeneracy is not None and degeneracy.is_degenerate:
        return TopClass.DEGENERATE
    return classify_momenta(momenta, tol)[0]


def _jacobi_eigh(matrix):
    """Eigenvalues and eigenvectors (the columns of three rows) of a
    symmetric 3x3 float matrix, by the cyclic Jacobi method: plane
    rotations that annihilate each off-diagonal entry in turn, until every
    off-diagonal entry is zero or negligible beside both diagonal entries
    it couples (Rutishauser's test).  The eigenvalues are accurate to a
    few ulps of the largest."""
    a = [list(row) for row in matrix]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(50):
        if not (a[0][1] or a[0][2] or a[1][2]):
            break
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = a[p][q]
            g = 100.0 * abs(apq)
            if abs(a[p][p]) + g == abs(a[p][p]) and abs(a[q][q]) + g == abs(a[q][q]):
                a[p][q] = a[q][p] = 0.0
                continue
            theta = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            a[p][p] -= t * apq
            a[q][q] += t * apq
            a[p][q] = a[q][p] = 0.0
            arp, arq = a[r][p], a[r][q]
            a[r][p] = a[p][r] = c * arp - s * arq
            a[r][q] = a[q][r] = s * arp + c * arq
            for row in v:
                vp, vq = row[p], row[q]
                row[p], row[q] = c * vp - s * vq, s * vp + c * vq
    else:
        raise ArithmeticError("the Jacobi sweeps did not converge")
    return [a[k][k] for k in range(3)], v


def principal_momenta(
    tensor: InertiaTensor,
    degeneracy: DegeneracyClass | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PrincipalMomenta:
    """Diagonalize the inertia tensor (_jacobi_eigh) and classify the top.

    Eigenvalues are sorted ascending and the axes are re-oriented to a
    right-handed frame.  Tiny negative eigenvalues from roundoff are
    clamped to zero.  ValueError when an entry is not a finite float.
    """
    if not all(math.isfinite(x) for row in tensor.matrix for x in row):
        raise ValueError("the inertia tensor has an entry that is not a finite float")
    vals, vecs = _jacobi_eigh(tensor.matrix)
    order = sorted(range(3), key=vals.__getitem__)
    small = tol.rel * max(max(vals), 1e-300)
    momenta = tuple(max(vals[k], 0.0) if abs(vals[k]) <= small else vals[k] for k in order)
    axes = [[row[k] for k in order] for row in vecs]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = axes
    if a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0) < 0:
        for row in axes:
            row[2] = -row[2]
    if degeneracy is not None and degeneracy.is_degenerate:
        top, closed = TopClass.DEGENERATE, None
    else:
        top, closed = classify_momenta(momenta, tol)
    pair, axis = closed if top is TopClass.SYMMETRIC else (None, None)
    return PrincipalMomenta(
        momenta=momenta, axes=tuple(map(tuple, axes)), top_class=top, pair_momentum=pair, axis_momentum=axis
    )


# --- scalar curvature: closed forms ---------------------------------------
#
# The symmetric-case labeling (which momentum sits where) is fixed by
# requiring agreement with the structure-constant oracle below; it then
# coincides with the symmetric limit of the asymmetric formula.


def _exact_or_float(x):
    return Fraction(x) if isinstance(x, Rational) else float(x)


def check_positive(**values):
    """Raise ValueError naming the first value that is not a finite number
    > 0: the guard on the momenta and hbar0 of every spectrum entry point.
    Rationals are compared exactly, so one beyond the float range passes;
    NaN fails every comparison and is rejected."""
    for name, x in values.items():
        if not 0 < (x if isinstance(x, Rational) else float(x)) < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {x!r}")


def curvature_spherical(i_mom, hbar0=1):
    i_mom, hbar0 = _exact_or_float(i_mom), _exact_or_float(hbar0)
    return 3 * hbar0 / (2 * i_mom)


def curvature_symmetric(i_pair, i_axis, hbar0=1):
    i_pair, i_axis, hbar0 = map(_exact_or_float, (i_pair, i_axis, hbar0))
    return 2 * hbar0 / i_pair - hbar0 * i_axis / (2 * i_pair * i_pair)


def curvature_asymmetric(i1, i2, i3, hbar0=1):
    i1, i2, i3, hbar0 = map(_exact_or_float, (i1, i2, i3, hbar0))
    return (
        hbar0 / i1
        + hbar0 / i2
        + hbar0 / i3
        - hbar0 * (i1 * i1 + i2 * i2 + i3 * i3) / (2 * i1 * i2 * i3)
    )


def curvature_degenerate(i_mom, hbar0=1):
    i_mom, hbar0 = _exact_or_float(i_mom), _exact_or_float(hbar0)
    return 2 * hbar0 / i_mom


def scalar_curvature(top_class: TopClass, momenta, hbar0=1):
    """Scalar curvature of the rotational space for the given top class.

    momenta: a PrincipalMomenta, or a plain (I1, I2, I3) triple for the
    spherical/asymmetric branches, (I_pair, I_axis) for symmetric, or a
    single transverse momentum for the degenerate branch.
    """
    if top_class is TopClass.SPHERICAL:
        vals = momenta.momenta if isinstance(momenta, PrincipalMomenta) else momenta
        i_mom = vals if isinstance(vals, Number) else vals[0]
        return curvature_spherical(i_mom, hbar0)
    if top_class is TopClass.SYMMETRIC:
        if isinstance(momenta, PrincipalMomenta):
            pair, axis = momenta.pair_momentum, momenta.axis_momentum
        else:
            pair, axis = momenta
        return curvature_symmetric(pair, axis, hbar0)
    if top_class is TopClass.ASYMMETRIC:
        vals = momenta.momenta if isinstance(momenta, PrincipalMomenta) else momenta
        return curvature_asymmetric(*vals, hbar0)
    if top_class is TopClass.DEGENERATE:
        if isinstance(momenta, PrincipalMomenta):
            i_mom = momenta.transverse_momentum
        else:
            i_mom = momenta if isinstance(momenta, Number) else momenta[-1]
        return curvature_degenerate(i_mom, hbar0)
    raise ValueError(f"unknown top class {top_class}")


def scalar_curvature_oracle(i1: float, i2: float, i3: float, hbar0: float = 1.0) -> float:
    """Independent curvature computation for a left-invariant metric on SO(3).

    With an orthonormal frame e_a = X_a / sqrt(lambda_a) for the metric
    diag(lambda_a), lambda_a = I_a / hbar0, the structure constants are
    c_a = sqrt(lambda_a / (lambda_b lambda_c)) and the scalar curvature is

        rho = 2 (mu_1 mu_2 + mu_2 mu_3 + mu_3 mu_1),
        mu_a = (c_1 + c_2 + c_3) / 2 - c_a.

    This is the standard unimodular-group curvature formula; it validates
    (and where the closed-form labels are ambiguous, fixes) the formulas
    above.
    """
    lam = [i1 / hbar0, i2 / hbar0, i3 / hbar0]
    if min(lam) <= 0:
        raise ValueError("principal momenta must be positive")
    c = [
        math.sqrt(lam[0] / (lam[1] * lam[2])),
        math.sqrt(lam[1] / (lam[2] * lam[0])),
        math.sqrt(lam[2] / (lam[0] * lam[1])),
    ]
    half = 0.5 * sum(c)
    mu = [half - ci for ci in c]
    return 2.0 * (mu[0] * mu[1] + mu[1] * mu[2] + mu[2] * mu[0])

"""Inertia tensor, principal momenta, top classification and scalar curvature.

The rotational configuration space carries a left-invariant metric whose
principal coefficients are the inertia momenta (divided by hbar0).  Its
scalar curvature admits closed forms per top class; an independent oracle
computes the same curvature from the structure constants of so(3) and is
used to pin down the labeling of the symmetric-case formula.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import partial
from numbers import Rational
from typing import NamedTuple

from .defaults import DEFAULT_TOLERANCES, Tolerances
from .errors import OutOfRangeError
from .geometry import DegeneracyClass, RigidConfiguration, _jacobi_eigh


class TopClass(Enum):
    SPHERICAL = "spherical"
    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"
    DEGENERATE = "degenerate"


class InertiaTensor(NamedTuple("InertiaTensor", [("matrix", tuple)])):
    """Symmetric positive-semidefinite 3x3 matrix in mass * length^2 units,
    as three rows of finite floats (else OutOfRangeError); _replace checks too.

    M_ab = sum_i m_i (|r_i|^2 delta_ab - r_ia r_ib); trace = 2 sum_i m_i |r_i|^2.
    """

    __slots__ = ()

    def __new__(cls, matrix):
        m = tuple(tuple(map(float, row)) for row in matrix)
        if len(m) != 3 or any(len(row) != 3 for row in m):
            raise ValueError("inertia tensor must be 3x3")
        if not all(map(math.isfinite, m[0] + m[1] + m[2])):
            raise OutOfRangeError("particles: the inertia tensor leaves the float range (positions or masses too large)")
        return super().__new__(cls, m)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def trace(self) -> float:
        return self.matrix[0][0] + self.matrix[1][1] + self.matrix[2][2]


class PrincipalMomenta(NamedTuple):
    """Eigen-data of the inertia tensor.

    momenta are sorted ascending I1 <= I2 <= I3; axes (three rows) has the
    matching orthonormal eigenvectors as columns, oriented right-handedly.
    closed holds the momenta the closed form of the top class takes, the
    one decision every layer reads: (I,) for a spherical top, I the middle
    value, and (pair, axis) for a symmetric one, both from
    classify_momenta; the sorted triple for an asymmetric top; and (I,) for
    a degenerate (collinear) body, whose sorted momenta are (0, I, I) with
    I = sum_i m_i |r_i|^2.
    """

    momenta: tuple[float, float, float]
    axes: tuple[tuple[float, float, float], ...]
    top_class: TopClass
    closed: tuple


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
    by at most tol.rel times the largest momentum, with no absolute floor,
    so a change of units keeps the class.  I is the middle value and the
    pair momentum the mean of the two coinciding values, both taken
    from the values as passed, so rational input (ints included) stays
    exact and the result does not depend on the order of the triple.  This
    is the one coincidence rule every classifier uses.  It compares floats;
    only when a momentum is a rational beyond the float range does it
    compare the exact values instead.  OutOfRangeError where the pair mean
    of a float and such a rational leaves the float range.
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
    gap = num(rel) * abs(num(i3))
    return (i1, i2, i3), abs(num(i2) - num(i1)) <= gap, abs(num(i3) - num(i2)) <= gap


def _pair_mean(x, y):
    """(x + y) / 2 by _rounded_once: a Fraction when both are rational, and
    finite for finite floats, so a checked triple gets a finite pair
    momentum.  OutOfRangeError where a float meets a rational and their mean
    leaves the float range."""
    try:
        return _rounded_once(lambda x, y: (x + y) / 2, _exact_or_float(x), _exact_or_float(y))
    except OverflowError as exc:
        raise OutOfRangeError("the mean of two coinciding momenta leaves the float range") from exc


def principal_momenta(
    tensor: InertiaTensor,
    degeneracy: DegeneracyClass | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PrincipalMomenta:
    """Diagonalize the inertia tensor, whose entries are finite floats
    (InertiaTensor), by _jacobi_eigh and classify the top.  Eigenvalues are
    sorted ascending and the axes are re-oriented to a right-handed frame.
    Negative eigenvalues within tol.rel times the largest of zero
    (roundoff) are clamped to zero."""
    vals, vecs = _jacobi_eigh(tensor.matrix)
    order = sorted(range(3), key=vals.__getitem__)
    small = tol.rel * max(vals)
    momenta = tuple(max(vals[k], 0.0) if abs(vals[k]) <= small else vals[k] for k in order)
    axes = [[row[k] for k in order] for row in vecs]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = axes
    if a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0) < 0:
        for row in axes:
            row[2] = -row[2]
    if degeneracy is not None and degeneracy.is_degenerate:
        top, closed = TopClass.DEGENERATE, momenta[2:]
    else:
        top, closed = classify_momenta(momenta, tol)
    return PrincipalMomenta(momenta, tuple(map(tuple, axes)), top, closed or momenta)


# --- scalar curvature: closed forms ---------------------------------------
#
# The symmetric-case labeling (which momentum sits where) is fixed by
# requiring agreement with the structure-constant oracle below; it then
# coincides with the symmetric limit of the asymmetric formula.


def _exact_or_float(x):
    if type(x) is float:
        return x
    return Fraction(x) if isinstance(x, Rational) else float(x)


def _hbar(hbar0):
    """An int hbar0 as it is (it gives the values Fraction(hbar0) gives, and
    meets a float momentum without the Fraction operator fallback)."""
    return hbar0 if type(hbar0) is int else _exact_or_float(hbar0)


def check_positive(**values):
    """Raise OutOfRangeError naming the first value that is not a finite
    number > 0: the guard on the momenta and hbar0 of every spectrum entry
    point.  Rationals are compared exactly, so one beyond the float range
    passes; NaN fails every comparison and is rejected."""
    for name, x in values.items():
        if not 0 < (x if isinstance(x, Rational) else float(x)) < math.inf:
            raise OutOfRangeError(f"{name} must be finite and positive, got {x!r}")


def curvature_spherical(i_mom, hbar0=1):
    """3 hbar0 / (2 I), by _rounded_once."""
    return _rounded_once(_spherical, _exact_or_float(i_mom), _hbar(hbar0))


def _spherical(i_mom, hbar0):
    return 3 * hbar0 / (2 * i_mom)


def curvature_symmetric(i_pair, i_axis, hbar0=1):
    """2 hbar0 / I_pair - hbar0 I_axis / (2 I_pair^2), scale-free (_scale_free) by _rounded_once."""
    return _rounded_once(_SCALE_FREE_SYMMETRIC, _exact_or_float(i_pair), _exact_or_float(i_axis), _hbar(hbar0))


def _symmetric(i_pair, i_axis, hbar0):
    return 2 * hbar0 / i_pair - hbar0 * i_axis / (2 * i_pair * i_pair)


def curvature_asymmetric(i1, i2, i3, hbar0=1):
    """hbar0 (1/I1 + 1/I2 + 1/I3 - (I1^2 + I2^2 + I3^2) / (2 I1 I2 I3)), scale-free (_scale_free) by _rounded_once."""
    return _rounded_once(_SCALE_FREE_ASYMMETRIC, _exact_or_float(i1), _exact_or_float(i2), _exact_or_float(i3), _hbar(hbar0))


def _asymmetric(i1, i2, i3, hbar0):
    return hbar0 / i1 + hbar0 / i2 + hbar0 / i3 - hbar0 * (i1 * i1 + i2 * i2 + i3 * i3) / (2 * i1 * i2 * i3)


def _scale_free(formula, *values):
    """formula(*values), a curvature form of the momenta and hbar0 (last);
    with a float momentum, at the momenta times 2^-e, e the binary exponent
    of the largest, scaled back by 2^-e (rho has degree -1 in I): a power
    of two changes no rounding and keeps squares and products in range."""
    *momenta, hbar0 = values
    if float not in map(type, momenta):
        return formula(*values)
    e = -math.frexp(max(momenta))[1]
    return _times_two_to(formula(*[_times_two_to(i, e) for i in momenta], hbar0), e)


_SCALE_FREE_SYMMETRIC, _SCALE_FREE_ASYMMETRIC = partial(_scale_free, _symmetric), partial(_scale_free, _asymmetric)


def _times_two_to(x, e: int):
    """x * 2^e: exact for a Fraction, rounded once for a float, and an
    infinity where the float leaves the float range."""
    if not isinstance(x, float):
        return x * Fraction(2) ** e
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def curvature_degenerate(i_mom, hbar0=1):
    """2 hbar0 / I, with I the transverse momentum, by _rounded_once."""
    return _rounded_once(_degenerate, _exact_or_float(i_mom), _hbar(hbar0))


def _degenerate(i_mom, hbar0):
    return 2 * hbar0 / i_mom


_CURVATURE = {TopClass.SPHERICAL: curvature_spherical, TopClass.SYMMETRIC: curvature_symmetric,
              TopClass.ASYMMETRIC: curvature_asymmetric, TopClass.DEGENERATE: curvature_degenerate}


def scalar_curvature(top_class: TopClass, closed, hbar0=1):
    """Scalar curvature of the rotational space of a body of the given top
    class, from the momenta its closed form takes (PrincipalMomenta.closed):
    (I,) spherical, (I_pair, I_axis) symmetric, (I1, I2, I3) asymmetric
    and (I,) degenerate, with I the transverse momentum; as each form gives it."""
    return _CURVATURE[top_class](*closed, hbar0)


def _rounded_once(formula, *values):
    """formula(*values), a closed-form value; the one fallback for float
    arithmetic that fails on one.  Where it raises ZeroDivisionError or
    OverflowError, or gives a non-finite float from finite values, the
    formula is evaluated on Fractions (floats read exactly) and rounded
    once: OverflowError exactly where the value leaves the float range."""
    try:
        value = formula(*values)
        if type(value) is not float or math.isfinite(value) or any(type(v) is float and not math.isfinite(v) for v in values):
            return value
    except (ZeroDivisionError, OverflowError):
        pass
    return float(formula(*map(Fraction, values)))


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
    lam1, lam2, lam3 = i1 / hbar0, i2 / hbar0, i3 / hbar0
    if min(lam1, lam2, lam3) <= 0:
        raise ValueError("principal momenta must be positive")
    # lambda times 2^-e, e even, keeps the products below in the float
    # range; the square root halves the power of two exactly, and rho has
    # degree -1 in lambda
    e = 2 * (math.frexp(max(lam1, lam2, lam3))[1] // 2)
    lam1, lam2, lam3 = _times_two_to(lam1, -e), _times_two_to(lam2, -e), _times_two_to(lam3, -e)
    c1 = math.sqrt(lam1 / (lam2 * lam3))
    c2 = math.sqrt(lam2 / (lam3 * lam1))
    c3 = math.sqrt(lam3 / (lam1 * lam2))
    half = 0.5 * (c1 + c2 + c3)
    mu1, mu2, mu3 = half - c1, half - c2, half - c3
    return _times_two_to(2.0 * (mu1 * mu2 + mu2 * mu3 + mu3 * mu1), -e)

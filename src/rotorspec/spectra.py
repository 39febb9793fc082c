"""Rotational spectra: closed forms per top class plus the brute-force
block-diagonalization engine for the asymmetric case.

Every spectrum is a sorted list of lines (energy, quantum numbers,
multiplicity, bundle, eigensection references).  Energies are exact
Fractions whenever all inputs are rational, floats otherwise; degeneracy
grouping is exact in the rational case.

Closed forms implemented (free body, inertial observer, curvature shift
k * rho added to every level):

    spherical   E_j   = hbar0/(2I) j(j+1)
    symmetric   E_jl  = hbar0/(2 I_pair) j(j+1)
                      + hbar0/2 (1/I_axis - 1/I_pair) l^2
    degenerate  E_l   = hbar0/(2I) l(l+1)            on S^2, multiplicity 2l+1
    monopole    E_jl  = symmetric  - nu |q| l / I_axis
                      + nu^2 |q|^2 / (2 I_axis hbar0)

with j integer on the trivial bundle and half-odd on the non-trivial one,
and l stepping through -j..j with the parity of j.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import cache
from itertools import chain
from numbers import Rational
from operator import itemgetter
from typing import NamedTuple

from .defaults import DEFAULT_TOLERANCES, J_MAX_CAP, J_MAX_DEFAULT, Tolerances
from .errors import BundleRequestError, HamiltonianOverflowError, OutOfRangeError
from .inertia import TopClass, _exact_or_float, _rounded_once, check_positive, classify_momenta, scalar_curvature
from .levels import band_record, degree_band, eigenvalues
from .quantum_structures import BundleKind, bundle_of_j, j_values


def check_j_max(j_max):
    """Raise OutOfRangeError unless j_max is a half-integer in [0, J_MAX_CAP]."""
    if Fraction(j_max) * 2 % 1 != 0 or j_max < 0:
        raise OutOfRangeError("j_max must be a nonnegative half-integer")
    if j_max > J_MAX_CAP:
        raise OutOfRangeError(f"j_max exceeds the hard cap {J_MAX_CAP}")


def check_l_max(l_max):
    """Raise OutOfRangeError unless l_max is an integer in [0, J_MAX_CAP]."""
    if int(l_max) != l_max or l_max < 0:
        raise OutOfRangeError("l_max must be a nonnegative integer")
    if l_max > J_MAX_CAP:
        raise OutOfRangeError(f"l_max exceeds the hard cap {J_MAX_CAP}")


def check_charge(nu, q_center_norm):
    """Raise OutOfRangeError unless nu is finite and the center-of-charge
    norm finite and nonnegative.  Rationals are compared exactly, so one
    beyond the float range passes; NaN fails every comparison and is
    rejected."""
    nu, q = (x if isinstance(x, Rational) else float(x) for x in (nu, q_center_norm))
    if not -math.inf < nu < math.inf:
        raise OutOfRangeError(f"nu must be finite, got {nu!r}")
    if not q < math.inf:
        raise OutOfRangeError(f"the center-of-charge norm must be finite, got {q!r}")
    if q < 0:
        raise OutOfRangeError("the center-of-charge norm must be nonnegative")


_CLOSED_NAMES = {TopClass.SPHERICAL: ("i_mom",), TopClass.SYMMETRIC: ("i_pair", "i_axis"),
                 TopClass.ASYMMETRIC: ("i1", "i2", "i3"), TopClass.DEGENERATE: ("i_mom",)}


def check_closed(top: TopClass, closed, hbar0=1):
    """check_positive on hbar0 and the momenta closed of a top of class top
    (PrincipalMomenta.closed), by the names its spectrum gives them."""
    check_positive(**dict(zip(_CLOSED_NAMES[top], closed)), hbar0=hbar0)


_LINE_FIELDS = [("energy", object), ("j", Fraction), ("multiplicity", int), ("bundle", BundleKind),
                ("l", Fraction | None), ("source", str), ("eigensections", tuple | None)]


class SpectralLine(NamedTuple("SpectralLine", _LINE_FIELDS)):
    """One eigenvalue with its quantum numbers.

    l is None when the level is labeled by j alone (spherical and
    diagonalized spectra).  eigensections holds (p, q, index) references
    into the harmonic bases; the degenerate case uses (degree, None, index).
    The (p, q, index) references are shared and immutable: each triple is
    built once per degree, and a line's tuple of them comes from one memo
    per (degree, indices) (_refs; a diagonalized line of several indices
    joins their columns).  Degrees stop at 2 J_MAX_CAP, which bounds the
    memo.  SpectralLine(...) and _replace check the multiplicity and the
    bundle of j; the routes build their lines in _spectrum, which runs the
    same checks.
    """

    __slots__ = ()

    def __new__(cls, energy, j, multiplicity, bundle, l=None, source="closed-form", eigensections=None):
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        _check_bundle(j, bundle)
        return super().__new__(cls, energy, j, multiplicity, bundle, l, source, eigensections)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def sort_key(self):
        """(float energy, j, l), with j and l the exact half-integers and
        -inf for a missing l."""
        return (_as_float(self.energy), self.j, -math.inf if self.l is None else self.l)


def _check_bundle(j, bundle):
    """Raise ValueError unless bundle is the bundle of j (bundle_of_j)."""
    if bundle_of_j(j) is not bundle:
        raise ValueError(f"bundle {bundle} inconsistent with j = {j}")


_SPECTRUM_FIELDS = [("lines", tuple), ("kind", str), ("bundle", BundleKind | None), ("top_class", TopClass | None),
                    ("params", dict), ("k", object), ("hbar0", object), ("j_max", object)]


class Spectrum(NamedTuple("Spectrum", _SPECTRUM_FIELDS)):
    """Spectral lines up to a cutoff, sorted by sort_key (a stable sort),
    with the defining parameters; params defaults to a new {} per spectrum.
    Spectrum(...) and _replace sort the lines; the routes hand _spectrum
    their levels, and it builds the Spectrum of lines it has already
    sorted by the same keys."""

    __slots__ = ()

    def __new__(cls, lines, kind, bundle, top_class, params=None, k=0, hbar0=1, j_max=0):
        lines = tuple(sorted(lines, key=lambda ln: ln.sort_key))
        return super().__new__(cls, lines, kind, bundle, top_class, {} if params is None else params, k, hbar0, j_max)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def lines_for_degree(self, d: int) -> list[SpectralLine]:
        return [ln for ln in self.lines if ln.j == Fraction(d, 2)]

    def group_by_energy(self, eps_spec: float = DEFAULT_TOLERANCES.spec):
        """Merge lines with coinciding energy (arithmetical degeneracy), by
        the rule of group_energies.  Returns (energy, total multiplicity,
        lines) triples sorted by energy.
        """
        groups = group_energies([(ln.energy, ln) for ln in self.lines], eps_spec)
        return [(e, sum(ln.multiplicity for ln in g), g) for e, g in groups]


def _as_float(energy) -> float:
    """float(energy), or HamiltonianOverflowError when that is not a finite
    float: a rational energy beyond the float range, or a float energy
    that left it (hbar or k too large).  Every line passes through here
    once, when _spectrum or Spectrum(...) sorts it, so no Spectrum holds
    such an energy."""
    try:
        value = float(energy)
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc
    if not math.isfinite(value):
        raise HamiltonianOverflowError()
    return value


def group_energies(pairs, eps_spec: float = DEFAULT_TOLERANCES.spec):
    """Group (energy, item) pairs, given in ascending order of float(energy)
    as every caller has them, into levels: [(energy, items), ...].

    Items keep their given order within a level, and the levels are listed
    by their first energies.  A rational energy joins the level of an equal
    rational energy, so exact levels stay apart even in a degree that also
    holds floats.  A float energy joins the latest float level when it lies
    within eps_spec * |ref| of that level's first energy ref; any other
    float, a non-finite one included, starts a level.  A rational and a
    float energy never share a level.  The level's energy is its first
    energy.  A float is told by its type before the (ABC) Rational test.
    """
    groups: list[tuple[object, list]] = []
    exact: dict = {}  # rational energy -> its level
    ref = None  # the first energy, as a float, of the level a float energy may join
    for energy, item in pairs:
        if type(energy) is not float and isinstance(energy, Rational):
            level = exact.get(energy)
            if level is None:
                level = exact[energy] = (energy, [])
                groups.append(level)
        else:
            value = float(energy)
            if ref is None or not abs(value - ref) <= eps_spec * abs(ref):
                inexact, ref = (energy, []), value
                groups.append(inexact)
            level = inexact
        level[1].append(item)
    return [(e, tuple(items)) for e, items in groups]


# --- curvature shift --------------------------------------------------------


def curvature_shift(k, top_class: TopClass, momenta, hbar0=1):
    """Additive constant k * rho added to every level, with rho the scalar
    curvature closed form of the top class; k = 0 (the default everywhere)
    turns it off.  The zero shift is Fraction(0) when k, hbar0 and the
    momenta are all rational, and 0.0 otherwise; a float level adds it as
    0.0 (_diagonalized), since x + 0.0 is the float x + Fraction(0) gives.
    A rho beyond the float range (scalar_curvature), and a float k times a
    rational one, raise OverflowError: HamiltonianOverflowError (_spectrum)."""
    if k == 0:
        exact = all(isinstance(v, Rational) for v in (k, hbar0, *momenta))
        return Fraction(0) if exact else 0.0
    return k * scalar_curvature(top_class, momenta, hbar0)


def _exactify(*values):
    """Map rational inputs to Fractions so downstream arithmetic is exact;
    leave floats alone."""
    return tuple(map(_exact_or_float, values))


# --- closed-form spectra ------------------------------------------------------


# float() rounds a rational to 0.0 up to 2^-1075 and beyond the float range
# from 2^1024 - 2^970 on
_ROUNDS_TO_ZERO, _ROUNDS_TO_INFINITY = Fraction(1, 1 << 1075), (1 << 1024) - (1 << 970)


def _spectrum(kind, top, bundle, params, k, hbar0, j_max, levels, source="closed-form") -> Spectrum:
    """The Spectrum of levels, (energy, j, l, multiplicity, eigensection
    refs) tuples taken in order.  This is the one place a route builds its
    lines, in one pass that runs the checks of the public constructors:
    the bundle of j once per degree (the lines of a degree share one j
    object, so the check runs again only when j is a new object), a
    positive multiplicity per line, and _as_float once per line, whose
    value starts the line's sort_key.  The lines are stable-sorted by those
    keys, the order Spectrum(...) gives, and the Spectrum is built from
    them without a second sort.  Every spectrum forms its levels here, its
    k rho included: an OverflowError raised while forming one (a rational
    beyond the float range meeting a float) becomes HamiltonianOverflowError,
    and so does an energy outside the float range (_as_float).  Its message
    is BELOW_RANGE where a principal momentum (a params entry named I...)
    rounds to 0.0 and hbar0 does not leave the float range, on every route
    alike."""
    keyed = []
    checked = object()  # the j object whose bundle was checked last
    try:
        for e, j, l, mult, refs in levels:
            if j is not checked:
                _check_bundle(j, bundle)
                checked = j
            if mult < 1:
                raise ValueError("multiplicity must be positive")
            key = (_as_float(e), j, -math.inf if l is None else l)
            keyed.append((key, (e, j, mult, bundle, l, source, refs)))
    except (OverflowError, HamiltonianOverflowError) as exc:
        momenta = (v for name, v in params.items() if name.startswith("I"))
        if hbar0 < _ROUNDS_TO_INFINITY and any(v <= _ROUNDS_TO_ZERO for v in momenta):
            raise HamiltonianOverflowError(HamiltonianOverflowError.BELOW_RANGE) from exc
        raise HamiltonianOverflowError() from exc
    keyed.sort(key=itemgetter(0))
    lines = tuple([tuple.__new__(SpectralLine, fields) for _, fields in keyed])
    return tuple.__new__(Spectrum, (lines, kind, bundle, top, params, k, hbar0, Fraction(j_max)))


def _over_twice(h, i_mom):
    """hbar0 / (2 I), the coefficient of j(j+1), by _rounded_once."""
    return _rounded_once(lambda h, i: h / (2 * i), h, i_mom)


def _factor_j(coefficient, j, x):
    """The factor j of a term with this coefficient: x = float(j) when the
    coefficient is a float, the Fraction j otherwise.  CPython's Fraction
    operators compute a float times the Fraction j as the float times
    float(j), and float(j) and float(j) + 1 are exact for a half-integer j,
    so a term formed on x has the bits of the same term formed on j."""
    return x if type(coefficient) is float else j


def j_squared_spectrum(bundle: BundleKind, j_max, hbar0=1) -> Spectrum:
    """Spectrum of the squared angular momentum: hbar0^2 j(j+1) with
    multiplicity (2j+1)^2."""
    check_j_max(j_max)
    check_positive(hbar0=hbar0)
    (h,) = _exactify(hbar0)
    levels = ((h * h * j * (j + 1), j, None, int((2 * j + 1) ** 2), None) for j in j_values(bundle, j_max))
    return _spectrum("j_squared", None, bundle, {}, 0, h, j_max, levels)


@cache
def _degree_refs(d: int):
    """The references (p, d - p, idx) of degree d, one object per triple,
    in rows by block p."""
    return tuple(tuple((p, d - p, idx) for idx in range(d + 1)) for p in range(d + 1))


@cache
def _refs(d: int, indices: tuple):
    """The eigensection references of a degree-d line whose levels sit at
    the given indices of every block, block-major: (p, d - p, idx) for p
    in 0..d, idx in indices.  Memoized, and built from the shared triples
    of _degree_refs."""
    return tuple(row[idx] for row in _degree_refs(d) for idx in indices)


def spherical_spectrum(i_mom, bundle: BundleKind, k=0, hbar0=1, j_max=J_MAX_DEFAULT) -> Spectrum:
    """E_j = hbar0/(2I) j(j+1) + k rho, multiplicity (2j+1)^2; eigensections
    are all degree-2j harmonic polynomials."""
    check_j_max(j_max)
    check_positive(i_mom=i_mom, hbar0=hbar0)
    return _spherical(i_mom, bundle, k, hbar0, j_max)


def _spherical(i_mom, bundle, k, hbar0, j_max) -> Spectrum:
    """spherical_spectrum on a j_max and momenta its caller has checked."""
    i_mom, k, h = _exactify(i_mom, k, hbar0)

    def levels():
        js = j_values(bundle, j_max)
        shift = curvature_shift(k, TopClass.SPHERICAL, (i_mom,), h) if js else None
        coefficient = _over_twice(h, i_mom) if js else None
        for j in js:
            x = float(j)
            d, f = int(2 * x), _factor_j(coefficient, j, x)
            yield coefficient * f * (f + 1) + shift, j, None, (d + 1) ** 2, _refs(d, tuple(range(d + 1)))

    return _spectrum("spherical", TopClass.SPHERICAL, bundle, {"I": i_mom}, k, h, j_max, levels())


def _symmetric_degrees(i_pair, i_axis, h, js):
    """Yield (d, j, x, pair, axis) for each j of js, with d = 2j and x =
    float(j): the j term pair = hbar0/(2 I_pair) j(j+1), and the l^2 term axis
    = hbar0/2 (1/I_axis - 1/I_pair) j^2 of |l| = j, the one new |l| of the
    degree.  Each term has the operands of the per-line formula in its
    left-to-right order, and (c (-x)) (-x) = (c x) x exactly, so a level
    summed from these terms is the same float or Fraction as the formula's
    for that line.  A float coefficient multiplies x, which gives the bits
    the Fraction j gives (_factor_j).  The coefficients are formed once, by
    _rounded_once, at the first degree, so a spectrum without one forms none."""
    if not js:
        return
    pair, axis = _over_twice(h, i_pair), _rounded_once(lambda h, p, a: h / 2 * (1 / a - 1 / p), h, i_pair, i_axis)
    for j in js:
        x = float(j)
        f, g = _factor_j(pair, j, x), _factor_j(axis, j, x)
        yield int(2 * x), j, x, pair * f * (f + 1), axis * g * g


def symmetric_spectrum(i_pair, i_axis, bundle: BundleKind, k=0, hbar0=1, j_max=J_MAX_DEFAULT) -> Spectrum:
    """Symmetric-top levels indexed by (j, |l|).

    The symmetry axis carries i_axis, the repeated pair i_pair; l steps from
    -j to j with the parity of j.  Multiplicity is (2j+1) at l = 0 and
    2(2j+1) otherwise.  Coinciding energies across different (j, l) stay as
    separate lines; use Spectrum.group_by_energy for the merged view.
    The j term is formed once per degree and the |l|^2 term once per 2|l|
    (_symmetric_degrees); a line adds them and k rho, in that order.
    """
    check_j_max(j_max)
    check_positive(i_pair=i_pair, i_axis=i_axis, hbar0=hbar0)
    return _symmetric(i_pair, i_axis, bundle, k, hbar0, j_max)


def _symmetric(i_pair, i_axis, bundle, k, hbar0, j_max) -> Spectrum:
    """symmetric_spectrum on a j_max and momenta its caller has checked;
    equal momenta take the spherical closed form."""
    if i_pair == i_axis:
        return _spherical(i_pair, bundle, k, hbar0, j_max)
    i_pair, i_axis, k, h = _exactify(i_pair, i_axis, k, hbar0)

    def levels():
        axis = {}  # 2|l| -> (|l|, its l^2 term), for every |l| <= j so far
        for d, j, _, pair_term, new_axis in _symmetric_degrees(i_pair, i_axis, h, j_values(bundle, j_max)):
            if not axis:  # k rho at the first degree, so a spectrum without one forms none
                shift = curvature_shift(k, TopClass.SYMMETRIC, (i_pair, i_axis), h)
            axis[d] = (j, new_axis)
            for two_l in range(d % 2, d + 1, 2):
                abs_l, axis_term = axis[two_l]
                if two_l == 0:
                    mult, indices = d + 1, (d // 2,)
                else:
                    mult, indices = 2 * (d + 1), ((d - two_l) // 2, (d + two_l) // 2)
                yield pair_term + axis_term + shift, j, abs_l, mult, _refs(d, indices)

    params = {"I_pair": i_pair, "I_axis": i_axis}
    return _spectrum("symmetric", TopClass.SYMMETRIC, bundle, params, k, h, j_max, levels())


def degenerate_spectrum(i_mom, k=0, hbar0=1, l_max=J_MAX_DEFAULT) -> Spectrum:
    """Collinear body: S^2 levels hbar0/(2I) l(l+1) with multiplicity 2l+1,
    eigensections the degree-l harmonic polynomials on R^3 (only the trivial
    bundle exists here)."""
    check_l_max(l_max)
    check_positive(i_mom=i_mom, hbar0=hbar0)
    i_mom, k, h = _exactify(i_mom, k, hbar0)

    def levels():
        shift = curvature_shift(k, TopClass.DEGENERATE, (i_mom,), h)
        coefficient = _over_twice(h, i_mom)
        for ell in range(int(l_max) + 1):
            refs = tuple((ell, None, idx) for idx in range(2 * ell + 1))
            yield coefficient * ell * (ell + 1) + shift, Fraction(ell), None, 2 * ell + 1, refs

    params = {"I": i_mom}
    return _spectrum("degenerate", TopClass.DEGENERATE, BundleKind.PLUS, params, k, h, int(l_max), levels())


def monopole_spectrum(
    i_pair, i_axis, bundle: BundleKind, nu, q_center_norm, k=0, hbar0=1, j_max=J_MAX_DEFAULT
) -> Spectrum:
    """Symmetric top with a magnetic monopole at a fixed point.

    The term linear in l breaks the +-l degeneracy, so lines carry signed l
    and multiplicity 2j+1.  With nu = 0 this reduces termwise to the free
    symmetric spectrum.  The j and l^2 terms come from _symmetric_degrees,
    the linear term is formed once per 2|l| and negated for l < 0, and a
    line sums j + l^2 - linear + constant + k rho left to right; its
    references are (p, q, j + l) over the blocks of its degree.
    """
    check_j_max(j_max)
    check_positive(i_pair=i_pair, i_axis=i_axis, hbar0=hbar0)
    check_charge(nu, q_center_norm)
    i_pair, i_axis, nu, qn, k, h = _exactify(i_pair, i_axis, nu, q_center_norm, k, hbar0)

    def levels():
        terms = {}  # 2l -> (l, its l^2 term, its linear term), for every |l| <= j so far
        for d, j, x, pair_term, new_quad in _symmetric_degrees(i_pair, i_axis, h, j_values(bundle, j_max)):
            if not terms:
                # at the first degree, after its j terms, so a spectrum
                # without lines forms no term, k rho included
                shift = curvature_shift(k, TopClass.SYMMETRIC, (i_pair, i_axis), h)
                linear = _rounded_once(lambda n, q, i: n * q / i, nu, qn, i_axis)
                constant = _rounded_once(lambda n, q, i, h: n * n * q * q / (2 * i * h), nu, qn, i_axis, h)
            new_lin = linear * _factor_j(linear, j, x)
            terms[-d] = (-j, new_quad, -new_lin)
            terms[d] = (j, new_quad, new_lin)
            for idx in range(d + 1):
                l, quad, lin = terms[2 * idx - d]
                yield pair_term + quad - lin + constant + shift, j, l, d + 1, _refs(d, (idx,))

    params = {"I_pair": i_pair, "I_axis": i_axis, "nu": nu, "q_norm": qn}
    return _spectrum("monopole", TopClass.SYMMETRIC, bundle, params, k, h, j_max, levels())


# --- brute-force engine -------------------------------------------------------


def diagonalized_spectrum(
    i1,
    i2,
    i3,
    bundle: BundleKind,
    k=0,
    hbar0=1,
    j_max=J_MAX_DEFAULT,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Spectrum:
    """Spectrum by diagonalization, one symmetric band per degree.

    Every block H^{p,q} of degree d = 2j carries the same spin-j action, so
    its band is similar to S_d (levels.degree_band; King, Hainer & Cross
    1943; `rotorspec verify` checks that S_d plus k rho has the diagonal
    and the products lower * upper of the band of H^(d//2, d-d//2) for
    p+q <= 2J).  A level of multiplicity m of S_d is a line of
    multiplicity (d+1) m with references into every block; k rho is added
    to each level last (curvature_shift): an exact zero one leaves an exact
    level as it is and adds 0.0, the float that Fraction(0) gives, to a
    float one.  S_d of each degree is formed from one record of the inputs
    (levels.band_record): integers over one denominator for
    rational input, floats otherwise.  eigenvalues() owns the
    exactness policy: under rational inputs a level is exact when S_d is
    diagonal and, up to degree EXACT_DEGREE_MAX = 4, exactly when it is
    rational.  Equal exact levels form one line; float levels are grouped
    within tol.spec, and an exact level never joins one (group_energies).
    HamiltonianOverflowError is raised exactly when an entry of S_d or a
    level is not a finite float, or when an exact level lies beyond the
    float range; where a momentum rounds to 0.0 and hbar0 does not leave
    the float range, its message names the momentum (BELOW_RANGE).  This
    is the oracle route the closed forms are verified against, and the
    production route for the asymmetric top.
    """
    check_j_max(j_max)
    check_positive(i1=i1, i2=i2, i3=i3, hbar0=hbar0)
    return _diagonalized("diagonalized", None, i1, i2, i3, bundle, k, hbar0, j_max, tol)


def _diagonalized(kind, top, i1, i2, i3, bundle, k, hbar0, j_max, tol) -> Spectrum:
    """diagonalized_spectrum as kind, for the class top (None: classify),
    on a j_max and momenta its caller has checked.  The k rho shift and
    then the band record of the inputs (band_record) are taken once per
    spectrum, only when it has a degree, so an empty spectrum raises no
    overflow of either."""
    i1, i2, i3, k, h = _exactify(i1, i2, i3, k, hbar0)
    top, closed = classify_momenta((i1, i2, i3), tol) if top is None else (top, None)

    def levels():
        js = j_values(bundle, j_max)
        shift = curvature_shift(k, top, closed or (i1, i2, i3), h) if js else None
        exact_zero = type(shift) is Fraction and not shift
        record = band_record(i1, i2, i3, h) if js else None
        for j in js:
            d = int(2 * j)
            found = eigenvalues(d, *degree_band(d, record))
            if exact_zero:
                # an exact level as it is, a float one plus 0.0, which makes -0.0 0.0
                shifted = [(v + 0.0 if type(v) is float else v, idx) for idx, (v, _) in enumerate(found)]
            else:
                shifted = [(v + shift, idx) for idx, (v, _) in enumerate(found)]
            for energy, idxs in group_energies(shifted, tol.spec):
                refs = _refs(d, idxs) if len(idxs) == 1 else tuple(chain.from_iterable(_refs(d, (idx,)) for idx in idxs))
                yield energy, j, None, (d + 1) * len(idxs), refs

    params = {"I1": i1, "I2": i2, "I3": i3}
    return _spectrum(kind, top, bundle, params, k, h, j_max, levels(), source="diagonalized")


def asymmetric_spectrum(
    i1,
    i2,
    i3,
    bundle: BundleKind,
    k=0,
    hbar0=1,
    j_max=J_MAX_DEFAULT,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Spectrum:
    """Asymmetric-top spectrum by block diagonalization.

    Near-coinciding momenta are routed to the matching closed form with a
    warning, since the asymmetric labeling would be numerically meaningless
    there.  The momenta and hbar0 are checked once, before j_max; the
    closed form takes the checked values (classify_momenta) unchecked.
    """
    check_positive(i1=i1, i2=i2, i3=i3, hbar0=hbar0)
    top, closed = classify_momenta((i1, i2, i3), tol)
    if top is TopClass.SPHERICAL:
        warnings.warn("momenta nearly spherical; using the spherical closed form")
    elif top is TopClass.SYMMETRIC:
        warnings.warn("two momenta nearly coincide; using the symmetric closed form")
    check_j_max(j_max)
    if top is TopClass.SPHERICAL:
        return _spherical(*closed, bundle, k, hbar0, j_max)
    if top is TopClass.SYMMETRIC:
        return _symmetric(*closed, bundle, k, hbar0, j_max)
    return _diagonalized("asymmetric", top, i1, i2, i3, bundle, k, hbar0, j_max, tol)


def spectrum_for(
    top: TopClass, closed, bundle: BundleKind, k=0, hbar0=1, j_max=J_MAX_DEFAULT, tol=DEFAULT_TOLERANCES, monopole=None
) -> Spectrum:
    """The spectrum of a body of class top whose closed form takes the
    momenta closed (PrincipalMomenta.closed): the spherical, symmetric or
    degenerate closed form (on S^2, to floor(j_max), so that a negative
    j_max stays negative and check_l_max rejects it), or for an
    asymmetric top diagonalized_spectrum, as kind "asymmetric".
    monopole = (nu, q_center_norm) asks for the monopole spectrum of a
    spherical or symmetric top, a spherical one taking I as its pair and
    its axis momentum; BundleRequestError for any other top.  Each range
    check the route runs raises OutOfRangeError."""
    if monopole is not None:
        if top not in (TopClass.SPHERICAL, TopClass.SYMMETRIC):
            raise BundleRequestError(f"the monopole closed form needs a spherical or symmetric top; this body is {top.value}")
        pair_axis = closed if top is TopClass.SYMMETRIC else closed * 2
        return monopole_spectrum(*pair_axis, bundle, *monopole, k, hbar0, j_max)
    if top is TopClass.SPHERICAL:
        return spherical_spectrum(*closed, bundle, k, hbar0, j_max)
    if top is TopClass.SYMMETRIC:
        return symmetric_spectrum(*closed, bundle, k, hbar0, j_max)
    if top is TopClass.DEGENERATE:
        return degenerate_spectrum(*closed, k, hbar0, math.floor(j_max))
    check_j_max(j_max)
    check_closed(top, closed, hbar0)
    return _diagonalized("asymmetric", top, *closed, bundle, k, hbar0, j_max, tol)

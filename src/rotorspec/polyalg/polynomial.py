"""Sparse multivariate polynomials with exact rational coefficients.

The same class covers the two variable sets used in the package:

* (z1, z2, zb1, zb2) on R^4 = C^2, variable order fixed as written, where
  zb_i denotes the conjugate variable;
* (x, y, z) on R^3 for the collinear (degenerate) body.

Terms map exponent tuples to int or Fraction coefficients; zero
coefficients are never stored.  Every operator of the oracle has rational
coefficients in the Chevalley basis (Jp, Jm, J3; operators.py), so the
harmonic bases are integer polynomials and their images stay rational.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping

R4_NAMES = ("z1", "z2", "zb1", "zb2")
R3_NAMES = ("x", "y", "z")


def _exact(x):
    """x as an int or a Fraction; TypeError for anything but an exact
    rational (a float or a complex number included)."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, Rational):
        return int(x) if x.denominator == 1 else Fraction(x.numerator, x.denominator)
    raise TypeError(f"not an exact rational: {x!r}")


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, int | Fraction] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                c = _exact(coeff)
                if not c:
                    continue
                if len(exp) != nvars or min(exp, default=0) < 0:
                    raise ValueError(f"bad exponent tuple {exp}")
                clean[tuple(exp)] = c
        self.terms = clean

    # --- constructors ---
    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def monomial(nvars: int, exponents: Iterable[int], coeff=1) -> "Polynomial":
        return Polynomial(nvars, {tuple(exponents): coeff})

    # --- ring operations ---
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            total = terms[exp] + c if exp in terms else c
            if total:
                terms[exp] = total
            else:
                del terms[exp]
        return _valid(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return _valid(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        terms: dict[tuple, int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                terms[exp] = terms[exp] + c if exp in terms else c
        return Polynomial(self.nvars, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "Polynomial":
        f = _exact(factor)
        if not f:
            return _valid(self.nvars, {})
        return _valid(self.nvars, {e: c * f for e, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    # --- calculus ---
    def diff(self, var: int) -> "Polynomial":
        terms = {}
        for exp, c in self.terms.items():
            k = exp[var]
            if k == 0:
                continue
            new = list(exp)
            new[var] = k - 1
            terms[tuple(new)] = c * k  # lowering exponent var is one-to-one
        return _valid(self.nvars, terms)

    def mul_var(self, var: int) -> "Polynomial":
        terms = {}
        for exp, c in self.terms.items():
            new = list(exp)
            new[var] = exp[var] + 1
            terms[tuple(new)] = c
        return _valid(self.nvars, terms)

    # --- structure queries ---
    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def __str__(self):
        return self.pretty()

    __repr__ = __str__

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        names = R4_NAMES if self.nvars == 4 else R3_NAMES
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            factors = [
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(exp)
                if e > 0
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def _valid(nvars: int, terms: dict) -> Polynomial:
    """The Polynomial with these terms, which the ring operations built from
    valid ones: exponent tuples of length nvars, nonzero int or Fraction
    coefficients.
    The public constructor validates; this one trusts."""
    poly = object.__new__(Polynomial)
    poly.nvars = nvars
    poly.terms = terms
    return poly


# --- differential operators used throughout ---------------------------------

_LAPLACIAN_R4 = ((4, (0, 2), ()), (4, (1, 3), ()))
_LAPLACIAN_R3 = ((1, (0, 0), ()), (1, (1, 1), ()), (1, (2, 2), ()))
_EULER_R3 = ((1, (0,), (0,)), (1, (1,), (1,)), (1, (2,), (2,)))


def apply_operator(poly: Polynomial, operator) -> Polynomial:
    """poly's image under an operator, a tuple of terms (coeff, down, up)
    that stand for coeff times the variables `up` times the derivatives in
    `down`.  Each term is applied in one pass over poly's terms, in order,
    into one dict that drops each sum that cancels, so every coefficient is
    the sum, with its type, that the composition of diff, mul_var and + gives."""
    out = {}
    for coeff, down, up in operator:
        for exp, c in poly.terms.items():
            new, weight = list(exp), coeff
            for var in down:
                weight *= new[var]
                new[var] -= 1
            for var in up:
                new[var] += 1
            if weight:
                key = tuple(new)
                value = out.get(key, 0) + c * weight
                if value:
                    out[key] = value
                else:
                    del out[key]
    return _valid(poly.nvars, out)


def laplacian_r4(poly: Polynomial) -> Polynomial:
    """Flat Laplacian on R^4 in complex coordinates:
    Delta = 4 (d_z1 d_zb1 + d_z2 d_zb2), applied in one dict by apply_operator."""
    if poly.nvars != 4:
        raise ValueError("laplacian_r4 needs a 4-variable polynomial")
    return apply_operator(poly, _LAPLACIAN_R4)


def laplacian_r3(poly: Polynomial) -> Polynomial:
    if poly.nvars != 3:
        raise ValueError("laplacian_r3 needs a 3-variable polynomial")
    return apply_operator(poly, _LAPLACIAN_R3)


def euler_r3(poly: Polynomial) -> Polynomial:
    """Radial (Euler) operator x d_x + y d_y + z d_z."""
    return apply_operator(poly, _EULER_R3)


def sphere_laplacian_r3(poly: Polynomial, degree: int) -> Polynomial:
    """Laplace-Beltrami operator of the unit S^2 applied to the restriction
    of a homogeneous degree-`degree` polynomial, as a polynomial identity.

    Derivation: extend f|_{S^2} as f r^(-degree) (homogeneous of degree 0)
    and apply the flat R^3 Laplacian; multiplying the result by r^(degree+2)
    clears the radical and gives

        r^2 Delta f - 2 degree (x . grad f) + degree (degree - 1) f,

    which equals the surface Laplacian on r = 1.  For a harmonic f this
    reduces to -degree (degree + 1) f.
    """
    if poly.nvars != 3:
        raise ValueError("sphere_laplacian_r3 needs a 3-variable polynomial")
    if not poly.is_homogeneous():
        raise ValueError("polynomial must be homogeneous")
    r2 = (
        Polynomial.monomial(3, (2, 0, 0))
        + Polynomial.monomial(3, (0, 2, 0))
        + Polynomial.monomial(3, (0, 0, 2))
    )
    return r2 * laplacian_r3(poly) - 2 * degree * euler_r3(poly) + degree * (degree - 1) * poly


def antipodal_sign(poly: Polynomial) -> int:
    """Eigenvalue of z -> -z on a homogeneous polynomial: (-1)^degree."""
    if not poly.is_homogeneous():
        raise ValueError("antipodal parity needs a homogeneous polynomial")
    return -1 if poly.total_degree() % 2 else 1

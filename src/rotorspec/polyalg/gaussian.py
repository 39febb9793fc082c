"""Exact complex-rational scalars (Gaussian rationals).

A QC holds three Python ints (a, b, d) and means (a + b i) / d, with d > 0
and gcd(a, b, d) = 1.  Each value has exactly one such triple, so equality
is equality of triples; zero is (0, 0, 1).  Arithmetic works on the ints
with one gcd per result.  The parts `re` and `im` are Fractions, built when
they are read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, the denominator > 0."""
    if type(x) is int:
        return x, 1
    if isinstance(x, Rational):
        return int(x.numerator), int(x.denominator)
    raise TypeError(f"not an exact rational: {x!r}")


class QC:
    """A complex number with exact rational real and imaginary parts.

    Supports field arithmetic, conjugation and hashing; mixed arithmetic
    with ints and Fractions promotes them to QC.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            a, da = _ratio(re)
            b, db = _ratio(im)
            d = da
            if da != db:
                # the lcm of two reduced denominators leaves gcd(a, b, d) = 1
                d = lcm(da, db)
                a *= d // da
                b *= d // db
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, *_):
        raise AttributeError("QC is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x) -> "QC":
        if isinstance(x, QC):
            return x
        return QC(x)

    def __add__(self, other):
        o = other if type(other) is QC else QC.coerce(other)
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _reduced(self._a + o._a, self._b + o._b, d1)
        return _reduced(self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = other if type(other) is QC else QC.coerce(other)
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _reduced(self._a - o._a, self._b - o._b, d1)
        return _reduced(self._a * d2 - o._a * d1, self._b * d2 - o._b * d1, d1 * d2)

    def __rsub__(self, other):
        return QC.coerce(other) - self

    def __mul__(self, other):
        if type(other) is int:
            return _reduced(self._a * other, self._b * other, self._d)
        o = other if type(other) is QC else QC.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is QC else QC.coerce(other)
        a1, b1, a2, b2, d2 = self._a, self._b, o._a, o._b, o._d
        if not b2:
            if not a2:
                raise ZeroDivisionError("division by zero QC")
            # real divisor a2 / d2: the sign of a2 moves into _reduced
            return _reduced(a1 * d2, b1 * d2, self._d * a2)
        # (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        return _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * (a2 * a2 + b2 * b2)
        )

    def __rtruediv__(self, other):
        return QC.coerce(other) / self

    def conjugate(self) -> "QC":
        return _make(self._a, -self._b, self._d)

    def __eq__(self, other):
        if type(other) is not QC:
            try:
                other = QC.coerce(other)
            except TypeError:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # equal values hash equal: a real QC hashes as the Fraction (so as
        # the int) it equals
        if not self._b:
            return hash(self._a if self._d == 1 else self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    @property
    def is_real(self) -> bool:
        return self._b == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re} {sign} {abs(im)}*i)"


_set_a, _set_b, _set_d = QC._a.__set__, QC._b.__set__, QC._d.__set__


def _make(a: int, b: int, d: int) -> QC:
    """The QC with the canonical triple (a, b, d), bypassing __init__."""
    z = object.__new__(QC)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> QC:
    """The QC (a + b i) / d for any d != 0: divides out gcd(a, b, d),
    carrying the sign of d so that the stored denominator is positive."""
    if d == 1:
        return _make(a, b, 1)
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


ZERO = QC(0)
ONE = QC(1)

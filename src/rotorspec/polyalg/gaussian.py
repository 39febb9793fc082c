"""Exact complex-rational scalars (Gaussian rationals)."""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class QC:
    """A complex number with exact rational real and imaginary parts.

    Supports field arithmetic, conjugation and hashing; mixed arithmetic
    with ints and Fractions promotes them to QC.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *_):
        raise AttributeError("QC is immutable")

    @staticmethod
    def coerce(x) -> "QC":
        if isinstance(x, QC):
            return x
        return QC(x)

    def __add__(self, other):
        o = QC.coerce(other)
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QC.coerce(other))

    def __rsub__(self, other):
        return QC.coerce(other) + (-self)

    def __mul__(self, other):
        o = QC.coerce(other)
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QC.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        return QC.coerce(other) / self

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def __eq__(self, other):
        try:
            o = QC.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"

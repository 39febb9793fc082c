"""QC, the Gaussian rational (a + b i) / d, against a reference that stores
the real and imaginary parts as two Fractions and applies the textbook
formulas of complex arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorspec.polyalg import QC

SETTINGS = settings(max_examples=300, deadline=None)

# small denominators make equal denominators, d = 1, zeros and cancellations
# frequent; a few huge numerators exercise big-int arithmetic
rationals = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12)),
)
pairs = st.tuples(rationals, rationals)
# operands QC arithmetic accepts besides QC: ints, bools and Fractions
scalars = st.one_of(st.integers(-6, 6), st.booleans(), st.fractions(max_denominator=9))


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    x, y = ref_qc(x), ref_qc(y)
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_repr(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    sign = "+" if im > 0 else "-"
    return f"({re} {sign} {abs(im)}*i)"


def ref_qc(x):
    return (Fraction(x[0]), Fraction(x[1]))


def assert_matches(q, x):
    """q is the canonical QC of the reference value x = (re, im)."""
    assert type(q) is QC
    assert q._d > 0 and math.gcd(q._a, q._b, q._d) == 1
    re, im = ref_qc(x)
    assert (q.re, q.im) == (re, im)
    assert type(q.re) is Fraction and type(q.im) is Fraction
    assert q == QC(re, im) and QC(re, im) == q
    # equal values hash equal, so a real q hashes as the Fraction it equals
    assert hash(q) == hash(re if im == 0 else (re, im))
    assert bool(q) == (re != 0 or im != 0)
    assert q.is_real == (im == 0)
    assert repr(q) == ref_repr((re, im))
    assert q.to_complex() == complex(re) + 1j * complex(im)


@SETTINGS
@given(pairs)
def test_construction_and_reads(x):
    assert_matches(QC(*x), x)
    assert_matches(QC(x[0]), (x[0], 0))
    assert_matches(QC.coerce(x[0]), (x[0], 0))
    q = QC(*x)
    assert QC.coerce(q) is q
    assert_matches(-q, (-x[0], -x[1]))
    assert_matches(q.conjugate(), (x[0], -x[1]))


@SETTINGS
@given(pairs, pairs)
def test_field_operations(x, y):
    qx, qy = QC(*x), QC(*y)
    assert_matches(qx + qy, ref_add(x, y))
    assert_matches(qx - qy, ref_sub(x, y))
    assert_matches(qx * qy, ref_mul(x, y))
    assert (qx == qy) == (ref_qc(x) == ref_qc(y))
    assert (qx != qy) == (ref_qc(x) != ref_qc(y))
    if y[0] or y[1]:
        assert_matches(qx / qy, ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            qx / qy


@SETTINGS
@given(pairs, scalars)
def test_mixed_operations_with_ints_and_fractions(x, s):
    q, y = QC(*x), (s, 0)
    assert_matches(q + s, ref_add(x, y))
    assert_matches(s + q, ref_add(y, x))
    assert_matches(q - s, ref_sub(x, y))
    assert_matches(s - q, ref_sub(y, x))
    assert_matches(q * s, ref_mul(x, y))
    assert_matches(s * q, ref_mul(y, x))
    assert (q == s) == (s == q) == (ref_qc(x) == ref_qc(y))
    if s:
        assert_matches(q / s, ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            q / s
    if x[0] or x[1]:
        assert_matches(s / q, ref_div(y, x))
    else:
        with pytest.raises(ZeroDivisionError):
            s / q


@SETTINGS
@given(pairs)
def test_equal_values_hash_equal(x):
    # a QC equal to an int or a Fraction finds it in a set and as a dict
    # key, and the other way round; a non-real QC equals only QCs
    re, im = ref_qc(x)
    q = QC(*x)
    assert hash(q) == hash(QC(re, im)) and q in {QC(re, im)}
    if im == 0:
        assert hash(q) == hash(re) and q in {re} and re in {q}
        assert len({q: 0, re: 1}) == 1
        if re.denominator == 1:
            assert hash(q) == hash(int(re)) and int(re) in {q} and q in {int(re)}
    else:
        assert re not in {q} and complex(re, im) not in {q}


def test_equal_values_hash_equal_examples():
    assert 2 in {QC(2)} and QC(2) in {2}
    assert QC(Fraction(1, 2)) in {Fraction(1, 2)} and Fraction(1, 2) in {QC(Fraction(1, 2))}
    assert QC(0) in {0} and QC(-3, 0) in {-3}
    assert QC(Fraction(2, 4), 1) in {QC(Fraction(1, 2), Fraction(3, 3))}
    assert QC(1, 2) not in {1, 2, complex(1, 2)}


@pytest.mark.parametrize("bad", [0.5, 1.0, float("nan"), 1j, complex(1, 0), "1", None])
def test_inexact_arguments_raise_type_error(bad):
    with pytest.raises(TypeError):
        QC(bad)
    with pytest.raises(TypeError):
        QC(1, bad)
    with pytest.raises(TypeError):
        QC(1) + bad
    with pytest.raises(TypeError):
        QC(1) * bad
    assert QC(1) != bad and not QC(1) == bad


def test_immutable():
    q = QC(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        q.re = Fraction(1)
    with pytest.raises(AttributeError):
        q._a = 7
    assert (q.re, q.im) == (Fraction(1, 2), 3)

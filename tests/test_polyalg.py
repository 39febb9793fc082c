"""Exact polynomial algebra, harmonic bases, su(2) matrices, Hamiltonians."""

import math
import random
import sys
from fractions import Fraction
from types import ModuleType

import pytest
import sympy
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rotorspec import asymmetric_spectrum, diagonalized_spectrum, levels, polyalg, verify
from rotorspec.errors import HamiltonianOverflowError, RepresentationClosureError
from rotorspec.polyalg import (
    Polynomial,
    antipodal_sign,
    apply_j3,
    apply_jminus,
    apply_jplus,
    casimir_matrix,
    charpoly,
    eigenvalues,
    generator_matrix,
    hamiltonian_matrix,
    harmonic_basis,
    harmonic_basis_r3,
    laplacian_r3,
    laplacian_r4,
    mat_commutator,
    mat_equal,
    mat_mul,
    pairing_weights,
    sphere_laplacian_r3,
    vector_field_matrix,
)
from rotorspec.polyalg import operators, polynomial, rational_linalg, spaces
from rotorspec.levels import EXACT_DEGREE_MAX, _float_band, _ql_levels, _species_levels, band_record, band_species, degree_band
from rotorspec.polyalg.operators import AXES, _generator_square, _ladder, _raw_matrix
from rotorspec.polyalg.rational_linalg import mat_add, mat_scale, mat_sub, nullspace
from rotorspec.quantum_structures import BundleKind, parity_projects
from rotorspec.verify import _band_rows, _species_rows

Z1 = Polynomial.monomial(4, (1, 0, 0, 0))
Z2 = Polynomial.monomial(4, (0, 1, 0, 0))
ZB1 = Polynomial.monomial(4, (0, 0, 1, 0))
ZB2 = Polynomial.monomial(4, (0, 0, 0, 1))


def test_laplacian_r4_examples():
    assert not laplacian_r4(Z1)
    assert laplacian_r4(Z1 * ZB1) == Polynomial.monomial(4, (0, 0, 0, 0), 4)
    assert not laplacian_r4(Z1 * ZB1 - Z2 * ZB2)


def test_harmonic_basis_small_cases():
    assert [str(b) for b in harmonic_basis(0, 0).basis] == ["1"]
    space = harmonic_basis(1, 0)
    assert set(map(str, space.basis)) == {"z1", "z2"}
    space = harmonic_basis(1, 1)
    assert space.dim == 3
    assert Z1 * ZB1 - Z2 * ZB2 in space.basis
    for b in space.basis:
        assert not laplacian_r4(b)
        assert {(e[0] + e[1], e[2] + e[3]) for e in b.terms} == {(1, 1)}


def test_dimension_identities():
    for d in range(9):
        dims = [harmonic_basis(p, d - p).dim for p in range(d + 1)]
        assert dims == [d + 1] * (d + 1)
        assert sum(dims) == (d + 1) ** 2


def test_generator_j3_eigenvalues():
    m = vector_field_matrix(3, 1, 0)
    assert all(not x for i, row in enumerate(m) for k, x in enumerate(row) if i != k)
    assert sorted(m[i][i] for i in range(2)) == [Fraction(-1, 2), Fraction(1, 2)]
    m = vector_field_matrix(3, 1, 1)
    assert sorted(m[i][i] for i in range(3)) == [-1, 0, 1]


def _paper_generators(p, q):
    """The paper's J1, J2, J3 and L_a = -i J_a on H^{p,q} as sympy
    matrices, from the Chevalley matrices of the polynomial route:
    J1 = (Jp + Jm) / 2 and J2 = (Jp - Jm) / (2i)."""
    jp, jm, j3 = (sympy.Matrix(vector_field_matrix(axis, p, q)) for axis in AXES)
    j = {1: (jp + jm) / 2, 2: ((jp - jm) / (2 * sympy.I)).expand(), 3: j3}
    return j, {a: (-sympy.I * m).expand() for a, m in j.items()}


def test_su2_commutators_exact():
    # the paper's form over Q(i): [J1, J2] = i J3 and [L1, L2] = L3
    # cyclically, and J1^2 + J2^2 + J3^2 = j(j+1) Id
    for p, q in _blocks(4):
        j, l = _paper_generators(p, q)
        n = p + q + 1
        for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            assert (j[a] * j[b] - j[b] * j[a] - sympy.I * j[c]).expand() == sympy.zeros(n, n)
            assert (l[a] * l[b] - l[b] * l[a] - l[c]).expand() == sympy.zeros(n, n)
        casimir = (j[1] ** 2 + j[2] ** 2 + j[3] ** 2).expand()
        assert casimir == sympy.Rational((p + q) * (p + q + 2), 4) * sympy.eye(n)


def test_adjointness_flags():
    # under the pairing weights W = diag(w): J_a is self-adjoint (W J_a =
    # J_a^H W) and L_a skew-adjoint, and for p + q >= 1 neither is both
    for p, q in _blocks(4):
        weights = sympy.diag(*pairing_weights(p, q))
        j, l = _paper_generators(p, q)
        for a in (1, 2, 3):
            for m, sign in ((j[a], 1), (l[a], -1)):
                assert (weights * m - sign * m.H * weights).expand().is_zero_matrix
                assert (weights * m + sign * m.H * weights).expand().is_zero_matrix == (p + q == 0)


def test_pairing_weights_positive():
    for p, q in ((1, 0), (2, 1), (3, 3)):
        assert all(w > 0 for w in pairing_weights(p, q))


def test_casimir_values():
    c = casimir_matrix(0, 0)
    assert c[0][0] == 0
    c = casimir_matrix(1, 0)
    assert not c[0][1] and not c[1][0] and c[0][0] == Fraction(3, 4)
    c = casimir_matrix(2, 1)
    d = 3
    assert all(c[i][i] == Fraction(d * (d + 2), 4) for i in range(len(c)))
    assert Fraction(d * (d + 2), 4) == Fraction(15, 4)


def test_casimir_commutes_with_generators_and_j3sq():
    for p, q in ((2, 0), (2, 2), (3, 1)):
        c = casimir_matrix(p, q)
        for axis in AXES:
            g = vector_field_matrix(axis, p, q)
            assert all(not x for row in mat_commutator(c, g) for x in row)
        j3 = vector_field_matrix(3, p, q)
        assert all(not x for row in mat_commutator(c, mat_mul(j3, j3)) for x in row)


def test_hamiltonian_spherical_block():
    space = harmonic_basis(1, 0)
    ham = hamiltonian_matrix(space, 1, 1, 1)
    assert not any(ham.lower) and not any(ham.upper)
    assert all(ham.diag[i] == Fraction(3, 8) for i in range(2))
    assert eigenvalues(1, *degree_band(1, band_record(1, 1, 1))) == [(Fraction(3, 8), True)] * 2
    space = harmonic_basis(0, 0)
    ham = hamiltonian_matrix(space, 2, 3, 4)
    assert ham.diag[0] == 0


def test_hamiltonian_asymmetric_triad():
    want = sorted([Fraction(3, 4), Fraction(2, 3), Fraction(5, 12)])
    for p, q in ((2, 0), (1, 1), (0, 2)):
        assert _self_adjoint(hamiltonian_matrix(harmonic_basis(p, q), 1, 2, 3))
    vals = eigenvalues(2, *degree_band(2, band_record(1, 2, 3)))
    assert [v for v, exact in vals] == want
    assert all(exact for _, exact in vals)


def test_hamiltonian_float_path_matches_exact():
    exact = eigenvalues(3, *degree_band(3, band_record(1, 2, 3)))
    approx = eigenvalues(3, *degree_band(3, band_record(1.0, 2.0, 3.0)))
    for (ve, _), (vf, _) in zip(exact, approx):
        assert float(ve) == pytest.approx(float(vf), rel=1e-12)


def test_hamiltonian_curvature_shift():
    space = harmonic_basis(1, 0)
    base = hamiltonian_matrix(space, 2, 2, 2)
    shifted = hamiltonian_matrix(space, 2, 2, 2, k=Fraction(1, 2), rho=Fraction(3, 4))
    assert shifted.diag[0] - base.diag[0] == Fraction(3, 8)


def test_representation_closure_guard():
    space = harmonic_basis(1, 1)
    with pytest.raises(RepresentationClosureError):
        _raw_matrix(space, lambda f: Z1 * f)  # z1 * f leaves the space


def _self_adjoint(ham):
    """w_(a+2) lower_a = w_a upper_a for the pairing weights w, exactly."""
    w = pairing_weights(ham.space.p, ham.space.q)
    return all(w[a + 2] * lo == w[a] * up for a, (lo, up) in enumerate(zip(ham.lower, ham.upper)))


def _squares(p, q):
    """J1^2, J2^2 and J3^2 on H^{p,q} as (diag, lower, upper) bands, read
    from the one square record: J2^2 is J1^2 with negated off-diagonals,
    J3^2 is diag(l^2)."""
    diag, lower, upper, l_squared = _generator_square(p, q)
    zeros = (Fraction(0),) * len(lower)
    return (
        (diag, lower, upper),
        (diag, tuple(-x for x in lower), tuple(-x for x in upper)),
        (l_squared, zeros, zeros),
    )


def _basis_by_elimination(p, q):
    """The basis of H^{p,q} by null-space extraction: fraction-free
    Gauss-Jordan on the Laplacian of each weight sector, its one kernel
    vector scaled to content 1 and a positive first coefficient, each
    element checked harmonic by polynomial differentiation."""
    basis = []
    for two_l in range(-p - q, p + q + 1, 2):
        monos, laplacian = _dict_sector_laplacian(p, q, two_l)
        kernel = nullspace(laplacian or [[0]])  # no rows: a one-monomial sector
        assert len(kernel) == 1, (p, q, two_l)
        element = Polynomial(4, dict(zip(monos, spaces._normalize_integer(kernel[0]))))
        assert not laplacian_r4(element)
        basis.append(element)
    return tuple(basis)


@pytest.mark.parametrize("d", range(13))
def test_closed_form_route_equals_polynomial_route(d):
    # bases against null-space extraction; the ladder, l-values, weights
    # and squares against the differential operators applied to the basis
    # polynomials, read back in coordinates; vector_field_matrix and
    # generator_matrix against both
    for p in range(d + 1):
        q = d - p
        space = harmonic_basis(p, q)
        assert space.basis == _basis_by_elimination(p, q)
        jp, jm, j3 = poly_route = [_raw_matrix(space, op) for op in (apply_jplus, apply_jminus, apply_j3)]
        for axis, rows in zip(AXES, poly_route):
            assert vector_field_matrix(axis, p, q) == generator_matrix(axis, p, q) == tuple(map(tuple, rows))
        alpha, beta = _ladder(p, q)
        assert jp == [[alpha[n] if m == n + 1 else 0 for n in range(d + 1)] for m in range(d + 1)]
        assert jm == [[beta[m] if n == m + 1 else 0 for n in range(d + 1)] for m in range(d + 1)]
        assert j3 == _band_rows(d + 1, space.l_values)
        plus, minus = mat_add(jp, jm), mat_sub(jp, jm)
        squares = (
            mat_scale(mat_mul(plus, plus), Fraction(1, 4)),
            mat_scale(mat_mul(minus, minus), Fraction(-1, 4)),
            mat_mul(j3, j3),
        )
        for square, want in zip(_squares(p, q), squares):
            assert _band_rows(d + 1, *square) == want
        weights = [Fraction(1)]
        for k in range(d):
            weights.append(weights[-1] * Fraction(jm[k][k + 1], jp[k + 1][k]))
        assert pairing_weights(p, q) == tuple(weights)


# (momenta, hbar0, k, rho): rational with k * rho != 0; (3, 3, 5) has
# I1 = I2, so every one of its blocks is diagonal
RATIONAL_JOBS = [
    ((1, Fraction(5, 2), Fraction(7, 3)), Fraction(2, 3), Fraction(1, 2), Fraction(3, 4)),
    ((Fraction(21, 8), Fraction(17, 8), Fraction(7, 2)), 1, Fraction(-1, 3), Fraction(5, 7)),
    ((3, 3, 5), Fraction(3, 2), 2, Fraction(1, 9)),
]
FLOAT_JOBS = [
    ((1.0, 2.0, 3.5), 1, 0, 0),
    ((0.7, 1.3, 2.9), 1.5, -0.25, 0.75),
    ((1, Fraction(5, 2), Fraction(7, 3)), 2.0, Fraction(1, 2), Fraction(3, 4)),
]


def _blocks(max_degree):
    return [(p, d - p) for d in range(max_degree + 1) for p in range(d + 1)]


@pytest.mark.parametrize("job", RATIONAL_JOBS, ids=["k_half", "negative_k", "diagonal"])
def test_continuant_equals_faddeev_leverrier(job):
    # the continuants of the species multiply to det(t - H) of the dense
    # band on every block: two Kramers copies of one class for odd d, four
    # Wang species for even d, with every species entry a Fraction
    momenta, hbar0, k, rho = job
    for p, q in _blocks(10):
        ham = hamiltonian_matrix(harmonic_basis(p, q), *momenta, hbar0, k, rho)
        products = [lo * up for lo, up in zip(ham.lower, ham.upper)]
        species = band_species(ham.diag, products, p + q)
        assert [count for *_, count in species] == ([2] if (p + q) % 2 else [1] * len(species))
        assert sum(len(diag) * count for diag, _, count in species) == p + q + 1
        assert all(type(x) is Fraction for diag, products, _ in species for x in (*diag, *products))
        coeffs = charpoly(_species_rows(species))
        assert coeffs == charpoly(_band_rows(len(ham.diag), ham.diag, ham.lower, ham.upper))
        assert len(coeffs) == p + q + 2 and coeffs[-1] == 1
        assert all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("job", RATIONAL_JOBS, ids=["k_half", "negative_k", "diagonal"])
def test_exact_band_equals_the_axis_by_axis_sum(job):
    # the two-square assembly gives the same Fractions as summing
    # (hbar0 / (2 I_a)) J_a^2 over the three axes
    momenta, hbar0, k, rho = job
    for p, q in _blocks(12):
        ham = hamiltonian_matrix(harmonic_basis(p, q), *momenta, hbar0, k, rho)
        n = p + q + 1
        diag, lower, upper = [Fraction(k) * rho] * n, [Fraction(0)] * (n - 2), [Fraction(0)] * (n - 2)
        for mom, (sq_diag, sq_lower, sq_upper) in zip(momenta, _squares(p, q)):
            coef = Fraction(hbar0) / (2 * Fraction(mom))
            diag = [x + coef * y for x, y in zip(diag, sq_diag)]
            lower = [x + coef * y for x, y in zip(lower, sq_lower)]
            upper = [x + coef * y for x, y in zip(upper, sq_upper)]
        assert (ham.diag, ham.lower, ham.upper) == (tuple(diag), tuple(lower), tuple(upper))
        assert all(type(x) is Fraction for x in ham.diag + ham.lower + ham.upper)
        assert _self_adjoint(ham)


@pytest.mark.parametrize("job", FLOAT_JOBS, ids=["plain", "shifted", "mixed"])
def test_float_input_is_read_as_the_rational_it_is(job):
    momenta, hbar0, k, rho = job
    for p, q in _blocks(6):
        ham = hamiltonian_matrix(harmonic_basis(p, q), *momenta, hbar0, k, rho)
        exact = [Fraction(x) for x in (*momenta, hbar0, k, rho)]
        assert ham == hamiltonian_matrix(harmonic_basis(p, q), *exact)
        assert all(type(x) is Fraction for x in ham.diag + ham.lower + ham.upper)


def _fraction_view(d, record):
    """S_d of a rational band_record as (diag, g) in Fractions: its integers
    over their denominator."""
    diag, g, den = degree_band(d, record)
    assert all(type(x) is int for x in (*diag, g, den))
    return tuple(Fraction(x, den) for x in diag), Fraction(g, den)


def _fraction_band(d, momenta, hbar0):
    """S_d formed in Fraction arithmetic from c_a = hbar0 / (2 I_a), as
    (diag, g)."""
    c1, c2, c3 = (Fraction(hbar0) / (2 * Fraction(mom)) for mom in momenta)
    sums = [(m * (d - m + 1) if m else 0) + ((m + 1) * (d - m) if m < d else 0) for m in range(d + 1)]
    return tuple((c1 + c2) / 4 * s + c3 / 4 * (2 * m - d) ** 2 for m, s in enumerate(sums)), (c1 - c2) / 4


positive_rationals = st.builds(Fraction, st.integers(1, 60), st.integers(1, 13))
nonzero_rationals = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 9))


@settings(max_examples=25, deadline=None)
@given(st.tuples(positive_rationals, positive_rationals, positive_rationals), positive_rationals, nonzero_rationals, nonzero_rationals)
def test_degree_band_matches_every_block(momenta, hbar0, k, rho):
    # S_d plus k rho has the diagonal of every block's band, and its
    # products g^2 P_m P_(m+1) are the band's lower * upper, exactly
    record = band_record(*momenta, hbar0)
    for d in range(13):
        diag, g = _fraction_view(d, record)
        products = [g * g * (m + 1) * (d - m) * (m + 2) * (d - m - 1) for m in range(d - 1)]
        for p in range(d + 1):
            band = hamiltonian_matrix(harmonic_basis(p, d - p), *momenta, hbar0, k, rho)
            assert tuple(x + k * rho for x in diag) == band.diag
            assert products == [lo * up for lo, up in zip(band.lower, band.upper)]


wide_rationals = st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**8))


@settings(max_examples=60, deadline=None)
@given(st.tuples(wide_rationals, wide_rationals, wide_rationals), wide_rationals | st.integers(1, 3**40), st.integers(0, 50))
def test_degree_band_is_the_fraction_formula(momenta, hbar0, d):
    # the integer band over one common denominator equals, entry for entry,
    # S_d formed in Fraction arithmetic from c_a = hbar0 / (2 I_a)
    assert _fraction_view(d, band_record(*momenta, hbar0)) == _fraction_band(d, momenta, hbar0)


def _float_formula(d, momenta, hbar0):
    """S_d of float input as (diag, g), each degree formed from the inputs
    themselves: c_a = float(hbar0) / (2 float(I_a)), diag_m = (c1 + c2)/4
    (P_(m-1) + P_m) + c3/4 (2m - d)^2 and g = (c1 - c2)/4."""
    c1, c2, c3 = (float(hbar0) / (2 * float(mom)) for mom in momenta)
    sums = [(m * (d - m + 1) if m else 0) + ((m + 1) * (d - m) if m < d else 0) for m in range(d + 1)]
    a, b = (c1 + c2) / 4, c3 / 4
    return tuple(a * s + b * (2 * m - d) ** 2 for m, s in enumerate(sums)), (c1 - c2) / 4


wide_floats = st.floats(1e-300, 1e300) | st.sampled_from([1e-300, 1e300, 1.5e308, 5e-324, 1.0])
unit_floats = st.floats(0.25, 4.0)
top_floats = st.floats(1e307, 1.7e308)  # where c1 + c2 can leave the float range


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(wide_floats | unit_floats, wide_floats | unit_floats, wide_floats | st.integers(1, 10**400)),
    wide_floats | top_floats | st.integers(1, 10**400),
    st.integers(0, 50),
)
@example((1.0, 2.0, 3.5), 1.6e201, 7)
@example((1e-300, 2e-300, 1.0), 1e300, 6)
@example((0.5, 0.6, 2.0), 1e308, 0)
@example((0.5, 0.6, 2.0), 1e308, 3)
@example((1.0, 1.0, 2.0), 1.7e308, 4)
def test_float_band_is_the_per_degree_float_formula(momenta, hbar0, d):
    # the float record's band (over 1) is, bit for bit, S_d formed from the
    # inputs on each degree wherever c1 + c2 is finite; where only the sum
    # leaves the float range, a is the finite sum of the quarters; an
    # OverflowError of the formula is the record's HamiltonianOverflowError
    try:
        want = _float_formula(d, momenta, hbar0)
    except OverflowError:
        with pytest.raises(HamiltonianOverflowError):
            band_record(*momenta, hbar0)
        return
    c1, c2 = (float(hbar0) / (2 * float(mom)) for mom in momenta[:2])
    record = band_record(*momenta, hbar0)
    if c1 + c2 == math.inf > max(c1, c2):
        assert record[0] == c1 / 4 + c2 / 4 < math.inf
        return
    diag, g, den = degree_band(d, record)
    assert den == 1 and all(type(x) is float for x in (*diag, g))
    assert [x.hex() for x in (*diag, g)] == [x.hex() for x in (*want[0], want[1])]


@pytest.mark.parametrize("momenta", [(8, Fraction(17, 7), Fraction(53, 11)), (Fraction(17, 7), 8, Fraction(53, 11))], ids=["g<0", "g>0"])
def test_exact_and_float_species_pair_by_sign(momenta):
    # the Wang fold of an even-length class subtracts, then adds, |e| on the
    # exact and the float view alike, so the species of an exact band and
    # of its float entries agree species by species, whatever the sign of g
    record = band_record(*momenta)
    for d in range(2, 13, 2):
        diag, g, den = degree_band(d, record)
        products = [g * g * (m + 1) * (d - m) * (m + 2) * (d - m - 1) for m in range(d - 1)]
        fdiag, off = _float_band(d, diag, g, den)
        assert (g < 0) == (momenta[0] == 8)
        scale = 1e-12 * max(map(abs, (*fdiag, *off)))
        exact, floats = band_species(diag, products, d), band_species(fdiag, off, d)
        assert [(len(sd), count) for sd, _, count in exact] == [(len(sd), count) for sd, _, count in floats]
        for (ed, ep, _), (fd, fo, _) in zip(exact, floats):
            assert all(math.isclose(x / den, y, abs_tol=scale) for x, y in zip(ed, fd)), d
            assert all(math.isclose(p / den**2, y * y, rel_tol=1e-12) for p, y in zip(ep, fo)), d


def _tql1_reference(diag, off):
    """The implicit QL sweep of tql1 as _ql_levels first wrote it: the
    trailing diagonal rebuilt as a new list at every shift, every entry
    read from its list at each use, and a one-entry species swept like any
    other; the reference _ql_levels is pinned to bit for bit."""
    top = max(map(abs, (*diag, *off)))
    if not math.isfinite(top):
        raise HamiltonianOverflowError()
    if not top:
        return [0.0] * len(diag)
    e = math.frexp(top)[1]
    d = [math.ldexp(x, -e) for x in diag]
    sub = [*(math.ldexp(x, -e) for x in off), 0.0]
    n, f, tst1, hypot = len(d), 0.0, 0.0, math.hypot
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(sub[l]))
        m = l
        while tst1 + abs(sub[m]) != tst1:
            m += 1
        if m > l:
            for _ in range(30):
                g = d[l]
                p = (d[l + 1] - g) / (2 * sub[l])
                r = math.copysign(hypot(p, 1.0), p)
                d[l] = sub[l] / (p + r)
                d[l + 1] = dl1 = sub[l] * (p + r)
                h = g - d[l]
                d[l + 2 :] = [x - h for x in d[l + 2 :]]
                f += h
                p, c, c2, s, s2, el1 = d[m], 1.0, 1.0, 0.0, 0.0, sub[l + 1]
                for i in range(m - 1, l - 1, -1):
                    c3, c2, s2 = c2, c, s
                    g, h = c * sub[i], c * p
                    r = hypot(p, sub[i])
                    sub[i + 1] = s * r
                    s, c = sub[i] / r, p / r
                    p = c * d[i] - s * g
                    d[i + 1] = h + s * (c * g + s * d[i])
                p = -s * s2 * c3 * el1 * sub[l] / dl1
                sub[l], d[l] = s * p, c * p
                if tst1 + abs(sub[l]) == tst1:
                    break
            else:
                raise ArithmeticError("the QL sweep did not converge in 30 iterations")
        d[l] += f
    try:
        return [math.ldexp(x, e) for x in d]
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc


def _random_species(rng, n):
    """A species of n entries: signed mantissas in [1/2, 1) at exponents
    within 8 of a centre anywhere from the subnormals to the top of the
    float range, or, one time in three, anywhere in 2^+-1000; 0.0 and -0.0
    on the diagonal, zero and tiny (2^-60 of the centre) off-diagonals, and
    now and then an infinity, or a NaN first."""
    centre, wide = rng.randint(-1080, 1024), rng.random() < 1 / 3

    def entry():
        exponent = rng.randint(-1000, 1000) if wide else min(centre + rng.randint(-8, 8), 1024)
        return rng.choice((-1, 1)) * math.ldexp(rng.uniform(0.5, 1), exponent)

    diag = [rng.choice((0.0, -0.0)) if rng.random() < 0.1 else entry() for _ in range(n)]
    off = [rng.choice((0.0, math.ldexp(1.0, centre - 60))) if rng.random() < 0.2 else entry() for _ in range(n - 1)]
    if rng.random() < 0.03:
        cells = (diag, off) if off else (diag,)
        cell = rng.choice(cells)
        cell[rng.randrange(len(cell))] = rng.choice((math.inf, -math.inf))
    elif rng.random() < 0.01:
        diag[0] = math.nan
    return diag, off


def _sweep_outcome(sweep, diag, off):
    """The levels of a sweep by float.hex, or the name of what it raised:
    HamiltonianOverflowError, ArithmeticError where it does not converge,
    or, on a few species of the widest spread, the error its NaNs lead to."""
    try:
        return [v.hex() for v in sweep(list(diag), list(off))]
    except Exception as exc:
        return type(exc).__name__


def test_the_ql_sweep_keeps_the_bits_of_the_reference_sweep():
    # sizes 1-26, those of the species of every degree up to 2 J_MAX_CAP;
    # the levels agree by float.hex, and HamiltonianOverflowError (a
    # non-finite entry, a level beyond the float range) is raised on the
    # same inputs
    rng, seen = random.Random("tql1 bit for bit"), set()
    for n in range(1, 27):
        for _ in range(120):
            diag, off = _random_species(rng, n)
            want = _sweep_outcome(_tql1_reference, diag, off)
            assert _sweep_outcome(_ql_levels, diag, off) == want, (diag, off)
            seen.add(want if type(want) is str else "levels")
            if type(want) is list and any(0 < abs(x) < sys.float_info.min for x in (*diag, *off)):
                seen.add("subnormal input")
    assert {"levels", "subnormal input", "HamiltonianOverflowError"} <= seen
    for diag, off in (([math.inf], []), ([1.0, 2.0], [-math.inf]), ([math.nan, 1.0], [1.0]), ([1.5e308] * 2, [1.5e308])):
        assert _sweep_outcome(_tql1_reference, diag, off) == "HamiltonianOverflowError"
        with pytest.raises(HamiltonianOverflowError):
            _ql_levels(diag, off)
    for x in (0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 1.5):
        assert _ql_levels([x], []) == _tql1_reference([x], []) and _ql_levels([x], [])[0].hex() == (x + 0.0).hex()


def _fraction_species_levels(diag, products):
    """The levels of a species of one or two Fraction entries as the
    Fraction solver computed them: exact when ((a_0 - a_1)/2)^2 + products[0]
    is a rational square, else float(m -+ r) with r its square root to
    2^-80 relative, taken from its lowest terms."""
    if len(diag) == 1:
        return [(diag[0], True)]
    mid, r2 = (diag[0] + diag[1]) / 2, ((diag[0] - diag[1]) / 2) ** 2 + products[0]
    num, den = math.isqrt(r2.numerator), math.isqrt(r2.denominator)
    if num * num == r2.numerator and den * den == r2.denominator:
        r = Fraction(num, den)
        return [(mid - r, True), (mid + r, True)]
    r = Fraction(math.isqrt(r2.numerator * r2.denominator << 160), r2.denominator << 80)
    return [(float(mid - r), False), (float(mid + r), False)]


def _fraction_route(d, diag, g):
    """The levels of the Fraction band S_d = (diag, g) by the route that
    takes every entry through Fraction and float(): the diagonal when g = 0
    or d < 2, the species solved in Fractions up to EXACT_DEGREE_MAX, and
    above it _ql_levels of the species of float(entry).  A float(Fraction)
    beyond the float range raises OverflowError."""
    if not g or d < 2:
        return [(v, True) for v in sorted(diag)]
    pairs = [(m + 1) * (d - m) * (m + 2) * (d - m - 1) for m in range(d - 1)]
    if d <= EXACT_DEGREE_MAX:
        species = band_species(diag, [g * g * x for x in pairs], d)
        return sorted((lv for sd, sp, count in species for lv in _fraction_species_levels(sd, sp) * count), key=lambda t: t[0])
    fdiag, fg = [float(x) for x in diag], float(g)
    off = [fg * math.sqrt(x) for x in pairs]
    if not all(map(math.isfinite, (*fdiag, *off))):
        raise OverflowError
    species = band_species(fdiag, off, d)
    return [(v, False) for v in sorted(v for sd, so, count in species for v in _ql_levels(sd, so) * count)]


def _band_det(diag, products, t):
    """det(t - S) of the band with the diagonal diag and the products
    products[m] of its pair at (m, m+2), (m+2, m): the product of the
    continuants of its two parity classes."""
    det = 1
    for s in (0, 1):
        prev, cur = 0, 1
        for k, x in enumerate(diag[s::2]):
            prev, cur = cur, (t - x) * cur - (products[s::2][k - 1] * prev if k else 0)
        det *= cur
    return det


def _integer_route_verdict(momenta, hbar0, d):
    """Compare the levels of S_d on the integer route (degree_band of
    band_record) with _fraction_route of the Fraction band: the same type
    and repr level by level, every exact level a root of det(t - S_d), or
    an overflow on both.  Returns "overflow" or "levels"."""
    diag, g = _fraction_band(d, momenta, hbar0)
    band = degree_band(d, band_record(*momenta, hbar0))
    try:
        want = _fraction_route(d, diag, g)
    except (OverflowError, HamiltonianOverflowError):
        with pytest.raises(HamiltonianOverflowError):
            eigenvalues(d, *band)
        return "overflow"
    got = eigenvalues(d, *band)
    assert [(type(v), repr(v), exact) for v, exact in got] == [(type(v), repr(v), exact) for v, exact in want]
    products = [g * g * (m + 1) * (d - m) * (m + 2) * (d - m - 1) for m in range(d - 1)]
    assert all(_band_det(diag, products, v) == 0 for v, exact in want if exact)
    return "levels"


# numerators within a few decades of the float range's ends (c_a = hbar0 /
# 2 I_a then overflows or underflows) or of 1, over denominators up to 10^8
edge_rationals = st.builds(
    lambda mantissa, exponent, den: Fraction(mantissa * 10 ** max(exponent, 0), den * 10 ** max(-exponent, 0)),
    st.integers(1, 10**6),
    st.integers(-330, -290) | st.integers(-4, 4) | st.integers(290, 330),
    st.integers(1, 10**8) | st.just(10**8 + 7),
)


@pytest.mark.parametrize(
    "momenta, hbar0, d",
    [
        ((Fraction(1, 10**310), 1, 2), 1, 7),  # c1 ~ 1e310: an entry beyond the float range
        ((Fraction(1, 10**308), Fraction(3, 10**308), Fraction(2, 10**308)), 1, 4),  # an irrational level beyond it
        ((1, 2, Fraction(7, 2)), Fraction(10**320, 3), 12),  # hbar0 beyond it
    ],
)
def test_the_integer_route_overflows_where_the_fraction_route_does(momenta, hbar0, d):
    assert _integer_route_verdict(momenta, hbar0, d) == "overflow"


@settings(max_examples=150, deadline=None)
@given(st.tuples(edge_rationals, edge_rationals, edge_rationals), edge_rationals | st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)), st.integers(0, 50))
@example((1, 2, Fraction(7, 2)), 1, 4)
@example((Fraction(10**8 + 7, 3), Fraction(5, 10**8 + 7), Fraction(10**300, 7)), Fraction(2, 3), 3)
def test_integer_route_levels_are_bit_identical_to_the_fraction_route(momenta, hbar0, d):
    # exact levels are Fractions equal to the Fraction solver's and roots
    # of det(t - S_d); float levels equal its floats repr for repr (each
    # exact entry one correctly rounded int/int division, as float(Fraction)
    # is); an overflow on one route is an overflow on the others
    event(_integer_route_verdict(momenta, hbar0, d))


def test_a_momentum_below_the_float_range_is_read_exactly():
    # float(10^-400) is 0.0, so c_a = hbar0 / (2 I_a) is formed exactly and
    # rounded once: beyond the float range it is an overflow, and with hbar0
    # also below it c1 is 1/2 and c2, c3 round to 0.0
    tiny = Fraction(1, 10**400)
    with pytest.raises(HamiltonianOverflowError):
        diagonalized_spectrum(tiny, 2.0, 3.0, BundleKind.PLUS, j_max=1)
    assert band_record(tiny, 2.0, 3.0, tiny) == (0.125, 0.0, 0.125, 1)
    spectrum = diagonalized_spectrum(tiny, 2.0, 3.0, BundleKind.PLUS, hbar0=tiny, j_max=1)
    assert [(ln.energy, ln.multiplicity) for ln in spectrum.lines] == [(0.0, 1), (0.0, 3), (0.5, 6)]


def test_an_overflow_from_a_sub_float_momentum_says_so():
    # the exact fallback of band_record names the momentum; every other
    # overflow, a large hbar among them, keeps the default text
    tiny = Fraction(1, 10**400)
    with pytest.raises(HamiltonianOverflowError) as raised:
        diagonalized_spectrum(tiny, 2.0, 3.0, BundleKind.PLUS, j_max=1)
    assert str(raised.value) == "a principal momentum below the float range: the float Hamiltonian leaves the float range"
    for momenta, hbar0 in (((1.0, 2.0, 3.0), 10**400), ((tiny, 2.0, 3.0), 10**400), ((1e-300, 2.0, 3.0), 1e300)):
        with pytest.raises(HamiltonianOverflowError) as raised:
            diagonalized_spectrum(*momenta, BundleKind.PLUS, hbar0=hbar0, j_max=1)
        assert str(raised.value) == "hbar or k too large: the float Hamiltonian leaves the float range"


def test_an_overflow_of_the_exact_route_from_a_sub_float_momentum_says_so():
    # all-rational momenta give an exact band, which overflows where its
    # levels are taken as floats: at hbar0 = 1 and k = 0 the message names
    # the momentum, on both diagonalized routes, and hbar0 = 10^400 keeps
    # the default text
    tiny = Fraction(1, 10**400)
    for run in (diagonalized_spectrum, asymmetric_spectrum):
        with pytest.raises(HamiltonianOverflowError) as raised:
            run(tiny, 2, 3, BundleKind.PLUS, j_max=1)
        assert str(raised.value) == "a principal momentum below the float range: the float Hamiltonian leaves the float range"
    with pytest.raises(HamiltonianOverflowError) as raised:
        diagonalized_spectrum(1, 2, 3, BundleKind.PLUS, hbar0=10**400, j_max=1)
    assert str(raised.value) == "hbar or k too large: the float Hamiltonian leaves the float range"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5), min_size=1, max_size=5))
def test_nullspace_of_an_integer_matrix(rows):
    # a basis of the kernel, one vector per free column with that entry 1,
    # of the dimension sympy's rank gives
    basis = nullspace(rows)
    assert len(basis) == 5 - sympy.Matrix(rows).rank()
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        assert all(type(x) in (int, Fraction) for x in v)
        # its free column: 1 here, 0 in every other vector
        assert any(x == 1 and all(w[i] == 0 for w in basis if w is not v) for i, x in enumerate(v))


def _refuse_everywhere(monkeypatch, owner, name):
    """Make owner.name raise, under every name a rotorspec module binds it to."""
    real = getattr(owner, name)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    for module_name, module in list(sys.modules.items()):
        if module_name == "rotorspec" or module_name.startswith("rotorspec."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, refuse)


def test_diagonalized_spectrum_reads_only_the_degree_band(monkeypatch):
    # S_d depends on the degree alone: no harmonic space, ladder, pairing
    # weight or block band is built for a spectrum, on either bundle, for
    # float and rational input, up to the cap
    for owner, name in ((spaces, "harmonic_basis"), (operators, "_ladder"), (operators, "pairing_weights"), (operators, "hamiltonian_matrix")):
        _refuse_everywhere(monkeypatch, owner, name)
    for momenta, k in (((1.0, 2.0, 3.5), 0.25), ((1, 2, Fraction(7, 2)), Fraction(5, 21))):
        for bundle in (BundleKind.PLUS, BundleKind.MINUS):
            spec = diagonalized_spectrum(*momenta, bundle, k=k, j_max=25)
            degrees = range(bundle is BundleKind.MINUS, 51, 2)
            assert sum(ln.multiplicity for ln in spec.lines) == sum((d + 1) ** 2 for d in degrees)
    with pytest.raises(AssertionError, match="hamiltonian_matrix called"):
        operators.hamiltonian_matrix(None, 1, 2, 3)


def test_ladder_closure_check_rejects_a_corrupted_sector():
    # sector 1 of H^{2,1} is (2, -1): doubled to (4, -1) it keeps content 1
    # and its sign, but breaks the closure Jp b_0 = alpha_0 b_1, which the
    # verify sweep checks; a fresh space takes the corrupted vectors as its
    # cached sectors, before its basis polynomials are built
    spaces.harmonic_basis.cache_clear()
    try:
        space = harmonic_basis(2, 1)
        (first, c), *rest = space.sectors[1]
        space.__dict__["sectors"] = space.sectors[:1] + (((first, 2 * c), *rest),) + space.sectors[2:]
        ok, detail = verify.check_dimensions(3)
    finally:
        spaces.harmonic_basis.cache_clear()
    assert not ok
    assert detail == "ladder closure fails on basis element 0 of H^(2,1)"


def test_ladder_coordinates_are_integers():
    for p, q in _blocks(12):
        alpha, beta = operators._ladder(p, q)
        assert len(alpha) == len(beta) == p + q
        assert all(type(x) is int for x in alpha + beta)
        assert all(type(c) is int for sector in harmonic_basis(p, q).sectors for _, c in sector)


def test_hot_path_builds_no_polynomial(monkeypatch):
    # cold caches, so every harmonic space, ladder, weight and square record
    # of the spectra below is built under the patch
    for module in (spaces, operators):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("Polynomial built on the asymmetric hot path")

    # the constructor of Polynomial refuses, and no code of the polynomial
    # or the dense-matrix module runs, so no other route can build one
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    watched = {polynomial.__file__, rational_linalg.__file__}
    ran = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in watched:
            ran.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for momenta, k in (((1.0, 2.0, 3.5), 0.25), ((1, Fraction(5, 2), Fraction(7, 3)), Fraction(1, 2))):
            for bundle in (BundleKind.PLUS, BundleKind.MINUS):
                spec = asymmetric_spectrum(*momenta, bundle, k=k, j_max=3)
                degrees = range(bundle is BundleKind.MINUS, 7, 2)
                assert sum(ln.multiplicity for ln in spec.lines) == sum((d + 1) ** 2 for d in degrees)
    finally:
        sys.setprofile(None)
    assert not ran, f"hot path ran {sorted(ran)}"


# the names the package exports, by the module that defines them
POLYALG_EXPORTS = {
    levels: ("band_record", "degree_band", "eigenvalues"),
    operators: (
        "apply_j3", "apply_jminus", "apply_jplus", "casimir_matrix", "generator_matrix", "hamiltonian_matrix",
        "pairing_weights", "vector_field_matrix",
    ),
    polynomial: ("Polynomial", "antipodal_sign", "laplacian_r3", "laplacian_r4", "sphere_laplacian_r3"),
    rational_linalg: ("charpoly", "mat_commutator", "mat_equal", "mat_mul"),
    spaces: ("harmonic_basis", "harmonic_basis_r3"),
}


def test_polyalg_exports_its_submodules_own_objects():
    # the package's public names, its submodules aside, are these and no
    # others, each the object its module defines
    exported = {name for name, value in vars(polyalg).items() if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == {name for names in POLYALG_EXPORTS.values() for name in names}
    for module, names in POLYALG_EXPORTS.items():
        for name in names:
            assert getattr(polyalg, name) is getattr(module, name), name
    assert levels.eigenvalues is operators.eigenvalues


def test_antipodal_parity_matches_bundles():
    for d in range(7):
        for p in range(d + 1):
            for b in harmonic_basis(p, d - p).basis:
                sign = antipodal_sign(b)
                assert sign == (-1) ** d
                assert parity_projects(d, BundleKind.PLUS) == (sign == 1)


def test_charpoly_and_rational_roots():
    m = [[2, 1], [0, 3]]
    coeffs = charpoly(m)  # (t-2)(t-3) = t^2 - 5t + 6
    assert coeffs == [Fraction(6), Fraction(-5), Fraction(1)]
    # as a species (diag (2, 3), product 1 * 0) its roots are exact; with
    # the product 1 * 1 they are (5 -+ sqrt(5)) / 2, irrational, so floats;
    # the species is given as integers over a denominator (over 2 its
    # diagonal is (4, 6) and its products are over 4)
    for den in (1, 2):
        assert _species_levels((2 * den, 3 * den), (0,), den) == [(2, True), (3, True)]
        low, high = _species_levels((2 * den, 3 * den), (den * den,), den)
        assert low == ((5 - math.sqrt(5)) / 2, False) and high == ((5 + math.sqrt(5)) / 2, False)


def test_harmonic_basis_r3():
    assert [str(b) for b in harmonic_basis_r3(0).basis] == ["1"]
    assert set(map(str, harmonic_basis_r3(1).basis)) == {"x", "y", "z"}
    space = harmonic_basis_r3(2)
    assert space.dim == 5
    for b in space.basis:
        assert not laplacian_r3(b)


def test_sphere_laplacian_eigenvalue():
    for ell in (0, 1, 2, 3, 4):
        for b in harmonic_basis_r3(ell).basis:
            assert sphere_laplacian_r3(b, ell) == b.scale(-ell * (ell + 1))


def _random_sparse(rng, n, m):
    """An n x m matrix, about two thirds zeros, with int and Fraction
    entries, one zero row and one zero column."""
    def entry():
        if rng.random() < 2 / 3:
            return 0
        if rng.random() < 1 / 2:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    rows = [[entry() for _ in range(m)] for _ in range(n)]
    rows[rng.randrange(n)] = [0] * m
    column = rng.randrange(m)
    for row in rows:
        row[column] = 0
    return rows


def test_sparse_matrix_kernels_equal_their_definitions():
    # mat_mul skips the zeros of both factors; it must equal the textbook
    # triple sum, and mat_add, mat_sub and mat_scale the entrywise forms
    rng = random.Random(20250125)
    for _ in range(200):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        a, b, c = _random_sparse(rng, n, k), _random_sparse(rng, k, m), _random_sparse(rng, n, k)
        want = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
        assert mat_mul(a, b) == want
        assert mat_add(a, c) == [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]
        assert mat_sub(a, c) == [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]
        s = rng.choice([0, 3, Fraction(-2, 7), Fraction(5, 2)])
        assert mat_scale(a, s) == [[x * s for x in row] for row in a]


small_rationals = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3))
exponents = st.tuples(*(st.integers(0, 2) for _ in range(4)))
polys = st.dictionaries(exponents, small_rationals, max_size=6).map(lambda terms: Polynomial(4, terms))
factors = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4))


@settings(max_examples=200, deadline=None)
@given(polys, polys, factors)
def test_polynomial_ring_operations_store_valid_terms(f, g, factor):
    # the ring operations build their results without the constructor's
    # validation: each must store no zero coefficient and equal the
    # polynomial the public constructor makes of its terms and of the
    # textbook definition (small coefficients make cancellations frequent)
    def naive_sum(x, y, sign):
        exps = set(x.terms) | set(y.terms)
        return {e: x.terms.get(e, 0) + sign * y.terms.get(e, 0) for e in exps}

    product = {}
    for d, x in f.terms.items():
        for e, c in g.terms.items():
            key = tuple(map(sum, zip(d, e)))
            product[key] = product.get(key, 0) + x * c
    results = {
        "add": (f + g, naive_sum(f, g, 1)),
        "sub": (f - g, naive_sum(f, g, -1)),
        "neg": (-f, {e: -c for e, c in f.terms.items()}),
        "scale": (f.scale(factor), {e: c * factor for e, c in f.terms.items()}),
        "cancel": (f - f, {}),
        "mul": (f * g, product),
    }
    for name, (result, definition) in results.items():
        assert all(type(c) in (int, Fraction) and c for c in result.terms.values()), name
        assert result == Polynomial(4, result.terms) == Polynomial(4, definition), name


def _diff(f, var):
    """d f / d x_var, term by term."""
    return Polynomial(f.nvars, {(*e[:var], e[var] - 1, *e[var + 1 :]): c * e[var] for e, c in f.terms.items() if e[var]})


def _mul_var(f, var):
    """x_var f, term by term."""
    return Polynomial(f.nvars, {(*e[:var], e[var] + 1, *e[var + 1 :]): c for e, c in f.terms.items()})


def _x_d(f, var, down):
    """x_var d f / d x_down."""
    return _mul_var(_diff(f, down), var)


# reference forms of the operators: compositions of _diff, _mul_var, + and
# scale, summing the terms in the order of apply_operator's tables
CHAINED_R4 = {
    apply_jplus: lambda f: _x_d(f, 0, 1) - _x_d(f, 3, 2),
    apply_jminus: lambda f: _x_d(f, 1, 0) - _x_d(f, 2, 3),
    apply_j3: lambda f: (_x_d(f, 0, 0) - _x_d(f, 1, 1) - _x_d(f, 2, 2) + _x_d(f, 3, 3)).scale(Fraction(1, 2)),
    laplacian_r4: lambda f: (_diff(_diff(f, 0), 2) + _diff(_diff(f, 1), 3)) * 4,
}
CHAINED_R3 = {
    laplacian_r3: lambda f: Polynomial(3) + _diff(_diff(f, 0), 0) + _diff(_diff(f, 1), 1) + _diff(_diff(f, 2), 2),
    polynomial.euler_r3: lambda f: Polynomial(3) + _x_d(f, 0, 0) + _x_d(f, 1, 1) + _x_d(f, 2, 2),
}


def _typed(poly):
    return {e: (c, type(c)) for e, c in poly.terms.items()}


def _assert_chained(chained, f):
    for op, composed in chained.items():
        assert _typed(op(f)) == _typed(composed(f)), (op.__name__, f)


polys3 = st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in range(3))), small_rationals, max_size=8).map(
    lambda terms: Polynomial(3, terms)
)


@settings(max_examples=300, deadline=None)
@given(polys)
@example(Z1 * ZB1 - Z2 * ZB2)
def test_one_pass_r4_operators_equal_their_compositions(f):
    # term for term, coefficient types included, where terms cancel and
    # where int and Fraction coefficients meet
    _assert_chained(CHAINED_R4, f)


@settings(max_examples=300, deadline=None)
@given(polys3)
# the sum over x, y, z gives the constant term 2 - 2 (a Fraction), which
# cancels, then 4, an int; the polynomial lists z^2 before y^2, so summing
# in its term order would give the Fraction 4
@example(Polynomial(3, {(2, 0, 0): 1, (0, 0, 2): 2, (0, 2, 0): Fraction(-1)}))
def test_one_pass_r3_operators_equal_their_compositions(f):
    _assert_chained(CHAINED_R3, f)


def test_one_pass_operators_equal_their_compositions_on_the_bases():
    for p, q in _blocks(12):
        for b in harmonic_basis(p, q).basis:
            _assert_chained(CHAINED_R4, b)
    for ell in range(9):
        for b in harmonic_basis_r3(ell).basis:
            _assert_chained(CHAINED_R3, b)


def test_sector_listing_equals_the_monomial_scan():
    # _sector_monomials lists a sector directly and feeds both the closed
    # form and the weight-sector certificate; a scan of all (p+1)(q+1) monomials
    # in descending lexicographic order is its independent check
    for p in range(26):
        for q in range(26):
            scan = {}
            for a in range(p, -1, -1):
                for c in range(q, -1, -1):
                    scan.setdefault((2 * a - p) - (2 * c - q), []).append((a, p - a, c, q - c))
            for weight2 in range(-p - q - 2, p + q + 3):
                assert spaces._sector_monomials(p, q, weight2) == scan.get(weight2, []), (p, q, weight2)


# The integer routes of the exact checks against test-side forms: the
# dict-indexed sector Laplacian of the null-space reference, the dense
# harmonicity product, the Fraction normalization, and the Fraction forms of
# the su2 relations and of the Casimir and square comparisons.


def _dict_sector_laplacian(p, q, weight2):
    monos = spaces._sector_monomials(p, q, weight2)
    target = spaces._sector_monomials(p - 1, q - 1, weight2) if p >= 1 and q >= 1 else []
    t_index = {m: i for i, m in enumerate(target)}
    rows = [[0] * len(monos) for _ in target]
    for col, (a, b, c, d) in enumerate(monos):
        if a >= 1 and c >= 1:
            rows[t_index[(a - 1, b, c - 1, d)]][col] = 4 * a * c
        if b >= 1 and d >= 1:
            rows[t_index[(a, b - 1, c, d - 1)]][col] = 4 * b * d
    return monos, rows


def _dense_harmonic(laplacian, vec):
    return not any(sum(x * v for x, v in zip(row, vec)) for row in laplacian)


def _fraction_normalize(vec):
    denom = math.lcm(*(f.denominator for f in vec if f != 0))
    ints = [int(f * denom) for f in vec]
    g = math.gcd(*ints)
    sign = 1 if next(v for v in ints if v) > 0 else -1
    return [sign * v // g for v in ints]


def _bent(rows):
    """Copies of a square matrix with one entry changed each: the first
    diagonal entry plus 1/7, the first nonzero entry negated, and 1/4 added
    in the bottom-left corner."""
    first = next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x), (0, 0))
    for (i, j), change in (((0, 0), lambda x: x + Fraction(1, 7)), (first, lambda x: -x), ((-1, 0), lambda x: x + Fraction(1, 4))):
        out = [list(row) for row in rows]
        out[i][j] = change(out[i][j])
        yield out


def test_sectors_equal_the_dense_checked_form():
    # each sector vector and basis polynomial, value and type, against the
    # vector that passed the dense product; on each vector with one
    # coefficient doubled the kernel and the dense product agree
    for p, q in _blocks(12):
        space = harmonic_basis(p, q)
        for k, content in enumerate(spaces.sector_contents(p, q)):
            monos, laplacian = _dict_sector_laplacian(p, q, 2 * k - p - q)
            vec = [(-1) ** c * math.comb(p, a) * math.comb(q, c) // content for a, _, c, _ in monos]
            assert _dense_harmonic(laplacian, vec)
            assert [(m, c, type(c)) for m, c in space.sectors[k]] == [(m, c, int) for m, c in zip(monos, vec)]
            assert _typed(space.basis[k]) == _typed(Polynomial(4, dict(zip(monos, vec))))
            for i in range(len(vec)):
                bent = {m: 2 * v if j == i else v for j, (m, v) in enumerate(zip(monos, vec))}
                kernel = laplacian_r4(Polynomial(4, bent))
                assert (not kernel.terms) == _dense_harmonic(laplacian, list(bent.values())), (p, q, k, i)
        want = tuple(l * l for l in space.l_values)
        assert [(x, type(x)) for x in _generator_square(p, q)[3]] == [(x, type(x)) for x in want]


@settings(max_examples=200, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=8).filter(any))
def test_normalize_integer_equals_the_fraction_form(vec):
    assert [(x, type(x)) for x in spaces._normalize_integer(vec)] == [(x, type(x)) for x in _fraction_normalize(vec)]


def test_normalize_integer_equals_the_fraction_form_on_the_sector_kernels():
    for p, q in _blocks(12):
        for two_l in range(-p - q, p + q + 1, 2):
            _, laplacian = _dict_sector_laplacian(p, q, two_l)
            for vec in nullspace(laplacian) if laplacian else [[1]]:
                for scaled in (vec, [x * Fraction(-3, 7) for x in vec]):
                    want = [(x, type(x)) for x in _fraction_normalize(scaled)]
                    assert [(x, type(x)) for x in spaces._normalize_integer(scaled)] == want


def test_su2_relations_in_ints_equal_the_fraction_forms():
    # on 2 J3 the relations [J3, Jp] = Jp and [J3, Jm] = -Jm are doubled and
    # [Jp, Jm] = 2 J3 is as it was; every matrix is an int matrix, and the
    # verdict is the Fraction form's, also with Jp or Jm bent
    for p, q in _blocks(12):
        jp, jm, j3 = (vector_field_matrix(axis, p, q) for axis in AXES)
        for fp, fm in ((jp, jm), *((b, jm) for b in _bent(jp)), *((jp, b) for b in _bent(jm))):
            fraction_forms = (
                (mat_commutator(j3, fp), fp, 2),
                (mat_commutator(j3, fm), mat_scale(fm, -1), 2),
                (mat_commutator(fp, fm), mat_scale(j3, 2), 1),
            )
            for (_, got, want), (f_got, f_want, factor) in zip(verify._su2_relations(fp, fm, j3), fraction_forms):
                if (fp, fm) == (jp, jm):
                    assert all(type(x) is int for row in (*got, *want) for x in row)
                assert mat_equal(got, mat_scale(f_got, factor)) and mat_equal(want, mat_scale(f_want, factor))
                assert mat_equal(got, want) == mat_equal(f_got, f_want)


def test_adjointness_in_ints_equals_the_fraction_form():
    def fraction_adjoint(a, b, weights):
        dim = len(a)
        return all(weights[m] * a[m][n] == weights[n] * b[n][m] for m in range(dim) for n in range(dim) if a[m][n] or b[n][m])

    for p, q in _blocks(12):
        jp, jm, w = vector_field_matrix("+", p, q), vector_field_matrix("-", p, q), pairing_weights(p, q)
        assert verify._adjoint(jp, jm, w)
        for a, b in ((jp, jm), *((x, jm) for x in _bent(jp)), *((jp, x) for x in _bent(jm))):
            for weights in (w, (2 * w[0], *w[1:]), w[::-1]):
                assert verify._adjoint(a, b, weights) == fraction_adjoint(a, b, weights)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(positive_rationals | st.floats(0.01, 100.0), positive_rationals, positive_rationals),
    positive_rationals,
    nonzero_rationals,
    nonzero_rationals,
    st.sampled_from(_blocks(12)),
)
def test_hamiltonian_diagonal_in_ints_equals_the_fraction_form(momenta, hbar0, k, rho, block):
    c1, c2, c3 = (Fraction(hbar0) / (2 * Fraction(mom)) for mom in momenta)
    sq_diag, _, _, l_squared = _generator_square(*block)
    want = [Fraction(k) * Fraction(rho) + (c1 + c2) * x + c3 * y for x, y in zip(sq_diag, l_squared)]
    got = hamiltonian_matrix(harmonic_basis(*block), *momenta, hbar0, k, rho).diag
    assert [(x, type(x)) for x in got] == [(x, type(x)) for x in want]


def test_casimir_comparisons_in_ints_equal_the_fraction_forms():
    # 4 C against d(d+2) Id and the square record times 4 against the
    # integer squares decide as the Fraction comparisons do, also on bent
    # Casimirs and records
    for p, q in _blocks(12):
        d = p + q
        jp, jm, _ = (vector_field_matrix(axis, p, q) for axis in AXES)
        diag, lower, upper, _ = _generator_square(p, q)
        plus, minus = mat_add(jp, jm), mat_sub(jp, jm)
        pairs = (
            (casimir_matrix(p, q), _band_rows(d + 1, [d * (d + 2)] * (d + 1))),
            (_band_rows(d + 1, diag, lower, upper), mat_mul(plus, plus)),
            (_band_rows(d + 1, diag, [-x for x in lower], [-x for x in upper]), mat_scale(mat_mul(minus, minus), -1)),
        )
        for rows, fourfold in pairs:
            assert all(type(y) is int for row in fourfold for y in row)
            assert verify._is_quarter(rows, fourfold)
            for bent in _bent(rows):
                assert verify._is_quarter(bent, fourfold) == mat_equal(bent, mat_scale(fourfold, Fraction(1, 4)))


@pytest.mark.parametrize("bad", [0.5, 1.0, float("nan"), 1j, complex(1, 0), "1", None])
def test_inexact_arguments_raise_type_error(bad):
    # a coefficient or a factor that is not an int or a Fraction is refused
    with pytest.raises(TypeError):
        Polynomial(4, {(1, 0, 0, 0): bad})
    with pytest.raises(TypeError):
        Z1.scale(bad)
    with pytest.raises(TypeError):
        Z1 * bad


def test_the_oracle_computes_over_ints_and_fractions():
    # every coordinate of Jp, Jm and J3 applied to a basis polynomial, and
    # every entry of the oracle's matrices and null spaces, for p + q <= 8
    def exact(values):
        return all(type(x) in (int, Fraction) for x in values)

    with pytest.raises(TypeError):
        Polynomial(4, {(1, 0, 0, 0): 0.5})
    for p, q in _blocks(8):
        space = harmonic_basis(p, q)
        for b in space.basis:
            assert exact(b.terms.values())
            for op in (apply_jplus, apply_jminus, apply_j3):
                assert exact(space.coordinates(op(b)))
        matrices = [casimir_matrix(p, q), *(f(axis, p, q) for f in (vector_field_matrix, generator_matrix) for axis in AXES)]
        assert all(exact(row) for m in matrices for row in m)
    assert exact(x for vec in nullspace([[4, 2, 0], [1, 0, 3]]) for x in vec)

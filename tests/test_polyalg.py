"""Exact polynomial algebra, harmonic bases, su(2) matrices, Hamiltonians."""

import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rotorspec import asymmetric_spectrum
from rotorspec.errors import RepresentationClosureError
from rotorspec.polyalg import (
    QC,
    Polynomial,
    antipodal_sign,
    apply_j1,
    apply_j2,
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
from rotorspec.polyalg import gaussian, operators, polynomial, spaces
from rotorspec.polyalg.operators import (
    _band_adjointness,
    _generator_square,
    _ladder,
    _raw_matrix,
    band_charpoly,
    weighted_symmetrization,
)
from rotorspec.polyalg.rational_linalg import mat_scale, rational_roots_from_candidates
from rotorspec.polyalg.spaces import harmonic_basis_by_elimination
from rotorspec.quantum_structures import BundleKind, parity_projects
from rotorspec.verify import _adjoint, _band_rows

Z1 = Polynomial.variable(4, 0)
Z2 = Polynomial.variable(4, 1)
ZB1 = Polynomial.variable(4, 2)
ZB2 = Polynomial.variable(4, 3)


def test_qc_field_arithmetic():
    a = QC(Fraction(1, 2), Fraction(-3, 4))
    b = QC(2, 1)
    assert a + b == QC(Fraction(5, 2), Fraction(1, 4))
    assert a * b == QC(Fraction(7, 4), Fraction(-1))
    assert (a / b) * b == a
    assert a.conjugate().conjugate() == a
    assert QC(0, 1) * QC(0, 1) == QC(-1)


def test_laplacian_r4_examples():
    assert not laplacian_r4(Z1)
    assert laplacian_r4(Z1 * ZB1) == Polynomial.constant(4, 4)
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
        assert b.bidegree() == (1, 1)


def test_dimension_identities():
    for d in range(9):
        dims = [harmonic_basis(p, d - p).dim for p in range(d + 1)]
        assert dims == [d + 1] * (d + 1)
        assert sum(dims) == (d + 1) ** 2


def test_generator_j3_eigenvalues():
    m = generator_matrix(3, 1, 0)
    assert all(not x for i, row in enumerate(m) for k, x in enumerate(row) if i != k)
    assert sorted(m[i][i].re for i in range(2)) == [Fraction(-1, 2), Fraction(1, 2)]
    m = generator_matrix(3, 1, 1)
    assert sorted(m[i][i].re for i in range(3)) == [-1, 0, 1]


def test_su2_commutators_exact():
    for d in range(7):
        for p in range(d + 1):
            q = d - p
            jm = {a: generator_matrix(a, p, q) for a in (1, 2, 3)}
            lm = {a: vector_field_matrix(a, p, q) for a in (1, 2, 3)}
            for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
                assert mat_equal(mat_commutator(lm[a], lm[b]), lm[c])
                assert mat_equal(mat_commutator(jm[a], jm[b]), mat_scale(jm[c], QC(0, 1)))


def test_adjointness_flags():
    # "self" is self- and not skew-adjoint, "skew" the reverse, "zero" both
    w = pairing_weights(2, 1)
    for m in (generator_matrix(1, 2, 1), generator_matrix(2, 2, 1)):
        assert _adjoint(m, w, 1) and not _adjoint(m, w, -1)
    m = vector_field_matrix(1, 2, 1)
    assert _adjoint(m, w, -1) and not _adjoint(m, w, 1)
    m = generator_matrix(3, 0, 0)
    assert _adjoint(m, pairing_weights(0, 0), 1) and _adjoint(m, pairing_weights(0, 0), -1)


def test_pairing_weights_positive():
    for p, q in ((1, 0), (2, 1), (3, 3)):
        assert all(w > 0 for w in pairing_weights(p, q))


def test_casimir_values():
    c = casimir_matrix(0, 0)
    assert c[0][0] == QC(0)
    c = casimir_matrix(1, 0)
    assert not c[0][1] and not c[1][0] and c[0][0] == QC(Fraction(3, 4))
    c = casimir_matrix(2, 1)
    d = 3
    assert all(c[i][i] == QC(Fraction(d * (d + 2), 4)) for i in range(len(c)))
    assert Fraction(d * (d + 2), 4) == Fraction(15, 4)


def test_casimir_commutes_with_generators_and_j3sq():
    for p, q in ((2, 0), (2, 2), (3, 1)):
        c = casimir_matrix(p, q)
        for a in (1, 2, 3):
            g = generator_matrix(a, p, q)
            assert all(not x for row in mat_commutator(c, g) for x in row)
        j3 = generator_matrix(3, p, q)
        assert all(not x for row in mat_commutator(c, mat_mul(j3, j3)) for x in row)


def test_hamiltonian_spherical_block():
    space = harmonic_basis(1, 0)
    ham = hamiltonian_matrix(space, 1, 1, 1)
    assert ham.is_diagonal()
    assert all(ham.diag[i] == Fraction(3, 8) for i in range(2))
    space = harmonic_basis(0, 0)
    ham = hamiltonian_matrix(space, 2, 3, 4)
    assert ham.diag[0] == 0


def test_hamiltonian_asymmetric_triad():
    want = sorted([Fraction(3, 4), Fraction(2, 3), Fraction(5, 12)])
    for p, q in ((2, 0), (1, 1), (0, 2)):
        ham = hamiltonian_matrix(harmonic_basis(p, q), 1, 2, 3)
        assert ham.adjointness == "self"
        vals = eigenvalues(ham)
        assert [v for v, exact in vals] == want
        assert all(exact for _, exact in vals)


def test_hamiltonian_float_path_matches_exact():
    space = harmonic_basis(2, 1)
    exact = eigenvalues(hamiltonian_matrix(space, 1, 2, 3))
    approx = eigenvalues(hamiltonian_matrix(space, 1.0, 2.0, 3.0))
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
        _raw_matrix(space, lambda f: f.mul_var(0))  # z1 * f leaves the space


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


@pytest.mark.parametrize("d", range(13))
def test_closed_form_route_equals_polynomial_route(d):
    # bases against null-space extraction; the ladder, weights and squares
    # against the differential operators applied to the basis polynomials
    for p in range(d + 1):
        q = d - p
        space = harmonic_basis(p, q)
        assert space.basis == harmonic_basis_by_elimination(p, q)
        for axis, apply_j, square in zip((1, 2, 3), (apply_j1, apply_j2, apply_j3), _squares(p, q)):
            poly_route = _raw_matrix(space, apply_j)
            assert generator_matrix(axis, p, q) == tuple(map(tuple, poly_route))
            assert _band_rows(d + 1, *square) == mat_mul(poly_route, poly_route)
        jp = _raw_matrix(space, apply_jplus)
        jm = _raw_matrix(space, apply_jminus)
        alpha, beta = _ladder(p, q)
        assert jp == [[alpha[n] if m == n + 1 else 0 for n in range(d + 1)] for m in range(d + 1)]
        assert jm == [[beta[m] if n == m + 1 else 0 for n in range(d + 1)] for m in range(d + 1)]
        weights = [Fraction(1)]
        for k in range(d):
            weights.append(weights[-1] * jm[k][k + 1].re / jp[k + 1][k].re)
        assert pairing_weights(p, q) == tuple(weights)


@pytest.mark.parametrize("momenta", [(1, 2, 3), (1.0, 2.0, 3.0)])
def test_band_adjointness_rejects_a_perturbed_entry(monkeypatch, momenta):
    space = harmonic_basis(2, 2)
    assert hamiltonian_matrix(space, *momenta).adjointness == "self"
    real = operators._generator_square

    def perturbed(p, q):
        diag, lower, upper, l_squared = real(p, q)
        return diag, lower, (upper[0] + Fraction(1, 7), *upper[1:]), l_squared

    monkeypatch.setattr(operators, "_generator_square", perturbed)
    ham = hamiltonian_matrix(space, *momenta)
    assert ham.adjointness == "none"
    with pytest.raises(ValueError, match="self-adjoint"):
        eigenvalues(ham)


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
    momenta, hbar0, k, rho = job
    for p, q in _blocks(10):
        ham = hamiltonian_matrix(harmonic_basis(p, q), *momenta, hbar0, k, rho)
        assert ham.exact
        coeffs = band_charpoly(ham)
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
        assert ham.adjointness == "self"


@pytest.mark.parametrize(
    "job",
    FLOAT_JOBS + [((1.0, 2.0, 3.5), 1e-300, 0.5, 0.25), ((0.7, 1.3, 2.9), 1e300, 0, 0)],
    ids=["plain", "shifted", "mixed", "tiny_hbar", "huge_hbar"],
)
def test_float_band_has_the_three_axis_bits(job):
    # the one-record float assembly gives the bits of summing
    # float(hbar0) / (2 float(I_a)) * float(J_a^2 entry) axis by axis
    momenta, hbar0, k, rho = job
    for p, q in _blocks(12):
        ham = hamiltonian_matrix(harmonic_basis(p, q), *momenta, hbar0, k, rho)
        n = p + q + 1
        diag, lower, upper = [float(k) * float(rho)] * n, [0.0] * (n - 2), [0.0] * (n - 2)
        for mom, (sq_diag, sq_lower, sq_upper) in zip(momenta, _squares(p, q)):
            coef = float(hbar0) / (2 * float(mom))
            diag = [x + coef * float(y) for x, y in zip(diag, sq_diag)]
            lower = [x + coef * float(y) for x, y in zip(lower, sq_lower)]
            upper = [x + coef * float(y) for x, y in zip(upper, sq_upper)]
        got = ham.diag + ham.lower + ham.upper
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [x.hex() for x in diag + lower + upper]
        assert ham.adjointness in ("self", "zero")


@pytest.mark.parametrize("job", RATIONAL_JOBS + FLOAT_JOBS)
def test_symmetrized_array_has_the_dense_formula_bits(job):
    momenta, hbar0, k, rho = job
    for p, q in _blocks(9):
        ham = hamiltonian_matrix(harmonic_basis(p, q), *momenta, hbar0, k, rho)
        n = p + q + 1
        zero = type(ham.diag[0])(0)
        dense = [[zero] * n for _ in range(n)]
        for a, x in enumerate(ham.diag):
            dense[a][a] = x
        for a, (lo, up) in enumerate(zip(ham.lower, ham.upper)):
            dense[a + 2][a], dense[a][a + 2] = lo, up
        s = np.sqrt(np.array([float(w) for w in pairing_weights(p, q)]))
        want = (s[:, None] * np.array(dense, dtype=float)) / s[None, :]
        sym, s_got = weighted_symmetrization(ham)
        assert sym.tobytes() == want.tobytes()
        assert s_got.tobytes() == s.tobytes()


def test_exact_band_adjointness_verdicts():
    weights = pairing_weights(3, 3)
    ham = hamiltonian_matrix(harmonic_basis(3, 3), 1, Fraction(5, 2), Fraction(7, 3))
    assert _band_adjointness(ham.diag, ham.lower, ham.upper, weights) == "self"
    for a in range(len(ham.upper)):
        upper = list(ham.upper)
        upper[a] += Fraction(1, 10**9)
        assert _band_adjointness(ham.diag, ham.lower, upper, weights) == "none"
    zeros = [Fraction(0)] * len(ham.upper)
    assert _band_adjointness([Fraction(0)] * 7, zeros, zeros, weights) == "zero"
    assert hamiltonian_matrix(harmonic_basis(0, 0), 1, 2, 3).adjointness == "zero"


def test_ladder_closure_check_rejects_a_corrupted_sector(monkeypatch):
    space = harmonic_basis(2, 1)
    # sector 1 has two monomials: scaling one breaks proportionality
    (first, c), *rest = space.sectors[1]
    sectors = space.sectors[:1] + (((first, 2 * c), *rest),) + space.sectors[2:]
    monkeypatch.setattr(operators, "harmonic_basis", lambda p, q: replace(space, sectors=sectors))
    with pytest.raises(RepresentationClosureError):
        operators._ladder.__wrapped__(2, 1)


def test_ladder_coordinates_are_integers():
    for p, q in _blocks(12):
        alpha, beta = operators._ladder(p, q)
        assert len(alpha) == len(beta) == p + q
        assert all(type(x) is int for x in alpha + beta)
        assert all(type(c) is int for sector in harmonic_basis(p, q).sectors for _, c in sector)


def test_hot_path_builds_no_polynomial_or_qc(monkeypatch):
    # cold caches, so every harmonic space, ladder, weight and square record
    # of the spectra below is built under the patch
    for module in (spaces, operators):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("QC or Polynomial built on the asymmetric hot path")

    # both constructors of QC (__init__ and _make, behind all arithmetic)
    # and the one of Polynomial refuse
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    monkeypatch.setattr(QC, "__init__", refuse)
    monkeypatch.setattr(gaussian, "_make", refuse)
    # and no code of either module runs, so no other route can build one
    watched = {gaussian.__file__, polynomial.__file__}
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
                assert spec.total_multiplicity() == sum((d + 1) ** 2 for d in degrees)
    finally:
        sys.setprofile(None)
    assert not ran, f"hot path ran {sorted(ran)}"


def test_antipodal_parity_matches_bundles():
    for d in range(7):
        for p in range(d + 1):
            for b in harmonic_basis(p, d - p).basis:
                sign = antipodal_sign(b)
                assert sign == (-1) ** d
                assert parity_projects(d, BundleKind.PLUS) == (sign == 1)


def test_charpoly_and_rational_roots():
    m = [[QC(2), QC(1)], [QC(0), QC(3)]]
    coeffs = charpoly(m)  # (t-2)(t-3) = t^2 - 5t + 6
    assert coeffs == [Fraction(6), Fraction(-5), Fraction(1)]
    roots, residual, leftover = rational_roots_from_candidates(coeffs, [3.0, 2.0])
    assert sorted(roots) == [2, 3] and residual == [Fraction(1)] and leftover == []


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


def test_polynomial_evaluation_consistency():
    # basis elements restricted to S^3 are eigenfunctions of nothing here,
    # but evaluation must agree with the exact coefficients
    poly = Z1 * ZB1 - Z2 * ZB2
    z1, z2 = 0.3 + 0.4j, -0.1 + 0.9j
    val = poly.evaluate((z1, z2, z1.conjugate(), z2.conjugate()))
    assert val == pytest.approx(abs(z1) ** 2 - abs(z2) ** 2)

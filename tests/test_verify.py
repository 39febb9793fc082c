"""The verification suite itself: sensitivity and runtime behavior."""

import time
from fractions import Fraction

import numpy as np
import pytest

from rotorspec import verify
from rotorspec.polyalg import levels, operators, polynomial, spaces


def test_run_suite_passes_quietly():
    lines = []
    rc = verify.run_suite(j_max=2, out=lines.append)
    assert rc == 0
    assert all(line.startswith(("PASS", "OK")) for line in lines)


def test_small_j_max_is_fast():
    start = time.monotonic()
    rc = verify.run_suite(j_max=2, out=lambda _line: None)
    assert rc == 0
    assert time.monotonic() - start < 5.0


class _NumpyStream:
    """random.Random's uniform over numpy's default_rng(seed)."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def uniform(self, low, high):
        return float(self._rng.uniform(low, high))


def test_the_sampled_checks_pass_on_numpys_stream(monkeypatch):
    # scalar draws replay numpy's size= fills, row by row, bit for bit, so
    # the adapter feeds the sampled checks the samples that numpy's
    # default_rng(seed).uniform(..., size=...) drew for them: no sample set
    # is dropped by drawing from random.Random instead
    fills = np.random.default_rng(777)
    want = [*fills.uniform(0.5, 4.0, size=5), *fills.uniform(-3.0, 3.0, size=(5, 3)).ravel()]
    stream = _NumpyStream(777)
    assert [stream.uniform(0.5, 4.0) for _ in range(5)] + [stream.uniform(-3.0, 3.0) for _ in range(15)] == want
    monkeypatch.setattr(verify, "Random", _NumpyStream)
    assert verify.check_curvature() == (True, "all four closed forms agree with the oracle over 1000 triples")
    assert verify.check_geometry_layer() == (True, "splitting and round-trip invariants hold over 50 random bodies")
    assert verify.check_em_layer() == (True, "field splitting invariants and dipole values hold (40 trials)")


def test_suite_detects_casimir_corruption(monkeypatch):
    # a wrong sign in the Casimir must be caught by the scalar check
    real = verify.casimir_matrix

    def negated(p, q):
        return tuple(tuple(-c for c in row) for row in real(p, q))

    monkeypatch.setattr(verify, "casimir_matrix", negated)
    ok, detail = verify.check_casimir(2)
    assert not ok
    assert "Casimir" in detail


def test_suite_detects_shifted_eigenvalue(monkeypatch):
    # shift one brute-force energy: the closed-form comparison must fail
    from rotorspec import spectra

    real = spectra.diagonalized_spectrum

    def shifted(*args, **kwargs):
        spec = real(*args, **kwargs)
        if len(spec.lines) > 1:
            line = spec.lines[1]
            lines = (spec.lines[0], line._replace(energy=line.energy + 1), *spec.lines[2:])
            spec = spec._replace(lines=lines)
        return spec

    monkeypatch.setattr(verify, "diagonalized_spectrum", shifted)
    ok, _detail = verify.check_spherical_spectrum(2)
    assert not ok


@pytest.fixture
def cold_caches():
    """Clear every cached basis, ladder, weight and square record before and
    after the test, so nothing built from corrupted data outlives it."""
    cached = [v for m in (spaces, operators) for v in vars(m).values() if hasattr(v, "cache_clear")]
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()


def _patch_both(monkeypatch, name, fake):
    # the hot path reads the name in operators, the suite in verify
    monkeypatch.setattr(operators, name, fake)
    monkeypatch.setattr(verify, name, fake)


def test_suite_detects_a_wrong_ladder_coordinate(cold_caches, monkeypatch):
    # flipping the sign of alpha_0 and beta_0 keeps every product alpha_k
    # beta_k and every weight, so J1 and J2 stay self-adjoint under the
    # weights; only a comparison with the polynomial route can see it
    real = operators._ladder

    def flipped(p, q):
        alpha, beta = real(p, q)
        if not alpha:
            return alpha, beta
        return (-alpha[0], *alpha[1:]), (-beta[0], *beta[1:])

    want = operators.pairing_weights(2, 0)
    operators.pairing_weights.cache_clear()
    _patch_both(monkeypatch, "_ladder", flipped)
    assert operators.pairing_weights(2, 0) == want
    alpha, beta = operators._ladder(2, 0)
    assert all(want[k + 1] * a == want[k] * b for k, (a, b) in enumerate(zip(alpha, beta)))
    ok, detail = verify.check_su2_commutators(2)
    assert not ok
    assert "integer ladder" in detail


def test_suite_detects_a_wrong_polynomial_ladder_image(cold_caches, monkeypatch):
    # Jp applied by the differential operator, doubled on H^(2,1): every
    # image stays in its block, so no closure error hides the fault, and
    # only the comparisons with the integer ladder can see it.  The Jp of
    # su2 commutators and the ladder closure of harmonic dimensions must
    # both fail
    real = operators.apply_jplus

    def doubled(f):
        image = real(f)
        return image.scale(2) if f.bidegree() == (2, 1) else image

    monkeypatch.setattr(operators, "apply_jplus", doubled)
    monkeypatch.setattr(verify, "apply_jplus", doubled, raising=False)
    assert verify.check_su2_commutators(4) == (False, "Jp differs from the integer ladder on H^(2,1)")
    assert verify.check_dimensions(4) == (False, "ladder closure fails on basis element 0 of H^(2,1)")


def test_a_j3_entry_off_by_one_fails_x3_spectrum_and_su2_commutators(cold_caches, monkeypatch):
    # J3 applied by the differential operator adds the polynomial itself on
    # the first basis element of H^(2,1), so its diagonal entry is l + 1
    real = operators.apply_j3
    first = spaces.harmonic_basis(2, 1).basis[0]

    def shifted(f):
        image = real(f)
        return image + f if f == first else image

    monkeypatch.setattr(operators, "apply_j3", shifted)
    assert verify.check_x3_spectrum(4) == (False, "J3 is not diag(-3/2, -1/2, 1/2, 3/2) on H^(2,1)")
    assert verify.check_su2_commutators(4) == (False, "J3 differs from the integer ladder on H^(2,1)")


def test_a_doubled_jp_image_on_one_block_fails_su2_commutators(cold_caches, monkeypatch):
    # Jp of one basis polynomial of H^(4,4), in the last degree su2
    # commutators reads, doubled: the degrees below still pass
    real = operators.apply_jplus
    target = spaces.harmonic_basis(4, 4).basis[3]

    def doubled(f):
        image = real(f)
        return image.scale(2) if f == target else image

    monkeypatch.setattr(operators, "apply_jplus", doubled)
    assert verify.check_su2_commutators(7)[0]
    ok, detail = verify.check_su2_commutators(8)
    assert not ok
    assert detail.endswith(" differs from the integer ladder on H^(4,4)")


# faults in the one-pass kernel polynomial.apply_operator: the operator
# table each corrupts, how, and the checks of `verify --j-max 2` that fail
KERNEL_FAULTS = {
    "Jp without its second term": (
        operators._JPLUS,
        lambda terms: terms[:1],
        {"su2 commutators", "casimir scalars", "harmonic dimensions"},
    ),
    "R^4 Laplacian with 2 d_z2 d_zb2": (
        polynomial._LAPLACIAN_R4,
        lambda terms: (terms[0], (2, *terms[1][1:])),
        {"harmonic dimensions"},
    ),
    "R^3 Laplacian with 2 d_z^2": (
        polynomial._LAPLACIAN_R3,
        lambda terms: (*terms[:2], (2, *terms[2][1:])),
        {"degenerate sphere levels"},
    ),
    "Euler operator without z d_z": (polynomial._EULER_R3, lambda terms: terms[:2], {"degenerate sphere levels"}),
}


@pytest.mark.parametrize("fault", KERNEL_FAULTS)
def test_a_fault_in_the_one_pass_kernel_fails_the_checks_that_read_it(cold_caches, monkeypatch, fault):
    table, corrupt, failing = KERNEL_FAULTS[fault]
    real = polynomial.apply_operator

    def faulty(poly, operator):
        return real(poly, corrupt(operator) if operator is table else operator)

    monkeypatch.setattr(polynomial, "apply_operator", faulty)
    monkeypatch.setattr(operators, "apply_operator", faulty)
    lines = []
    assert verify.run_suite(j_max=2, out=lines.append) == 1
    assert {line[len("FAIL  ") :].split(":")[0] for line in lines if line.startswith("FAIL  ")} == failing


def test_a_square_record_with_one_sign_flipped_fails_casimir_scalars(cold_caches, monkeypatch):
    # the first lower entry of J1^2 on H^(1,2) negated, as J2^2 has it
    real = operators._generator_square

    def flipped(p, q):
        diag, lower, upper, l_squared = real(p, q)
        if (p, q) == (1, 2):
            lower = (-lower[0], *lower[1:])
        return diag, lower, upper, l_squared

    _patch_both(monkeypatch, "_generator_square", flipped)
    assert verify.check_casimir(2)[0]
    assert verify.check_casimir(3) == (False, "square record differs from J1^2, J2^2 or J3^2 on H^(1,2)")


def test_suite_detects_a_wrong_pairing_weight(cold_caches, monkeypatch):
    real = operators.pairing_weights

    def skewed(p, q):
        w = real(p, q)
        return w if len(w) < 2 else (w[0], 2 * w[1], *w[2:])

    _patch_both(monkeypatch, "pairing_weights", skewed)
    ok, detail = verify.check_su2_commutators(2)
    assert not ok
    assert "self-adjoint" in detail
    ok, detail = verify.check_dimensions(2)
    assert not ok
    assert detail == "pairing weight 1 of H^(0,1) is not positive or not adjoint"


def test_suite_detects_a_wrong_square_record_entry(cold_caches, monkeypatch):
    real = operators._generator_square

    def perturbed(p, q):
        diag, lower, upper, l_squared = real(p, q)
        if not upper:
            return diag, lower, upper, l_squared
        return diag, lower, (upper[0] + Fraction(1, 7), *upper[1:]), l_squared

    _patch_both(monkeypatch, "_generator_square", perturbed)
    ok, detail = verify.check_casimir(2)
    assert not ok
    assert "square record" in detail


@pytest.mark.parametrize("entry", [0, 2])
def test_harmonic_dimensions_detects_a_wrong_square_record_beyond_degree_8(cold_caches, monkeypatch, entry):
    # su2 commutators and casimir scalars compare the square records only up
    # to degree 8; on H^(7,2) a wrong diagonal (entry 0) or upper entry
    # (entry 2) is seen by the band comparison with the representative
    # block H^(4,5) alone
    real = operators._generator_square

    def perturbed(p, q):
        record = list(real(p, q))
        if (p, q) == (7, 2):
            record[entry] = (record[entry][0] + Fraction(1, 7), *record[entry][1:])
        return tuple(record)

    _patch_both(monkeypatch, "_generator_square", perturbed)
    assert verify.check_dimensions(8)[0]
    ok, detail = verify.check_dimensions(9)
    assert not ok
    assert detail == "band of H^(7,2) differs from that of H^(4,5) in its diagonal or products"


def test_harmonic_dimensions_detects_a_fold_without_the_doubled_product(monkeypatch):
    # the symmetric species of a class of odd length 2h+1 carries the
    # product beside the middle entry twice; with it taken once the species
    # no longer factor the band, first at d = 4, where class 0 has length 3
    real = levels._wang_fold

    def undoubled(diag, products):
        species = real(diag, products)
        if len(diag) % 2 and len(diag) > 1:
            sym_diag, sym_products = species[1]
            species[1] = (sym_diag, [*sym_products[:-1], sym_products[-1] / 2])
        return species

    monkeypatch.setattr(levels, "_wang_fold", undoubled)
    assert verify.check_dimensions(3)[0]
    ok, detail = verify.check_dimensions(4)
    assert not ok
    assert detail == "species of the band of H^(2,2) do not multiply to its characteristic polynomial"


def test_harmonic_dimensions_detects_an_exact_level_that_is_not_a_root(monkeypatch):
    # a closed-form solver that shifts its exact levels leaves the species
    # intact; only the substitution into det(t - H) sees it
    real = levels._species_levels

    def shifted(*species):
        return [(v + Fraction(1, 7) if exact else v, exact) for v, exact in real(*species)]

    monkeypatch.setattr(levels, "_species_levels", shifted)
    ok, detail = verify.check_dimensions(2)
    assert not ok
    assert detail == "an exact level of the band of H^(1,1) is not a root of its characteristic polynomial"


def test_harmonic_dimensions_hold_up_to_degree_24():
    # harmonic sectors, ladder closure on the basis polynomials, the weight
    # recurrence and the band comparison with the representative block on
    # every block p + q <= 24; the null-space comparison up to 12
    assert verify.check_dimensions(24) == (True, "dimensions p+q+1 and (d+1)^2 verified for d <= 24")


def test_a_raising_check_fails_and_the_rest_still_run(monkeypatch):
    real = verify.suite_plan(1)
    ran = []

    def raising():
        raise ValueError("corrupted record")

    def recorded(name, fn):
        def run():
            ran.append(name)
            return fn()

        return run

    plan = tuple((name, raising if i == 3 else recorded(name, fn)) for i, (name, fn) in enumerate(real))
    monkeypatch.setattr(verify, "suite_plan", lambda j_max: plan)
    lines = []
    assert verify.run_suite(j_max=1, out=lines.append) == 1
    assert lines[3] == "FAIL  harmonic dimensions: raised ValueError: corrupted record"
    assert ran == [name for i, (name, _) in enumerate(real) if i != 3]
    assert sum(line.startswith("PASS") for line in lines) == 16
    assert lines[-2].startswith("FAILED  16/17 checks in ")
    assert lines[-1] == "first failing property: harmonic dimensions"

"""The verification suite itself: sensitivity and runtime behavior."""

import time
from fractions import Fraction

import numpy as np
import pytest

from rotorspec import BundleKind, levels, verify
from rotorspec.inertia import InertiaTensor
from rotorspec.polyalg import operators, polynomial, spaces


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
        return image.scale(2) if {(a + b, c + d) for a, b, c, d in f.terms} == {(2, 1)} else image

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
        {"su2 commutators", "casimir scalars", "x3 spectrum", "harmonic dimensions", "parity selection"},
    ),
    "R^3 Laplacian with 2 d_z^2": (
        polynomial._LAPLACIAN_R3,
        lambda terms: (*terms[:2], (2, *terms[2][1:])),
        {"degenerate sphere levels"},
    ),
    "Euler operator without z d_z": (polynomial._EULER_R3, lambda terms: terms[:2], {"degenerate sphere levels"}),
}


def _corrupt_table(monkeypatch, table, corrupt):
    """Make the one-pass kernel apply corrupt(table) wherever it is given
    the operator table `table`."""
    real = polynomial.apply_operator

    def faulty(poly, operator):
        return real(poly, corrupt(operator) if operator is table else operator)

    monkeypatch.setattr(polynomial, "apply_operator", faulty)
    monkeypatch.setattr(operators, "apply_operator", faulty)


def _failures(j_max=2):
    """{check: detail} of the FAIL lines of `verify --j-max j_max`."""
    lines = []
    assert verify.run_suite(j_max=j_max, out=lines.append) == 1
    return dict(line[len("FAIL  ") :].split(": ", 1) for line in lines if line.startswith("FAIL  "))


@pytest.mark.parametrize("fault", KERNEL_FAULTS)
def test_a_fault_in_the_one_pass_kernel_fails_the_checks_that_read_it(cold_caches, monkeypatch, fault):
    table, corrupt, failing = KERNEL_FAULTS[fault]
    _corrupt_table(monkeypatch, table, corrupt)
    assert set(_failures()) == failing


def _doubled_content(monkeypatch):
    # sector 1 of H^(1,1) is (-1, 1) over its content -1: over 2 it is
    # (-1, 0), which the R^4 Laplacian does not annihilate
    real = spaces.sector_contents

    def contents(p, q):
        n = real(p, q)
        return (n[0], 2 * n[1], *n[2:]) if (p, q) == (1, 1) else n

    monkeypatch.setattr(spaces, "sector_contents", contents)


def _edited_contents(edit):
    """The fault that makes sector_contents of H^(2,2) edit(its true
    contents), seen by the basis and the ladder alike: the ladder, weights
    and square records stay consistent with the basis, whose vectors stay
    harmonic, so only their normalization is wrong."""

    def install(monkeypatch):
        real = spaces.sector_contents

        def contents(p, q):
            return edit(real(p, q)) if (p, q) == (2, 2) else real(p, q)

        monkeypatch.setattr(spaces, "sector_contents", contents)
        monkeypatch.setattr(operators, "sector_contents", contents)

    return install


# the fault registry of the five exact checks: each fault, how it is
# injected, and the FAIL lines of `verify --j-max 2` it gives, check by check
EXACT_CHECK_FAULTS = {
    "a non-harmonic sector vector": (
        _doubled_content,
        dict.fromkeys(
            ("su2 commutators", "casimir scalars", "x3 spectrum", "harmonic dimensions", "parity selection"),
            "raised AssertionError: sector (p=1, q=1, 2l=0) element is not harmonic",
        ),
    ),
    "a wrong 2 J3 entry (3 z1 d_z1 for z1 d_z1)": (
        lambda mp: _corrupt_table(mp, operators._J3_TWICE, lambda terms: ((3, *terms[0][1:]), *terms[1:])),
        {
            "su2 commutators": "J3 differs from the integer ladder on H^(1,0)",
            "casimir scalars": "Casimir not 3/4 Id on H^(1,0)",
            "x3 spectrum": "J3 is not diag(-1/2, 1/2) on H^(1,0)",
        },
    ),
    "a Jp image with one term doubled": (
        lambda mp: _corrupt_table(mp, operators._JPLUS, lambda terms: ((2, *terms[0][1:]), *terms[1:])),
        {
            "su2 commutators": "Jp differs from the integer ladder on H^(1,0)",
            "casimir scalars": "Casimir not 3/4 Id on H^(1,0)",
            "harmonic dimensions": "ladder closure fails on basis element 0 of H^(1,0)",
        },
    ),
    "the contents of H^(2,2) dropped": (
        _edited_contents(lambda n: (1,) * len(n)),
        {"harmonic dimensions": "sector vector 1 of H^(2,2) does not have content 1 and a positive first coefficient"},
    ),
    "one content of H^(2,2) with its sign flipped": (
        _edited_contents(lambda n: (*n[:2], -n[2], *n[3:])),
        {"harmonic dimensions": "sector vector 2 of H^(2,2) does not have content 1 and a positive first coefficient"},
    ),
    "a constant antipodal sign": (
        lambda mp: mp.setattr(verify, "antipodal_sign", lambda poly: 1),
        {"parity selection": "antipodal sign wrong on H^(0,1)"},
    ),
    "a parity rule blind to the bundle": (
        lambda mp: mp.setattr(verify, "parity_projects", lambda d, bundle: d % 2 == 0),
        {"parity selection": "degree 0 projects to both or neither bundle"},
    ),
}


@pytest.mark.parametrize("fault", EXACT_CHECK_FAULTS)
def test_the_fault_registry_of_the_exact_checks(cold_caches, monkeypatch, fault):
    install, failing = EXACT_CHECK_FAULTS[fault]
    install(monkeypatch)
    assert _failures() == failing


def test_every_exact_check_has_a_fault_in_the_registry():
    covered = {name for _, failing in EXACT_CHECK_FAULTS.values() for name in failing}
    assert covered == {name for name, _ in verify.suite_plan()[:5]}


def _wrapped(name, make, module=verify):
    """The fault that replaces module.name by make(the real one)."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, make(getattr(module, name)))


def _relisted(edit):
    """The fault that makes the suite list sector (p, q, weight2) as
    edit(p, q, weight2, its true listing)."""
    return _wrapped("_sector_monomials", lambda real: lambda p, q, weight2: edit(p, q, weight2, real(p, q, weight2)))


PLUS, MINUS = BundleKind.PLUS, BundleKind.MINUS
NOT_A_CHAIN = "is not a z1 zb1 -> z2 zb2 chain from a monomial of its weight"

# the fault registry of the other twelve checks, and of the weight-sector
# certificate of harmonic dimensions, one fault per clause: each fault, how
# it is injected, and the FAIL lines of `verify --j-max 2` it gives, check
# by check
SUITE_FAULTS = {
    "weight sectors listed in ascending order": (
        _relisted(lambda p, q, weight2, monos: monos[::-1]),
        {"harmonic dimensions": f"weight sector 2l = 0 of H^(1,1) {NOT_A_CHAIN}"},
    ),
    "a weight sector listed empty": (
        _relisted(lambda p, q, weight2, monos: [] if (p, q, weight2) == (1, 1, 0) else monos),
        {"harmonic dimensions": "weight sector 2l = 0 of H^(1,1) is empty"},
    ),
    "the listings of two weight sectors of the same size swapped": (
        _relisted(
            lambda p, q, weight2, monos: spaces._sector_monomials(2, 2, -weight2)
            if (p, q) == (2, 2) and abs(weight2) == 2
            else monos
        ),
        {"harmonic dimensions": f"weight sector 2l = -2 of H^(2,2) {NOT_A_CHAIN}"},
    ),
    "the first two monomials of a weight sector swapped": (
        _relisted(lambda p, q, weight2, monos: [monos[1], monos[0], *monos[2:]] if (p, q, weight2) == (2, 2, 0) else monos),
        {"harmonic dimensions": f"weight sector 2l = 0 of H^(2,2) {NOT_A_CHAIN}"},
    ),
    "a chain run one step past its end, and another sector one short": (
        _relisted(
            lambda p, q, weight2, monos: {(2, 2, 0): [*monos, (-1, 3, -1, 3)], (2, 2, 2): monos[:-1]}.get(
                (p, q, weight2), monos
            )
        ),
        {"harmonic dimensions": f"weight sector 2l = 0 of H^(2,2) {NOT_A_CHAIN}"},
    ),
    "a weight sector listed without its last monomial": (
        _relisted(lambda p, q, weight2, monos: monos[:-1] if (p, q, weight2) == (1, 1, 0) else monos),
        {"harmonic dimensions": "the weight sectors of H^(1,1) hold 3 of its 4 monomials"},
    ),
    "a weight sector listed one step early": (
        _relisted(
            lambda p, q, weight2, monos: [(a + 1, b - 1, c + 1, d - 1) for a, b, c, d in monos]
            if (p, q, weight2) == (1, 1, 0)
            else monos
        ),
        {"harmonic dimensions": f"weight sector 2l = 0 of H^(1,1) {NOT_A_CHAIN}"},
    ),
    "a j squared spectrum at twice hbar0": (
        _wrapped("j_squared_spectrum", lambda real: lambda bundle, j_max, hbar0=1: real(bundle, j_max, 2 * hbar0)),
        {"j squared spectrum": "PLUS j^2 lines wrong: [(Fraction(0, 1), 1), (Fraction(8, 1), 9), (Fraction(24, 1), 25)]"},
    ),
    "a j squared spectrum linear in hbar0": (
        _wrapped(
            "j_squared_spectrum",
            lambda real: lambda bundle, j_max, hbar0=1: (s := real(bundle, j_max))._replace(
                lines=[ln._replace(energy=hbar0 * ln.energy) for ln in s.lines]
            ),
        ),
        {"j squared spectrum": "PLUS j^2 lines wrong: [(Fraction(0, 1), 1), (Fraction(4, 3), 9)]"},
    ),
    "a trivial-bundle spherical closed form on 2I": (
        _wrapped(
            "spherical_spectrum",
            lambda real: lambda i_mom, bundle, **kw: real(2 * i_mom if bundle is PLUS else i_mom, bundle, **kw),
        ),
        {
            "spherical vs diagonalization": "spherical energies [Fraction(0, 1), Fraction(1, 2), Fraction(3, 2)] "
            "!= [Fraction(0, 1), Fraction(1, 1), Fraction(3, 1)]"
        },
    ),
    "a non-trivial-bundle spherical closed form one j short": (
        _wrapped(
            "spherical_spectrum",
            lambda real: lambda i_mom, bundle, j_max, **kw: real(i_mom, bundle, j_max=j_max - (bundle is MINUS), **kw),
        ),
        {"half-integer branch": "bundle union does not cover every degree exactly once"},
    ),
    "a non-trivial-bundle symmetric closed form with its momenta swapped": (
        _wrapped(
            "symmetric_spectrum",
            lambda real: lambda i_pair, i_axis, bundle, **kw: real(
                *((i_axis, i_pair) if bundle is MINUS else (i_pair, i_axis)), bundle, **kw
            ),
        ),
        {"symmetric vs diagonalization": "degree 1 mismatch at E = 5/16"},
    ),
    "every exact level read as a float": (
        _wrapped("_species_levels", lambda real: lambda *species: [(float(v), False) for v, _ in real(*species)], levels),
        {
            "asymmetric j=1 triad": "j=1 triad [0.4166666666666667, 0.6666666666666666, 0.75] "
            "!= [Fraction(5, 12), Fraction(2, 3), Fraction(3, 4)]"
        },
    ),
    "float levels off by one part in 10^9": (
        _wrapped("_ql_levels", lambda real: lambda diag, off: [v * (1 + 1e-9) for v in real(diag, off)], levels),
        {"asymmetric ladder oracle": "degree 2: 0.39285714325 vs oracle 0.392857142857143"},
    ),
    "a surface Laplacian of the wrong sign": (
        _wrapped("sphere_laplacian_r3", lambda real: lambda poly, degree: real(poly, degree).scale(-1)),
        {"degenerate sphere levels": "surface Laplacian eigenvalue wrong at degree 1"},
    ),
    "a doubled spherical curvature": (
        _wrapped("curvature_spherical", lambda real: lambda i_mom, hbar0=1: 2 * real(i_mom, hbar0)),
        {"scalar curvature oracle": "spherical curvature mismatch at I = 25.62801646034899"},
    ),
    "a monopole of twice the charge": (
        _wrapped("monopole_spectrum", lambda real: lambda *args, nu, **kw: real(*args, nu=2 * nu, **kw)),
        {"monopole consistency": "l-asymmetry at (j,l)=(5/2,5/2) is 30"},
    ),
    "a negated angular velocity": (
        _wrapped("angular_velocity", lambda real: lambda config, vel: tuple(-x for x in real(config, vel))),
        {"geometry invariants": "angular velocity round-trip failed"},
    ),
    "a doubled mixed field component": (
        _wrapped("split_field", lambda real: lambda *args: (lambda s: s._replace(mixed=2 * s.mixed))(real(*args))),
        {"field splitting invariants": "additivity of the field splitting failed"},
    ),
    "a doubled inertia tensor": (
        _wrapped(
            "inertia_tensor",
            lambda real: lambda config: InertiaTensor([[2 * x for x in row] for row in real(config).matrix]),
        ),
        {"classification pipeline": "dipole transverse momentum 16.0 != 8"},
    ),
}


@pytest.mark.parametrize("fault", SUITE_FAULTS)
def test_the_fault_registry_of_the_suite(cold_caches, monkeypatch, fault):
    install, failing = SUITE_FAULTS[fault]
    install(monkeypatch)
    assert _failures() == failing


def test_every_check_of_the_suite_has_a_fault_in_the_registry():
    registry = (*EXACT_CHECK_FAULTS.values(), *SUITE_FAULTS.values())
    covered = {name for _, failing in registry for name in failing}
    assert covered == {name for name, _ in verify.suite_plan()}


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
    # harmonic, primitive sectors, ladder closure on the basis polynomials,
    # the weight recurrence and the square-record comparison with the
    # representative block on every block p + q <= 24
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

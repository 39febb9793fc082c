"""Closed-form spectra, the diagonalization engine, and the momentum map."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from rotorspec import (
    BundleKind,
    ParticleSystem,
    asymmetric_spectrum,
    canonicalize,
    classical_momentum_map,
    degenerate_spectrum,
    diagonalized_spectrum,
    j_squared_spectrum,
    monopole_spectrum,
    spherical_spectrum,
    symmetric_spectrum,
    velocities_from_angular,
)
from rotorspec.errors import HamiltonianOverflowError
from rotorspec.inertia import TopClass
from rotorspec.polyalg import casimir_matrix, hamiltonian_matrix, harmonic_basis


def test_j_squared_examples():
    plus = j_squared_spectrum(BundleKind.PLUS, j_max=2)
    assert [(ln.energy, ln.multiplicity) for ln in plus.lines] == [(0, 1), (2, 9), (6, 25)]
    minus = j_squared_spectrum(BundleKind.MINUS, j_max=Fraction(1, 2))
    assert [(ln.energy, ln.multiplicity) for ln in minus.lines] == [(Fraction(3, 4), 4)]
    single = j_squared_spectrum(BundleKind.PLUS, j_max=0)
    assert [(ln.energy, ln.multiplicity) for ln in single.lines] == [(0, 1)]


def test_j_squared_hbar_scaling():
    spec = j_squared_spectrum(BundleKind.PLUS, j_max=1, hbar0=Fraction(3))
    assert spec.lines[1].energy == 9 * 2  # hbar0^2 j(j+1)


def test_spherical_values_and_multiplicities():
    spec = spherical_spectrum(1, BundleKind.PLUS, k=0, hbar0=1, j_max=6)
    assert [ln.energy for ln in spec.lines] == [0, 1, 3, 6, 10, 15, 21]
    assert [ln.multiplicity for ln in spec.lines] == [1, 9, 25, 49, 81, 121, 169]
    minus = spherical_spectrum(1, BundleKind.MINUS, k=0, hbar0=1, j_max=Fraction(1, 2))
    assert minus.lines[0].energy == Fraction(3, 8)
    assert minus.lines[0].multiplicity == 4


def test_spherical_monotone_in_inertia():
    for j_idx in (1, 2):
        values = [
            spherical_spectrum(i_val, BundleKind.PLUS, j_max=2).lines[j_idx].energy
            for i_val in (Fraction(1), Fraction(2), Fraction(5))
        ]
        assert values[0] > values[1] > values[2]


def test_spherical_matches_diagonalization():
    closed = spherical_spectrum(1, BundleKind.PLUS, j_max=3)
    brute = diagonalized_spectrum(1, 1, 1, BundleKind.PLUS, j_max=3)
    for c in closed.lines:
        b = brute.lines_for_degree(int(2 * c.j))
        assert len(b) == 1
        assert b[0].energy == c.energy  # both exact here
        assert b[0].multiplicity == c.multiplicity


def test_symmetric_example_2_1():
    spec = symmetric_spectrum(2, 1, BundleKind.PLUS, k=0, hbar0=1, j_max=1)
    by_jl = {(ln.j, ln.l): ln for ln in spec.lines}
    assert by_jl[(1, 0)].energy == Fraction(1, 2)
    assert by_jl[(1, 0)].multiplicity == 3
    assert by_jl[(1, 1)].energy == Fraction(3, 4)
    assert by_jl[(1, 1)].multiplicity == 6


def test_symmetric_collapses_to_spherical():
    sym = symmetric_spectrum(2, 2, BundleKind.PLUS, j_max=3)
    sph = spherical_spectrum(2, BundleKind.PLUS, j_max=3)
    assert sym.lines == sph.lines


def test_symmetric_minus_branch_half_odd_l():
    spec = symmetric_spectrum(2, 1, BundleKind.MINUS, j_max=Fraction(3, 2))
    assert all(ln.j.denominator == 2 for ln in spec.lines)
    assert all(ln.l is not None and (2 * ln.l) % 2 == 1 for ln in spec.lines)
    half = [ln for ln in spec.lines if ln.j == Fraction(1, 2)]
    assert len(half) == 1 and half[0].l == Fraction(1, 2) and half[0].multiplicity == 4


def test_symmetric_degree_multiplicity_accounting():
    for j_max, bundle in ((3, BundleKind.PLUS), (Fraction(7, 2), BundleKind.MINUS)):
        spec = symmetric_spectrum(2, 1, bundle, j_max=j_max)
        for d in range(2 * int(Fraction(j_max)) + 1):
            lines = spec.lines_for_degree(d)
            if lines:
                assert sum(ln.multiplicity for ln in lines) == (d + 1) ** 2


def test_symmetric_arithmetical_degeneracy_exact():
    # with (I_pair, I_axis) = (2, 1): E = (j(j+1) + l^2)/4, and
    # j(j+1) + l^2 collides for (j,l) = (3,3) and (4,1)
    spec = symmetric_spectrum(2, 1, BundleKind.PLUS, j_max=4)
    groups = spec.group_by_energy()
    target = [g for g in groups if g[0] == Fraction(21, 4)]
    assert len(target) == 1
    energy, mult, lines = target[0]
    assert {(ln.j, ln.l) for ln in lines} == {(3, 3), (4, 1)}
    assert mult == 2 * 7 + 2 * 9


def test_symmetric_matches_diagonalization_per_degree():
    closed = symmetric_spectrum(2, 1, BundleKind.PLUS, j_max=3)
    brute = diagonalized_spectrum(2, 2, 1, BundleKind.PLUS, j_max=3)
    for d in (0, 2, 4, 6):
        cl = sorted(
            {ln.energy for ln in closed.lines_for_degree(d)}
        )
        bl = [ln.energy for ln in brute.lines_for_degree(d)]
        assert cl == bl  # exact Fractions on both routes


def test_asymmetric_j1_triad():
    spec = asymmetric_spectrum(1, 2, 3, BundleKind.PLUS, j_max=1)
    lines = spec.lines_for_degree(2)
    assert sorted(ln.energy for ln in lines) == [
        Fraction(5, 12),
        Fraction(2, 3),
        Fraction(3, 4),
    ]
    assert all(ln.multiplicity == 3 for ln in lines)
    j0 = spec.lines_for_degree(0)
    assert len(j0) == 1 and j0[0].energy == 0 and j0[0].multiplicity == 1


def test_asymmetric_routes_near_ties():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = asymmetric_spectrum(2, 2 + 1e-14, 1, BundleKind.PLUS, j_max=2)
    assert any("symmetric" in str(w.message) for w in caught)
    assert spec.kind == "symmetric"


def test_integer_momenta_stay_exact_on_near_tie_routing():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ints = asymmetric_spectrum(2, 1, 2, BundleKind.PLUS, j_max=2)
        fracs = asymmetric_spectrum(Fraction(2), Fraction(1), Fraction(2), BundleKind.PLUS, j_max=2)
    assert ints.kind == "symmetric"
    assert all(isinstance(ln.energy, Fraction) for ln in ints.lines)
    assert ints.lines == fracs.lines
    assert ints.params == fracs.params
    assert isinstance(ints.params["I_pair"], Fraction)


def test_spherical_through_diagonalized_path():
    brute = diagonalized_spectrum(2, 2, 2, BundleKind.PLUS, j_max=3)
    closed = spherical_spectrum(2, BundleKind.PLUS, j_max=3)
    for c in closed.lines:
        b = brute.lines_for_degree(int(2 * c.j))
        assert len(b) == 1
        assert abs(float(b[0].energy) - float(c.energy)) <= 1e-10 * max(1, float(c.energy))


def test_curvature_shift_consistent_across_routes():
    k = Fraction(1, 3)
    closed = symmetric_spectrum(2, 1, BundleKind.PLUS, k=k, j_max=2)
    brute = diagonalized_spectrum(2, 2, 1, BundleKind.PLUS, k=k, j_max=2)
    for d in (0, 2, 4):
        cl = sorted({ln.energy for ln in closed.lines_for_degree(d)})
        bl = [ln.energy for ln in brute.lines_for_degree(d)]
        assert cl == bl
    # spherical with k: every level shifts by k * 3 hbar0 / (2 I)
    shifted = spherical_spectrum(1, BundleKind.MINUS, k=2, j_max=Fraction(1, 2))
    assert shifted.lines[0].energy == Fraction(3, 8) + 2 * Fraction(3, 2)


def test_degenerate_values():
    spec = degenerate_spectrum(1, k=0, hbar0=1, l_max=2)
    assert [(ln.energy, ln.multiplicity) for ln in spec.lines] == [
        (0, 1),
        (1, 3),
        (3, 5),
    ]
    assert spec.bundle is BundleKind.PLUS
    refs = spec.lines[2].eigensections
    assert refs == tuple((2, None, idx) for idx in range(5))


def test_monopole_reduces_at_zero_charge():
    free = symmetric_spectrum(2, 1, BundleKind.PLUS, j_max=2)
    mono = monopole_spectrum(2, 1, BundleKind.PLUS, nu=0, q_center_norm=1, j_max=2)
    for ln in free.lines:
        partners = [m for m in mono.lines if m.j == ln.j and abs(m.l) == ln.l]
        assert partners and all(m.energy == ln.energy for m in partners)
        assert sum(m.multiplicity for m in partners) == ln.multiplicity


def test_monopole_ground_level_and_splitting():
    nu, qn = Fraction(3), Fraction(1, 2)
    mono = monopole_spectrum(2, 1, BundleKind.PLUS, nu=nu, q_center_norm=qn, j_max=1)
    ground = [ln for ln in mono.lines if ln.j == 0][0]
    assert ground.energy == nu**2 * qn**2 / 2  # nu^2 |q|^2 / (2 I_axis hbar0)
    by_l = {ln.l: ln.energy for ln in mono.lines if ln.j == 1}
    assert by_l[-1] - by_l[1] == 2 * nu * qn  # 2 nu |q| l / I_axis at l = 1
    minus = monopole_spectrum(2, 1, BundleKind.MINUS, nu=nu, q_center_norm=qn, j_max=Fraction(1, 2))
    by_l = {ln.l: ln.energy for ln in minus.lines}
    assert by_l[Fraction(-1, 2)] - by_l[Fraction(1, 2)] == 2 * nu * qn * Fraction(1, 2)


def test_monopole_multiplicity_is_2j_plus_1():
    mono = monopole_spectrum(2, 1, BundleKind.PLUS, nu=1, q_center_norm=1, j_max=2)
    for ln in mono.lines:
        assert ln.multiplicity == int(2 * ln.j + 1)


def test_eigensections_lie_in_casimir_eigenspace():
    spec = symmetric_spectrum(2, 1, BundleKind.PLUS, j_max=2)
    for ln in spec.lines:
        expect = ln.j * (ln.j + 1)
        for p, q, idx in ln.eigensections:
            c = casimir_matrix(p, q)
            assert c[idx][idx].re == expect
            # and the reference points at the right ladder weight
            space_l = Fraction(idx) - Fraction(p + q, 2)
            assert abs(space_l) == ln.l or space_l == ln.l


def test_spectrum_sorted_and_total():
    spec = symmetric_spectrum(2, 1, BundleKind.PLUS, j_max=3)
    energies = [float(ln.energy) for ln in spec.lines]
    assert energies == sorted(energies)
    assert spec.total_multiplicity() == sum((2 * j + 1) ** 2 for j in range(4))


def test_j_max_cap_enforced():
    with pytest.raises(ValueError):
        spherical_spectrum(1, BundleKind.PLUS, j_max=26)


def test_j_squared_overflow_raises_like_its_siblings():
    # hbar0^2 overflows, so the energies would read [nan, inf, inf]
    with pytest.raises(HamiltonianOverflowError):
        j_squared_spectrum(BundleKind.PLUS, 2, hbar0=1e308)
    with pytest.raises(HamiltonianOverflowError):
        spherical_spectrum(1, BundleKind.PLUS, hbar0=1e308, j_max=2)


@pytest.mark.parametrize(
    "momenta, kwargs",
    [
        ((1, 2, 3), {"hbar0": 10**400}),
        ((1, 2, 3), {"k": 10**400}),
        ((1.0, 2.0, 3.0), {"hbar0": 10**400}),
    ],
    ids=["rational_hbar", "rational_k", "float_momenta"],
)
def test_rational_scale_beyond_the_float_range_raises_overflow(momenta, kwargs):
    # the float conversions of the band, of the symmetrized array and of
    # the energy ordering report the overflow by name, not as OverflowError
    with pytest.raises(HamiltonianOverflowError):
        asymmetric_spectrum(*momenta, BundleKind.PLUS, j_max=3, **kwargs)


# every public spectrum and hamiltonian_matrix, with the inputs the guard covers
PLUS = BundleKind.PLUS
VALID = {"i_mom": 1.0, "i_pair": 2.0, "i_axis": 1.0, "i1": 1.0, "i2": 2.0, "i3": 3.0, "hbar0": 1.0}
ENTRY_POINTS = {
    "j_squared": (("hbar0",), lambda v: j_squared_spectrum(PLUS, 1, v["hbar0"])),
    "spherical": (("i_mom", "hbar0"), lambda v: spherical_spectrum(v["i_mom"], PLUS, 0, v["hbar0"], 1)),
    "symmetric": (
        ("i_pair", "i_axis", "hbar0"),
        lambda v: symmetric_spectrum(v["i_pair"], v["i_axis"], PLUS, 0, v["hbar0"], 1),
    ),
    "degenerate": (("i_mom", "hbar0"), lambda v: degenerate_spectrum(v["i_mom"], 0, v["hbar0"], 1)),
    "monopole": (
        ("i_pair", "i_axis", "hbar0"),
        lambda v: monopole_spectrum(v["i_pair"], v["i_axis"], PLUS, 1, 1, 0, v["hbar0"], 1),
    ),
    "diagonalized": (
        ("i1", "i2", "i3", "hbar0"),
        lambda v: diagonalized_spectrum(v["i1"], v["i2"], v["i3"], PLUS, 0, v["hbar0"], 1),
    ),
    "asymmetric": (
        ("i1", "i2", "i3", "hbar0"),
        lambda v: asymmetric_spectrum(v["i1"], v["i2"], v["i3"], PLUS, 0, v["hbar0"], 1),
    ),
    "hamiltonian_matrix": (
        ("i1", "i2", "i3", "hbar0"),
        lambda v: hamiltonian_matrix(harmonic_basis(1, 1), v["i1"], v["i2"], v["i3"], v["hbar0"]),
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [-1.0, 0, Fraction(-1, 2), float("nan"), float("inf"), -float("inf")], ids=repr)
def test_nonpositive_or_nonfinite_inputs_are_named(entry, bad):
    names, call = ENTRY_POINTS[entry]
    call(VALID)
    for name in names:
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            call({**VALID, name: bad})


# --- classical momentum map ---------------------------------------------------


def _dipole(a=1.0, m=1.0):
    system = ParticleSystem(
        masses=[m, m], charges=[0.0, 0.0], positions=[[a, 0, 0], [-a, 0, 0]]
    )
    return canonicalize(system)


def test_momentum_map_orthogonal_axis_vanishes():
    config = _dipole()
    rate = 1.3
    v = velocities_from_angular(config, [0, 0, rate])
    assert classical_momentum_map([1, 0, 0], config, v) == pytest.approx(0.0, abs=1e-14)


def test_momentum_map_dipole_value():
    a, m, rate, hbar0 = 1.7, 2.5, 0.8, 2.0
    config = _dipole(a, m)
    v = velocities_from_angular(config, [0, 0, rate])
    got = classical_momentum_map([0, 0, 1], config, v, hbar0)
    assert got == pytest.approx(2 * m * a**2 * rate / hbar0)


def test_momentum_map_linearity():
    rng = np.random.default_rng(9)
    config = _dipole()
    v = rng.uniform(-1, 1, (2, 3))
    w1, w2 = rng.uniform(-1, 1, (2, 3))
    a_coef, b_coef = 0.7, -1.9
    lhs = classical_momentum_map(a_coef * w1 + b_coef * w2, config, v)
    rhs = a_coef * classical_momentum_map(w1, config, v) + b_coef * classical_momentum_map(
        w2, config, v
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_rational_momentum_beyond_the_float_range():
    # its float() overflows, so the momenta are classified exactly: 2 and 3
    # coincide relative to 10**400
    huge = 10**400
    spec = diagonalized_spectrum(huge, 2, 3, BundleKind.PLUS, j_max=1)
    assert spec.top_class is TopClass.SYMMETRIC
    assert spec.total_multiplicity() == 1 + 9
    with pytest.warns(UserWarning, match="symmetric closed form"):
        routed = asymmetric_spectrum(huge, 2, 3, BundleKind.PLUS, j_max=1)
    assert routed.kind == "symmetric"
    assert routed.params == {"I_pair": Fraction(5, 2), "I_axis": huge}
    assert routed.total_multiplicity() == 1 + 9

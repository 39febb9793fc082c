"""Closed-form spectra, the diagonalization engine, and the momentum map."""

import fractions
import math
import random
import sys
import warnings
from collections import Counter
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest

from rotorspec import (
    DEFAULT_TOLERANCES,
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
from rotorspec import spectra
from rotorspec.errors import BundleRequestError, HamiltonianOverflowError, OutOfRangeError, RotorSpecError
from rotorspec.inertia import TopClass, classify_momenta, scalar_curvature
from rotorspec.polyalg import band_record, casimir_matrix, degree_band, eigenvalues, hamiltonian_matrix, harmonic_basis, pairing_weights
from rotorspec.polyalg.levels import EXACT_DEGREE_MAX, _species_levels, band_species, degree_matrix
from rotorspec.quantum_structures import bundle_of_j, j_values
from rotorspec.spectra import SpectralLine, Spectrum, _refs, _spectrum, curvature_shift, group_energies


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


def test_an_asymmetric_spectrum_classifies_its_triple_once(monkeypatch):
    # asymmetric_spectrum classifies and its Spectrum is built once, of kind
    # "asymmetric"; a direct diagonalized_spectrum call classifies for itself
    calls = []

    def counting(momenta, tol=DEFAULT_TOLERANCES):
        calls.append(momenta)
        return classify_momenta(momenta, tol)

    monkeypatch.setattr(spectra, "classify_momenta", counting)
    spec = asymmetric_spectrum(1, 2, Fraction(7, 2), BundleKind.PLUS, j_max=3)
    assert len(calls) == 1 and spec.kind == "asymmetric" and spec.top_class is TopClass.ASYMMETRIC
    brute = diagonalized_spectrum(2, 2, 1, BundleKind.PLUS, j_max=1)
    assert len(calls) == 2 and brute.kind == "diagonalized" and brute.top_class is TopClass.SYMMETRIC


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


def _literal_shift(spec, top, momenta):
    """k rho as a literal: a rational k = 0 adds Fraction(0) to every
    level, whatever the momenta, so a float level x is x + Fraction(0)."""
    if spec.k == 0:
        return Fraction(0) if isinstance(spec.k, Rational) else 0.0
    return spec.k * scalar_curvature(top, momenta, spec.hbar0)


def _per_line_spherical(spec):
    """(j, None) -> (energy, multiplicity, refs) of the spherical closed
    form written out."""
    i_mom, h = spec.params["I"], spec.hbar0
    shift = _literal_shift(spec, TopClass.SPHERICAL, (i_mom,))
    out = {}
    for j in j_values(spec.bundle, spec.j_max):
        d = int(2 * j)
        refs = tuple((p, d - p, idx) for p in range(d + 1) for idx in range(d + 1))
        out[(j, None)] = (h / (2 * i_mom) * j * (j + 1) + shift, (d + 1) ** 2, refs)
    return out


def _per_line_symmetric(spec):
    """(j, |l|) -> (energy, multiplicity, refs) with every term formed for
    its line, by Fraction j and |l|: the closed form written out."""
    i_pair, i_axis, h = spec.params["I_pair"], spec.params["I_axis"], spec.hbar0
    shift = _literal_shift(spec, TopClass.SYMMETRIC, (i_pair, i_axis))
    out = {}
    for j in j_values(spec.bundle, spec.j_max):
        d = int(2 * j)
        abs_l = Fraction(0) if j.denominator == 1 else Fraction(1, 2)
        while abs_l <= j:
            e = h / (2 * i_pair) * j * (j + 1) + h / 2 * (1 / i_axis - 1 / i_pair) * abs_l * abs_l + shift
            if abs_l == 0:
                mult, indices = int(2 * j + 1), (int(j),)
            else:
                mult, indices = 2 * int(2 * j + 1), (int(j - abs_l), int(j + abs_l))
            out[(j, abs_l)] = (e, mult, tuple((p, d - p, idx) for p in range(d + 1) for idx in indices))
            abs_l += 1
    return out


def _per_line_monopole(spec):
    """(j, l) -> (energy, multiplicity, refs) of the monopole closed form
    written out, every term formed for its line."""
    i_pair, i_axis, h = spec.params["I_pair"], spec.params["I_axis"], spec.hbar0
    nu, qn = spec.params["nu"], spec.params["q_norm"]
    shift = _literal_shift(spec, TopClass.SYMMETRIC, (i_pair, i_axis))
    out = {}
    for j in j_values(spec.bundle, spec.j_max):
        d = int(2 * j)
        l = -j
        while l <= j:
            e = (
                h / (2 * i_pair) * j * (j + 1)
                + h / 2 * (1 / i_axis - 1 / i_pair) * l * l
                - nu * qn / i_axis * l
                + nu * nu * qn * qn / (2 * i_axis * h)
                + shift
            )
            idx = int(j + l)
            out[(j, l)] = (e, int(2 * j + 1), tuple((p, d - p, idx) for p in range(d + 1)))
            l += 1
    return out


def _assert_diagonalized_lines(spec):
    """Each line holds the levels of block H^(d//2, d - d//2) at its
    indices, with references index by index over every block of its
    degree; returns the number of lines with more than one index."""
    momenta = (spec.params["I1"], spec.params["I2"], spec.params["I3"])
    closed_momenta = classify_momenta(momenta)[1]
    shift = curvature_shift(spec.k, spec.top_class, closed_momenta or momenta, spec.hbar0)
    several = 0
    for ln in spec.lines:
        d = int(2 * ln.j)
        idxs = [idx for p, _, idx in ln.eigensections if p == 0]
        refs = tuple((p, d - p, idx) for idx in idxs for p in range(d + 1))
        assert (ln.multiplicity, ln.eigensections) == ((d + 1) * len(idxs), refs)
        value = eigenvalues(d, *degree_band(d, band_record(*momenta, spec.hbar0)))[idxs[0]][0] + shift
        assert (repr(ln.energy), type(ln.energy)) == (repr(value), type(value))
        several += len(idxs) > 1
    return several


def _assert_lines_are(spec, want):
    assert len(spec.lines) == len(want)
    for ln in spec.lines:
        energy, mult, refs = want[(ln.j, ln.l)]
        assert (repr(ln.energy), type(ln.energy)) == (repr(energy), type(energy)), (ln.j, ln.l)
        assert type(ln.j) is Fraction
        assert type(ln.l) is (type(None) if spec.kind == "spherical" else Fraction)
        assert (ln.multiplicity, ln.eigensections) == (mult, refs)


@pytest.mark.parametrize(
    "i_pair, i_axis",
    [(2.3, 1.1), (Fraction(7, 3), Fraction(5, 4)), (Fraction(7, 3), 1.1), (0.4, 3)],
    ids=repr,
)
def test_closed_forms_equal_their_per_line_formulas(i_pair, i_axis):
    # each term is formed once per degree or per |l| and summed in the
    # formula's order, so every float is the same bits and every Fraction
    # the same value as when each line forms all of its terms; on float
    # momenta with k = 0 the shift 0.0 gives the bits of + Fraction(0)
    free, charged, float_charged = (0, 1), (Fraction(3, 2), Fraction(2, 5)), (-0.7, 1.3)
    every = (free, charged, float_charged)
    half = Fraction(7, 2)
    cases = [
        (1, 0, 25, (free,)),
        (1.7, 0.25, 25, (charged,)),
        (1e300, Fraction(1, 2), 25, (float_charged,)),
        (Fraction(2, 3), Fraction(1, 2), half, every),
        (1e300, 0, half, every),
        (1, 0.25, half, every),
    ]
    for hbar0, k, j_max, monopoles in cases:
        for bundle in (BundleKind.PLUS, BundleKind.MINUS):
            spec = spherical_spectrum(i_pair, bundle, k=k, hbar0=hbar0, j_max=j_max)
            _assert_lines_are(spec, _per_line_spherical(spec))
            spec = symmetric_spectrum(i_pair, i_axis, bundle, k=k, hbar0=hbar0, j_max=j_max)
            _assert_lines_are(spec, _per_line_symmetric(spec))
            for nu, qn in monopoles:
                spec = monopole_spectrum(i_pair, i_axis, bundle, nu, qn, k=k, hbar0=hbar0, j_max=j_max)
                _assert_lines_are(spec, _per_line_monopole(spec))
            if j_max == half and hbar0 != 1e300:
                # a symmetric body on the diagonalization route: the
                # levels +l and -l of a block form one line of two indices
                spec = diagonalized_spectrum(i_pair, i_pair, i_axis, bundle, k=k, hbar0=hbar0, j_max=j_max)
                assert _assert_diagonalized_lines(spec) > 0


def test_closed_forms_at_hbar_1e308_raise_overflow():
    for bundle in (BundleKind.PLUS, BundleKind.MINUS):
        with pytest.raises(HamiltonianOverflowError):
            symmetric_spectrum(2.3, 1.1, bundle, hbar0=1e308, j_max=25)
        with pytest.raises(HamiltonianOverflowError):
            monopole_spectrum(2.3, 1.1, bundle, 1.5, 0.7, hbar0=1e308, j_max=25)


def test_closed_forms_do_bounded_fraction_work_per_line():
    # on float momenta the j and |l| terms are floats formed once per
    # degree or per |l| on float(j), and a line's sort key compares its
    # Fraction j and l only on an energy tie: 0.3 to 0.5 calls into
    # fractions per line.  Forming every term per line, with Fraction j
    # and l, made about 77 calls per symmetric line and 340 per monopole
    # line
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls += 1

    for build in (
        lambda bundle: symmetric_spectrum(2.3, 1.1, bundle, j_max=25),
        lambda bundle: monopole_spectrum(2.3, 1.1, bundle, 1.5, 0.7, j_max=25),
    ):
        for bundle in (BundleKind.PLUS, BundleKind.MINUS):
            calls = 0
            sys.setprofile(profile)
            try:
                lines = len(build(bundle).lines)
            finally:
                sys.setprofile(None)
            assert calls <= 2 * lines, (bundle, calls, lines)


def test_a_line_checks_its_bundle_without_building_a_fraction(monkeypatch):
    # the bundle check reads the denominator of the rational j
    def refuse(cls, *args, **kwargs):
        raise AssertionError("Fraction built")

    j = Fraction(7, 2)
    monkeypatch.setattr(Fraction, "__new__", refuse)
    line = SpectralLine(1.0, j, 8, BundleKind.MINUS)
    assert line.j is j
    with pytest.raises(ValueError, match="inconsistent"):
        SpectralLine(1.0, j, 8, BundleKind.PLUS)
    # _replace builds its copy through the same checks
    with pytest.raises(ValueError, match="inconsistent"):
        line._replace(bundle=BundleKind.PLUS)
    with pytest.raises(ValueError, match="^multiplicity must be positive$"):
        line._replace(multiplicity=0)


def _every_route_at_the_cap():
    for bundle in (BundleKind.PLUS, BundleKind.MINUS):
        yield spherical_spectrum(2.3, bundle, j_max=25)
        yield symmetric_spectrum(2.3, 1.1, bundle, j_max=25)
        yield monopole_spectrum(2.3, 1.1, bundle, 1.5, 0.7, j_max=25)
        yield diagonalized_spectrum(1.0, 2.0, 3.5, bundle, j_max=25)


def test_reference_memo_is_bounded_and_reused():
    # one entry per (degree, indices): a spherical degree, the index pairs
    # of a symmetric degree and the single indices of the others
    first = list(_every_route_at_the_cap())
    assert _refs.cache_info().currsize <= 3000
    before = _refs.cache_info()
    second = list(_every_route_at_the_cap())
    after = _refs.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    for a, b in zip(first, second):
        assert all(x.eigensections is y.eigensections for x, y in zip(a.lines, b.lines) if x.source == "closed-form")


def test_spectra_of_one_degree_share_their_references():
    d = 6
    symmetric = symmetric_spectrum(2.3, 1.1, BundleKind.PLUS, j_max=3).lines_for_degree(d)
    monopole = monopole_spectrum(Fraction(7, 3), Fraction(5, 4), BundleKind.PLUS, 1, 1, j_max=3).lines_for_degree(d)
    at_l0 = [ln for ln in symmetric if ln.l == 0] + [ln for ln in monopole if ln.l == 0]
    assert len(at_l0) == 2 and at_l0[0].eigensections is at_l0[1].eigensections
    (spherical,) = spherical_spectrum(2.3, BundleKind.PLUS, j_max=3).lines_for_degree(d)
    triples = {ref: ref for ref in spherical.eigensections}
    diagonalized = diagonalized_spectrum(1.0, 2.0, 3.5, BundleKind.PLUS, j_max=3).lines_for_degree(d)
    for ln in symmetric + monopole + diagonalized:
        assert all(ref is triples[ref] for ref in ln.eigensections)


def _partition_routes():
    """(name, spectrum) for every route on rational and float input, both
    bundles and k in {0, 1/2, 0.25}: the closed forms to j_max 25, the
    diagonalized route (a symmetric triple included, whose lines join
    several indices) to j_max 8."""
    for k in (0, Fraction(1, 2), 0.25):
        for bundle in (BundleKind.PLUS, BundleKind.MINUS):
            for i, pair, axis in ((Fraction(7, 3), Fraction(7, 3), Fraction(5, 4)), (2.3, 2.3, 1.1)):
                yield "spherical", spherical_spectrum(i, bundle, k=k, j_max=25)
                yield "symmetric", symmetric_spectrum(pair, axis, bundle, k=k, j_max=25)
                yield "monopole", monopole_spectrum(pair, axis, bundle, Fraction(3, 2), Fraction(1, 3), k=k, j_max=25)
            for triple in ((1, 2, Fraction(7, 2)), (8, Fraction(17, 7), Fraction(53, 11)), (1.0, 2.0, 3.5), (3.7, 1.3, 2.9)):
                yield "asymmetric", asymmetric_spectrum(*triple, bundle, k=k, j_max=8)
            for triple in ((2, 2, 1), (1.0, 2.0, 3.5)):
                yield "diagonalized", diagonalized_spectrum(*triple, bundle, k=k, j_max=8)
        for i in (Fraction(7, 3), 2.3):
            yield "degenerate", degenerate_spectrum(i, k=k, l_max=25)


def test_route_lines_are_the_lines_of_the_public_constructors():
    # _spectrum builds the lines and the Spectrum of every route in one
    # checked pass, without the public constructors; rebuilding them
    # through SpectralLine(...) and Spectrum(...) (which sorts again)
    # changes nothing, and the lines ascend by sort_key
    for name, spec in _partition_routes():
        assert type(spec) is Spectrum, name
        for ln in spec.lines:
            assert type(ln) is SpectralLine and SpectralLine(*ln) == ln, (name, ln)
        assert Spectrum(*spec) == spec, name
        keys = [ln.sort_key for ln in spec.lines]
        assert keys == sorted(keys), name


def test_the_checked_pass_runs_the_checks_of_the_public_path():
    # the bundle of j, a positive multiplicity and a finite float energy
    # are checked for route lines as for SpectralLine(...) and Spectrum(...)
    half, one = Fraction(1, 2), Fraction(1)

    def build(*levels, bundle=BundleKind.PLUS):
        return _spectrum("spherical", TopClass.SPHERICAL, bundle, {}, 0, 1, 1, iter(levels))

    assert build((1.0, one, None, 9, None), (0.5, one, None, 1, None)).lines[0].energy == 0.5
    with pytest.raises(ValueError, match="inconsistent"):
        build((0.0, 0, None, 1, None), (1.0, half, None, 4, None))
    with pytest.raises(ValueError, match="inconsistent"):
        build((1.0, one, None, 9, None), bundle=BundleKind.MINUS)
    with pytest.raises(ValueError, match="^multiplicity must be positive$"):
        build((1.0, one, None, 9, None), (2.0, one, None, 0, None))
    for energy in (math.inf, math.nan, Fraction(10**400)):
        with pytest.raises(HamiltonianOverflowError):
            build((energy, one, None, 9, None))


@pytest.mark.parametrize("build", [symmetric_spectrum, lambda *args, **kw: monopole_spectrum(*args[:3], 1.5, 0.7, **kw)], ids=["symmetric", "monopole"])
def test_a_spectrum_without_a_degree_forms_no_term(build):
    # the coefficients and k rho are formed at the first degree, so on the
    # non-trivial bundle at j_max 0 a pair momentum below the float range
    # beside a float one (whose coefficient and rho overflow) forms nothing
    # and raises nothing
    assert build(TINY, 1.0, BundleKind.MINUS, k=1, hbar0=1e100, j_max=0).lines == ()
    with pytest.raises(HamiltonianOverflowError):
        build(TINY, 1.0, BundleKind.MINUS, hbar0=1e100, j_max=Fraction(1, 2))
    # a pair momentum beyond the float range gives the coefficient
    # 0.5 / (2 10^400), rounded once to 0.0, so its levels fit
    levels = [ln.energy for ln in build(10**400, 1.0, BundleKind.MINUS, hbar0=0.5, j_max=Fraction(1, 2)).lines]
    assert levels == ([0.0625] if build is symmetric_spectrum else [pytest.approx(0.64), pytest.approx(1.69)])


def test_eigensection_references_partition_each_degree():
    # every line holds one reference per unit of multiplicity and lies on
    # the bundle of its j; per degree d the lines' references are pairwise
    # distinct and are all (p, d - p, idx), 0 <= p, idx <= d; on S^2 the
    # references of the level l are (l, None, idx), idx < 2l + 1
    for name, spec in _partition_routes():
        by_degree = {}
        for ln in spec.lines:
            assert ln.multiplicity == len(ln.eigensections), (name, ln)
            assert bundle_of_j(ln.j) is ln.bundle, (name, ln)
            by_degree.setdefault(int(2 * ln.j), []).extend(ln.eigensections)
        for d, refs in by_degree.items():
            if name == "degenerate":
                ell = d // 2
                want = {(ell, None, idx) for idx in range(2 * ell + 1)}
            else:
                want = {(p, d - p, idx) for p in range(d + 1) for idx in range(d + 1)}
            assert len(refs) == len(set(refs)) and set(refs) == want, (name, d)


def test_exact_levels_stay_apart_beside_float_levels():
    # at k = 10^100 the three rational levels of degree 4 all round to the
    # float of the two irrational ones; a rational level joins only an
    # equal rational level, never a float one
    spec = diagonalized_spectrum(1, 2, Fraction(7, 2), BundleKind.PLUS, k=10**100, j_max=2)
    lines = spec.lines_for_degree(4)
    exact = [ln for ln in lines if isinstance(ln.energy, Fraction)]
    inexact = [ln for ln in lines if isinstance(ln.energy, float)]
    assert len(lines) == 4 and len(exact) == 3 and len(inexact) == 1
    assert [ln.multiplicity for ln in exact] == [5, 5, 5] and inexact[0].multiplicity == 10
    rho = scalar_curvature(TopClass.ASYMMETRIC, (1, 2, Fraction(7, 2)), 1)
    assert sorted(ln.energy - 10**100 * rho for ln in exact) == [Fraction(37, 28), Fraction(23, 14), Fraction(67, 28)]


def test_eigensections_lie_in_casimir_eigenspace():
    spec = symmetric_spectrum(2, 1, BundleKind.PLUS, j_max=2)
    for ln in spec.lines:
        expect = ln.j * (ln.j + 1)
        for p, q, idx in ln.eigensections:
            c = casimir_matrix(p, q)
            assert c[idx][idx] == expect
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


def test_exact_j2_levels_of_a_triple_with_an_integer_level():
    # c = hbar0 / (2 I) = (1/16, 7/34, 11/106): the j = 2 levels are
    # 4c1+c2+c3, c1+4c2+c3, c1+c2+4c3 and 2s -+ 2 sqrt(s^2 - 3e2) with
    # s = c1+c2+c3 and e2 the second elementary symmetric function; the
    # upper root is exactly 1, and the float candidate of c1+c2+4c3 once
    # rounded to it, so 1 was reported twice and c1+c2+4c3 never
    c1, c2, c3 = Fraction(1, 16), Fraction(7, 34), Fraction(11, 106)
    spec = asymmetric_spectrum(8, Fraction(17, 7), Fraction(53, 11), BundleKind.PLUS, j_max=2)
    got = [(ln.energy, ln.multiplicity) for ln in spec.lines_for_degree(4)]
    want = sorted([4 * c1 + c2 + c3, c1 + 4 * c2 + c3, c1 + c2 + 4 * c3, Fraction(1761, 3604), Fraction(1)])
    assert got == [(e, 5) for e in want]


def _rational_roots(band, sympy):
    """The rational roots of det(t - H) of a band, with multiplicity, from
    sympy's factorization over Q of the dense band's characteristic
    polynomial."""
    n = len(band.diag)
    entries = {(a, a): x for a, x in enumerate(band.diag)}
    entries.update({(a + 2, a): x for a, x in enumerate(band.lower)})
    entries.update({(a, a + 2): x for a, x in enumerate(band.upper)})
    dense = sympy.Matrix(n, n, lambda a, b: sympy.Rational(str(entries.get((a, b), 0))))
    t = sympy.Symbol("t")
    roots = sympy.Poly(dense.charpoly(t).as_expr(), t, domain="QQ").ground_roots()
    return Counter({Fraction(int(r.p), int(r.q)): mult for r, mult in roots.items()})


@pytest.mark.parametrize("lo, hi", [(1, 12), (10**3, 10**4), (10**8, 10**9)], ids=["small", "1e3", "1e8"])
def test_exact_levels_are_the_rational_roots_of_the_band(lo, hi):
    # for rational input at d <= 4, a level is exact exactly when it is a
    # rational root of det(t - H); the float-candidate search left most
    # such levels with large denominators, or at a large scale, as floats
    sympy = pytest.importorskip("sympy")
    rng = random.Random(lo)
    for _ in range(10):
        values = set()
        while len(values) < 3:
            den = rng.randint(lo, hi)
            values.add(Fraction(rng.randint(den, 8 * den), den))
        momenta = tuple(rng.sample(sorted(values), 3))
        for hbar0 in (1, 10**100):
            for bundle in (BundleKind.PLUS, BundleKind.MINUS):
                spec = diagonalized_spectrum(*momenta, bundle, hbar0=hbar0, j_max=2)
                for j in j_values(bundle, 2):
                    d = int(2 * j)
                    got = Counter()
                    for ln in spec.lines_for_degree(d):
                        if isinstance(ln.energy, Fraction):
                            got[ln.energy] += ln.multiplicity // (d + 1)
                    # block (d, 0), not the block the spectrum path reads
                    want = _rational_roots(hamiltonian_matrix(harmonic_basis(d, 0), *momenta, hbar0), sympy)
                    assert got == want, (momenta, hbar0, d)


@pytest.mark.parametrize("hbar0", [10**100, 10**200, 10**300], ids=["1e100", "1e200", "1e300"])
def test_huge_rational_scale_scales_the_levels(hbar0):
    # r^2 of a two-entry species leaves the float range from hbar0 =
    # 10**154 on (10**155 at d = 3), while the levels do not; the spectrum
    # is hbar0 times the one at hbar0 = 1, exactly where exact, and no
    # OverflowError is raised
    momenta = (Fraction(1, 3), 2, Fraction(7, 2))
    for bundle in (BundleKind.PLUS, BundleKind.MINUS):
        base = asymmetric_spectrum(*momenta, bundle, j_max=2)
        spec = asymmetric_spectrum(*momenta, bundle, hbar0=hbar0, j_max=2)
        assert [(ln.j, ln.multiplicity, ln.eigensections) for ln in spec.lines] == [
            (ln.j, ln.multiplicity, ln.eigensections) for ln in base.lines
        ]
        for ln, ref in zip(spec.lines, base.lines):
            assert type(ln.energy) is type(ref.energy)
            if isinstance(ln.energy, Fraction):
                assert ln.energy == hbar0 * ref.energy
            else:
                assert ln.energy == pytest.approx(hbar0 * ref.energy, rel=1e-14)


@pytest.mark.parametrize(
    "momenta, hbar0, bundle",
    [
        ((Fraction(31, 76), Fraction(70, 17), Fraction(8, 13)), Fraction(91, 10) * 10**307, BundleKind.PLUS),
        ((Fraction(55, 6), Fraction(22, 19), Fraction(34, 59)), Fraction(3, 4) * 10**308, BundleKind.MINUS),
    ],
    ids=["exact_level", "irrational_level"],
)
def test_a_level_beyond_the_float_range_raises_overflow(momenta, hbar0, bundle):
    # every weighted band entry is finite, but a level is not: an exact one
    # (j = 1) or an irrational one (j = 3/2); eigvalsh returned inf there,
    # which the candidate search turned into a bare OverflowError
    with pytest.raises(HamiltonianOverflowError):
        diagonalized_spectrum(*momenta, bundle, hbar0=hbar0, j_max=2)


def test_an_empty_spectrum_reads_no_band_record():
    # a MINUS spectrum at j_max 0 has no degree, so the float record of a
    # momentum beyond the float range is never taken and it stays empty; at
    # j_max 1/2 its first degree takes it and overflows
    args = (10**400, 2, 3, BundleKind.MINUS)
    assert diagonalized_spectrum(*args, hbar0=1.6e201, j_max=0).lines == ()
    with pytest.raises(HamiltonianOverflowError):
        diagonalized_spectrum(*args, hbar0=1.6e201, j_max=Fraction(1, 2))


def test_a_pair_sum_beyond_the_float_range_keeps_finite_levels():
    # c1 + c2 exceeds the float range at hbar0 = 1e308 but (c1 + c2)/4 does
    # not: the j = 0 level is 0.0 and the j = 1/2 level (c1 + c2)/4 + c3/4
    c1, c2, c3 = (1e308 / (2 * mom) for mom in (0.5, 0.6, 2.0))
    plus = diagonalized_spectrum(0.5, 0.6, 2.0, BundleKind.PLUS, hbar0=1e308, j_max=0)
    assert [(ln.j, ln.energy) for ln in plus.lines] == [(0, 0.0)]
    minus = diagonalized_spectrum(0.5, 0.6, 2.0, BundleKind.MINUS, hbar0=1e308, j_max=Fraction(1, 2))
    assert [ln.energy for ln in minus.lines] == [pytest.approx(c1 / 4 + c2 / 4 + c3 / 4, rel=1e-15)]


HUGE = Fraction(10**400)


@pytest.mark.parametrize(
    "call",
    [
        lambda: spherical_spectrum(1.5, BundleKind.PLUS, 0.25, HUGE, 6),
        lambda: symmetric_spectrum(1.5, 2.5, BundleKind.PLUS, 0.25, HUGE, 6),
        lambda: degenerate_spectrum(1.5, 0.25, HUGE, 6),
        lambda: monopole_spectrum(1.5, 2.5, BundleKind.PLUS, HUGE, 1, 0.25, 1, 6),
    ],
    ids=["spherical", "symmetric", "degenerate", "monopole_nu"],
)
def test_a_rational_beyond_the_float_range_meeting_a_float_raises_overflow(call):
    # float(10**400) raises a bare OverflowError where the float momentum
    # or k meets it, in k rho or in a level; every spectrum reports it as
    # HamiltonianOverflowError
    with pytest.raises(HamiltonianOverflowError):
        call()


TINY = Fraction(1, 10**400)


def test_a_rational_below_the_float_range_meeting_a_float_is_read_exactly():
    # a float divided by a rational below the float range (read as 0.0), or
    # by a float product that underflowed, in a level term or in k rho: the
    # value is formed exactly and rounded once, as band_record does, and
    # HamiltonianOverflowError is raised where it leaves the float range
    for call in (
        lambda: spherical_spectrum(TINY, BundleKind.PLUS, hbar0=0.5, j_max=1),
        lambda: symmetric_spectrum(TINY, 2.3, BundleKind.PLUS, hbar0=0.5, j_max=1),
        # rho's float form divides 3.5 by 2 I_pair^2, read as 0.0
        lambda: symmetric_spectrum(Fraction(1, 10**300), 7, BundleKind.PLUS, k=Fraction(1, 2), hbar0=0.5, j_max=0),
        lambda: degenerate_spectrum(TINY, hbar0=0.5, l_max=1),
        lambda: monopole_spectrum(1, TINY, BundleKind.PLUS, 1.5, 1, j_max=1),
        # 2 I_axis hbar0 underflows to 0.0 in the constant term
        lambda: monopole_spectrum(0.1, 0.1, BundleKind.PLUS, 1.0, 1.0, hbar0=5e-324, j_max=1),
    ):
        with pytest.raises(HamiltonianOverflowError):
            call()
    # hbar0 / (2 I) is about 5e299, so the j = 1 level is finite
    coefficient = float(Fraction(1e-100) / (2 * TINY))
    spherical = spherical_spectrum(TINY, BundleKind.PLUS, hbar0=1e-100, j_max=1)
    assert [(ln.j, repr(ln.energy)) for ln in spherical.lines] == [(0, "0.0"), (1, repr(coefficient * 2.0))]
    assert repr(spherical.lines[1].energy) == "1e+300"
    shifted = spherical_spectrum(TINY, BundleKind.PLUS, k=1, hbar0=1e-100, j_max=1)
    rho = float(3 * Fraction(1e-100) / (2 * TINY))
    assert [ln.energy for ln in shifted.lines] == [rho, coefficient * 2.0 + rho]
    degenerate = degenerate_spectrum(TINY, k=1.0, hbar0=1e-100, l_max=1)
    assert [ln.energy for ln in degenerate.lines] == [2e300, coefficient * 2.0 + 2e300]
    # the l^2 coefficient hbar0/2 (1/I_axis - 1/I_pair) subtracts 1/2.0 from
    # the Fraction 10^400: about 5e99, rounded once
    symmetric = symmetric_spectrum(2.0, TINY, BundleKind.PLUS, hbar0=1e-300, j_max=1)
    assert [repr(ln.energy) for ln in symmetric.lines] == ["0.0", "5e-301", "5e+99"]


def _block_levels(band):
    """The levels of one exact block band, ascending, from that block
    alone: its species in closed form up to degree EXACT_DEGREE_MAX, and
    otherwise eigvalsh of its weighted symmetrization D A D^-1, D =
    diag(sqrt(w)) for the pairing weights w."""
    p, q = band.space.p, band.space.q
    if p + q <= EXACT_DEGREE_MAX:
        products = [lo * up for lo, up in zip(band.lower, band.upper)]
        species = band_species(band.diag, products, p + q)
        levels = []
        for diag, prods, count in species:
            # the species as integers over den, its products over den^2
            den = math.lcm(*(x.denominator for x in (*diag, *prods)))
            ints = [int(x * den) for x in diag], [int(x * den * den) for x in prods]
            levels += [v for v, _ in _species_levels(*ints, den)] * count
        return sorted(levels)
    a = np.arange(p + q - 1)
    dense = np.diag([float(x) for x in band.diag])
    dense[a + 2, a], dense[a, a + 2] = [float(x) for x in band.lower], [float(x) for x in band.upper]
    s = np.sqrt([float(w) for w in pairing_weights(p, q)])
    return [float(v) for v in np.linalg.eigvalsh(s[:, None] * dense / s[None, :])]


def _per_block_lines(momenta, bundle, k, j_max):
    """The lines of the per-block route: every block H^{p,q} of a degree
    diagonalized on its own band, k rho added to each level, and all their
    levels grouped, as {(j, refs): (energy, multiplicity)}."""
    shift = curvature_shift(k, TopClass.ASYMMETRIC, momenta, 1)
    out = {}
    for j in j_values(bundle, j_max):
        d = int(2 * j)
        found = [
            (value + shift, (p, d - p, idx))
            for p in range(d + 1)
            for idx, value in enumerate(_block_levels(hamiltonian_matrix(harmonic_basis(p, d - p), *momenta)))
        ]
        found.sort(key=lambda pair: float(pair[0]))  # group_energies takes ascending pairs
        for energy, refs in group_energies(found):
            out[j, frozenset(refs)] = energy, len(refs)
    return out


@pytest.mark.parametrize(
    "momenta",
    [
        (1.0, 2.0, 3.5),
        (0.37, 1.91, 2.63),
        (1.0, 1.5, 0.05),
        (1, 2, Fraction(7, 2)),
        (Fraction(21, 8), Fraction(17, 8), Fraction(7, 2)),
        (Fraction(49, 8), Fraction(76, 11), Fraction(16, 3)),
    ],
    ids=repr,
)
def test_one_block_per_degree_equals_the_per_block_route(momenta):
    # same lines, multiplicities and reference sets; exact energies equal;
    # float energies within 32 ulps of the largest level of their degree
    # (eigvalsh is accurate to a few ulps of the band's norm, on each block)
    for k in (0, Fraction(1, 2), 0.25):
        for bundle in (BundleKind.PLUS, BundleKind.MINUS):
            want = _per_block_lines(momenta, bundle, k, 8)
            spec = asymmetric_spectrum(*momenta, bundle, k=k, j_max=8)
            got = {(ln.j, frozenset(ln.eigensections)): (ln.energy, ln.multiplicity) for ln in spec.lines}
            assert len(got) == len(spec.lines) and got.keys() == want.keys()
            top = {}
            for (j, _), (energy, _) in want.items():
                top[j] = max(top.get(j, 0.0), abs(float(energy)))
            for key, (energy, mult) in got.items():
                ref_energy, ref_mult = want[key]
                assert mult == ref_mult
                assert type(energy) is type(ref_energy)
                if isinstance(energy, Fraction):
                    assert energy == ref_energy
                else:
                    assert abs(energy - ref_energy) <= 32 * math.ulp(top[key[0]]), (key[0], energy, ref_energy)
            # references inside a line run over the blocks, index by index
            for ln in spec.lines:
                assert list(ln.eigensections) == sorted(ln.eigensections, key=lambda r: (r[2], r[0]))


def _overflows(momenta, bundle, hbar0, k):
    """Whether, for some degree up to j_max 6, an entry of the dense S_d or
    a level (an eigenvalue of S_d plus k rho) is not a finite float.  The
    levels are eigvalsh of S_d scaled by 2^-e, 2^e bounding its largest
    entry, and scaled back by 2^e, both exactly (np.ldexp): unscaled,
    eigvalsh may overflow inside the solver where the levels are finite."""
    shift = curvature_shift(k, TopClass.ASYMMETRIC, momenta, hbar0)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in j_values(bundle, 6):
            d = int(2 * j)
            diag, g, _ = degree_band(d, band_record(*momenta, hbar0))
            a = np.arange(d - 1)
            dense = np.diag(diag)
            dense[a + 2, a] = dense[a, a + 2] = [g * math.sqrt((m + 1) * (d - m) * (m + 2) * (d - m - 1)) for m in a]
            if not np.isfinite(dense).all():
                return True
            e = math.frexp(np.abs(dense).max())[1]
            levels = np.ldexp(np.linalg.eigvalsh(np.ldexp(dense, -e)), e)
            if not np.isfinite(levels + shift).all():
                return True
    return False


def _scaled_eigvalsh(d, band):
    """The levels of the dense S_d = band by eigvalsh of S_d scaled by
    2^-e, 2^e bounding its largest entry, scaled back by 2^e, both
    exactly."""
    dense = degree_matrix(d, *band)
    e = math.frexp(np.abs(dense).max())[1]
    return np.ldexp(np.linalg.eigvalsh(np.ldexp(dense, -e)), e)


@pytest.mark.parametrize("momenta", [(1.0, 2.0, 3.5), (1.0, 1.5, 0.05), (2.3, 1.1, 0.7), (1, 2, Fraction(7, 2))])
@pytest.mark.parametrize("hbar0", [1e-300, 1, 1e300])
def test_species_levels_are_the_scaled_dense_levels(momenta, hbar0):
    # the QL levels of the species of S_d agree with eigvalsh of the dense
    # S_d to 32 ulps of the degree's largest level for d <= 50, and a
    # Kramers pair of odd d is one level twice, bit for bit
    for d in range(2, 51):
        band = degree_band(d, band_record(*momenta, hbar0))
        got = [float(v) for v, _ in eigenvalues(d, *band)]
        want = _scaled_eigvalsh(d, band)
        ulp = math.ulp(np.abs(want).max())
        assert np.abs(np.array(got) - want).max() <= 32 * ulp, (d, np.abs(np.array(got) - want).max() / ulp)
        if d % 2:
            assert got[::2] == got[1::2], d


def test_a_band_whose_products_overflow_has_finite_levels():
    # g ~ 1e200: the products g^2 P_m P_(m+1) leave the float range, the
    # entries g sqrt(P_m P_(m+1)) and the levels do not
    hbar0 = 1.6e201
    for d in range(2, 51):
        diag, g, den = band = degree_band(d, band_record(1.0, 2.0, 3.5, hbar0))
        assert den == 1 and 1e199 < abs(g) < 1e201 and math.isinf(g * g)
        got = [v for v, _ in eigenvalues(d, *band)]
        assert all(math.isfinite(v) for v in got)
        want = _scaled_eigvalsh(d, band)
        assert np.abs(np.array(got) - want).max() <= 32 * math.ulp(np.abs(want).max())


def _scaled_like(spec, ref, hbar0, rel):
    """spec has the lines, multiplicities and references of ref, and each
    energy is hbar0 times ref's: exactly for Fractions, within rel times the
    largest level of the degree for floats."""
    assert len(spec.lines) == len(ref.lines)
    top = {}
    for ln in ref.lines:
        top[ln.j] = max(top.get(ln.j, 0), abs(ln.energy))
    for got, want in zip(spec.lines, ref.lines):
        assert (got.j, got.multiplicity, got.eigensections) == (want.j, want.multiplicity, want.eigensections)
        assert type(got.energy) is type(want.energy)
        if isinstance(got.energy, Fraction):
            assert got.energy == hbar0 * want.energy
        else:
            assert abs(got.energy - hbar0 * want.energy) <= rel * hbar0 * top[want.j], (got.j, got.energy)


def test_overflow_verdict_is_the_diagonalized_band_verdict():
    # hbar and k log-spaced over [1e298, 1.6e308]: asymmetric_spectrum
    # raises exactly where an entry of S_d or a level of some degree is not
    # a finite float, and what it returns is finite; at k = 0 it is hbar times
    # the hbar = 1 spectrum, to 1e-12 of each degree's largest level (the
    # accuracy of eigvalsh is relative to the band's norm)
    sweep = [float(x) for x in np.geomspace(1e298, 1.6e308, 41)]
    returned = 0
    for momenta in ((1.0, 1.5, 0.001), (1.0, 1.5, 0.05), (1.0, 2.0, 3.5)):
        for bundle in (BundleKind.PLUS, BundleKind.MINUS):
            ref = asymmetric_spectrum(*momenta, bundle, j_max=6)
            for hbar0, k in [*((v, 0.0) for v in sweep), *((1.0, v) for v in sweep)]:
                raises = _overflows(momenta, bundle, hbar0, k)
                try:
                    spec = asymmetric_spectrum(*momenta, bundle, k=k, hbar0=hbar0, j_max=6)
                except HamiltonianOverflowError:
                    assert raises, (momenta, bundle, hbar0, k)
                    continue
                assert not raises, (momenta, bundle, hbar0, k)
                assert all(math.isfinite(ln.energy) for ln in spec.lines)
                if k == 0:
                    _scaled_like(spec, ref, hbar0, 1e-12)
                returned += 1
    assert 0 < returned < 6 * 82


def test_huge_hbar_at_the_cap_is_the_scaled_spectrum():
    # at hbar0 = 1e291 every entry of S_d and every level up to degree 50
    # stays finite, and the spectrum is 1e291 times the hbar = 1 spectrum
    momenta, hbar0 = (1.0, 1.5, 0.001), 1e291
    for bundle in (BundleKind.PLUS, BundleKind.MINUS):
        spec = asymmetric_spectrum(*momenta, bundle, hbar0=hbar0, j_max=25)
        _scaled_like(spec, asymmetric_spectrum(*momenta, bundle, j_max=25), hbar0, 1e-12)


def test_exact_levels_past_the_symmetrization_guard_are_returned():
    # at hbar0 = 7e307 an entry of the j = 2 band weighted by its pairing
    # weight leaves the float range, but S_d and every level lie in it
    hbar0 = 7 * 10**307
    band = hamiltonian_matrix(harmonic_basis(2, 2), 1, 2, Fraction(7, 2), hbar0)
    assert pairing_weights(2, 2)[2] * band.diag[2] > 2**1024
    spec = asymmetric_spectrum(1, 2, Fraction(7, 2), BundleKind.PLUS, hbar0=hbar0, j_max=2)
    ref = asymmetric_spectrum(1, 2, Fraction(7, 2), BundleKind.PLUS, j_max=2)
    assert len(spec.lines) == 9
    assert any(isinstance(ln.energy, Fraction) for ln in spec.lines)
    _scaled_like(spec, ref, hbar0, 1e-12)


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
    "spectrum_for": (
        ("i1", "i2", "i3", "hbar0"),
        lambda v: spectra.spectrum_for(TopClass.ASYMMETRIC, (v["i1"], v["i2"], v["i3"]), PLUS, 0, v["hbar0"], 1),
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


def _assert_out_of_range(call, message):
    """call() raises OutOfRangeError, a ValueError and a RotorSpecError,
    with this message."""
    with pytest.raises(OutOfRangeError) as info:
        call()
    assert isinstance(info.value, ValueError) and isinstance(info.value, RotorSpecError)
    assert str(info.value) == message


# every entry point that takes a cutoff, as a function of it
J_MAX_ENTRY_POINTS = {
    "j_squared": lambda j_max: j_squared_spectrum(PLUS, j_max),
    "spherical": lambda j_max: spherical_spectrum(1, PLUS, j_max=j_max),
    "symmetric": lambda j_max: symmetric_spectrum(2, 1, PLUS, j_max=j_max),
    "monopole": lambda j_max: monopole_spectrum(2, 1, PLUS, 1, 1, j_max=j_max),
    "diagonalized": lambda j_max: diagonalized_spectrum(1, 2, 3, PLUS, j_max=j_max),
    "asymmetric": lambda j_max: asymmetric_spectrum(1, 2, 3, PLUS, j_max=j_max),
    "spectrum_for spherical": lambda j_max: spectra.spectrum_for(TopClass.SPHERICAL, (1,), PLUS, j_max=j_max),
    "spectrum_for symmetric": lambda j_max: spectra.spectrum_for(TopClass.SYMMETRIC, (2, 1), PLUS, j_max=j_max),
    "spectrum_for asymmetric": lambda j_max: spectra.spectrum_for(TopClass.ASYMMETRIC, (1, 2, 3), PLUS, j_max=j_max),
    "spectrum_for monopole": lambda j_max: spectra.spectrum_for(
        TopClass.SYMMETRIC, (2, 1), PLUS, j_max=j_max, monopole=(1, 1)
    ),
}
L_MAX_ENTRY_POINTS = {
    "degenerate": lambda l_max: degenerate_spectrum(1, l_max=l_max),
    # on S^2 the cutoff is floor(j_max)
    "spectrum_for degenerate": lambda l_max: spectra.spectrum_for(TopClass.DEGENERATE, (1,), PLUS, j_max=l_max + Fraction(1, 2)),
}
RANGE_CASES = {
    **{
        f"{entry}: {name} = 0": (lambda call=call, name=name: call({**VALID, name: 0}), f"{name} must be finite and positive, got 0")
        for entry, (names, call) in ENTRY_POINTS.items()
        for name in names
    },
    **{
        f"{entry}: j_max = {j_max}": (lambda call=call, j_max=j_max: call(j_max), message)
        for entry, call in J_MAX_ENTRY_POINTS.items()
        for j_max, message in (
            (-1, "j_max must be a nonnegative half-integer"),
            (Fraction(1, 3), "j_max must be a nonnegative half-integer"),
            (26, "j_max exceeds the hard cap 25"),
        )
    },
    **{
        f"{entry}: l_max = {l_max}": (lambda call=call, l_max=l_max: call(l_max), message)
        for entry, call in L_MAX_ENTRY_POINTS.items()
        for l_max, message in ((-1, "l_max must be a nonnegative integer"), (26, "l_max exceeds the hard cap 25"))
    },
    "monopole: q_center_norm = -1": (
        lambda: monopole_spectrum(2, 1, PLUS, 1, -1, j_max=1),
        "the center-of-charge norm must be nonnegative",
    ),
    "spectrum_for monopole: q_center_norm = -1": (
        lambda: spectra.spectrum_for(TopClass.SYMMETRIC, (2, 1), PLUS, j_max=1, monopole=(1, -1)),
        "the center-of-charge norm must be nonnegative",
    ),
}


@pytest.mark.parametrize("case", RANGE_CASES)
def test_a_range_check_raises_an_out_of_range_error(case):
    _assert_out_of_range(*RANGE_CASES[case])


@pytest.mark.parametrize("top", [TopClass.ASYMMETRIC, TopClass.DEGENERATE])
def test_a_monopole_on_a_top_without_its_closed_form_is_a_bundle_request_error(top):
    closed = (1, 2, 3) if top is TopClass.ASYMMETRIC else (1,)
    with pytest.raises(BundleRequestError) as info:
        spectra.spectrum_for(top, closed, PLUS, j_max=1, monopole=(1, 1))
    assert isinstance(info.value, ValueError) and isinstance(info.value, RotorSpecError)
    assert str(info.value) == f"the monopole closed form needs a spherical or symmetric top; this body is {top.value}"


@pytest.mark.filterwarnings("ignore:momenta nearly spherical", "ignore:two momenta nearly coincide")
def test_each_asymmetric_entry_point_checks_its_momenta_once(monkeypatch):
    # one check_positive and one check_j_max per spectrum, on the route
    # through _diagonalized, on the closed-form fallback of a nearly
    # spherical or symmetric triple and on symmetric_spectrum of equal
    # momenta; a bad j_max is still reported before a bad momentum
    # wherever it was
    calls = []
    real_positive, real_j_max = spectra.check_positive, spectra.check_j_max
    monkeypatch.setattr(spectra, "check_positive", lambda **values: calls.append(values) or real_positive(**values))
    monkeypatch.setattr(spectra, "check_j_max", lambda j_max: calls.append(j_max) or real_j_max(j_max))
    triple = {"i1": 1, "i2": 2, "i3": Fraction(7, 2), "hbar0": 1}
    j_max_first, momentum_first = "j_max must be a nonnegative half-integer", "i3 must be finite"
    runs = {
        # name: (run(j_max, i), its kind, its calls for run(2, 7/2), the first message of run(1/3, -1))
        "asymmetric": (
            lambda j_max, i: asymmetric_spectrum(1, 2, i, PLUS, j_max=j_max), "asymmetric", [triple, 2], momentum_first
        ),
        "diagonalized": (
            lambda j_max, i: diagonalized_spectrum(1, 2, i, PLUS, j_max=j_max), "diagonalized", [2, triple], j_max_first
        ),
        "spectrum_for": (
            lambda j_max, i: spectra.spectrum_for(TopClass.ASYMMETRIC, (1, 2, i), PLUS, j_max=j_max),
            "asymmetric",
            [2, triple],
            j_max_first,
        ),
        "nearly spherical": (
            lambda j_max, i: asymmetric_spectrum(i, i + Fraction(1, 10**14), i, PLUS, j_max=j_max),
            "spherical",
            [{"i1": Fraction(7, 2), "i2": Fraction(7, 2) + Fraction(1, 10**14), "i3": Fraction(7, 2), "hbar0": 1}, 2],
            "i1 must be finite",
        ),
        "nearly symmetric": (
            lambda j_max, i: asymmetric_spectrum(1, 1 + Fraction(1, 10**14), i, PLUS, j_max=j_max),
            "symmetric",
            [{**triple, "i2": 1 + Fraction(1, 10**14)}, 2],
            momentum_first,
        ),
        "symmetric, equal momenta": (
            lambda j_max, i: symmetric_spectrum(i, i, PLUS, j_max=j_max),
            "spherical",
            [2, {"i_pair": Fraction(7, 2), "i_axis": Fraction(7, 2), "hbar0": 1}],
            j_max_first,
        ),
    }
    for name, (run, kind, checked, first) in runs.items():
        calls.clear()
        assert run(2, Fraction(7, 2)).kind == kind, name
        assert calls == checked, name
        with pytest.raises(ValueError, match=f"^{first}"):
            run(Fraction(1, 3), -1)


def test_a_pair_mean_beyond_the_float_range_takes_the_symmetric_closed_form():
    # 1.5e308 + 1.5e308 overflows; the pair momentum of the checked triple
    # is the finite 1.5e308, so the fallback equals symmetric_spectrum
    assert classify_momenta((1.5e308, 1.0, 1.5e308)) == (TopClass.SYMMETRIC, (1.5e308, 1.0))
    with pytest.warns(UserWarning, match="two momenta nearly coincide"):
        spec = asymmetric_spectrum(1.5e308, 1.5e308, 1.0, PLUS, j_max=2)
    assert spec == symmetric_spectrum(1.5e308, 1.0, PLUS, j_max=2)


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


def test_float_k_with_a_rational_momentum_beyond_the_float_range_raises_overflow():
    # k * rho multiplies a float by a rational curvature that has no float
    huge = 10**400
    with pytest.warns(UserWarning, match="symmetric closed form"):
        with pytest.raises(HamiltonianOverflowError):
            asymmetric_spectrum(huge, 2, 3, BundleKind.PLUS, k=0.25, j_max=4)
    with pytest.raises(HamiltonianOverflowError):
        symmetric_spectrum(Fraction(5, 2), huge, BundleKind.PLUS, k=0.25, j_max=1)

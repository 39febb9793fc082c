"""Property tests for the spectral decisions: top classification, level
grouping, and the scaling, permutation, rotation and translation
invariants of the spectrum."""

import itertools
import math
import warnings
from fractions import Fraction
from numbers import Rational

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rotorspec import (
    DEFAULT_TOLERANCES,
    BundleKind,
    ParticleSystem,
    TopClass,
    admissible_structures,
    asymmetric_spectrum,
    canonicalize,
    inertia_tensor,
    principal_momenta,
    spectrum_for,
)
from rotorspec.inertia import classify_momenta
from rotorspec.polyalg import band_record, degree_band, eigenvalues
from rotorspec.spectra import _as_float, curvature_shift, group_energies

SETTINGS = settings(max_examples=25, deadline=None)

rationals = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))
# a small pool makes exact and near ties (within tol.rel) frequent
tie_prone = st.sampled_from([1, 2, 2.0 + 1e-12, Fraction(5, 2), 3.0, 3.0 - 4e-10, 7.25])
momenta = st.tuples(tie_prone, tie_prone, tie_prone) | st.tuples(rationals, rationals, rationals)
floats = st.floats(0.25, 8.0)
bundles = st.sampled_from([BundleKind.PLUS, BundleKind.MINUS])


def _spectrum(triple, bundle, j_max):
    # near ties route to a closed form with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return asymmetric_spectrum(*triple, bundle, j_max=j_max)


def _expanded_levels(spec):
    return sorted(float(ln.energy) for ln in spec.lines for _ in range(ln.multiplicity))


@SETTINGS
@given(momenta)
def test_classification_is_permutation_invariant(triple):
    top, closed_momenta = classify_momenta(triple)
    assert (closed_momenta is None) == (top is TopClass.ASYMMETRIC)
    for perm in itertools.permutations(triple):
        other_top, other_momenta = classify_momenta(perm)
        assert other_top is top
        if closed_momenta is not None:
            assert tuple(map(float, other_momenta)) == tuple(map(float, closed_momenta))


@SETTINGS
@given(momenta, bundles)
# a near-spherical triple whose first value is not its middle one
@example((3.0, 3.0, 3.0 - 4e-10), BundleKind.PLUS)
def test_levels_are_permutation_invariant(triple, bundle):
    want = _expanded_levels(_spectrum(triple, bundle, 2))
    for perm in itertools.permutations(triple):
        got = _expanded_levels(_spectrum(perm, bundle, 2))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


@SETTINGS
@given(momenta, bundles)
def test_multiplicities_per_degree_sum_to_square(triple, bundle):
    spec = _spectrum(triple, bundle, 2)
    degrees = {int(2 * ln.j) for ln in spec.lines}
    assert degrees == ({0, 2, 4} if bundle is BundleKind.PLUS else {1, 3})
    for d in degrees:
        assert sum(ln.multiplicity for ln in spec.lines_for_degree(d)) == (d + 1) ** 2


@SETTINGS
@given(st.tuples(rationals, rationals, rationals), rationals, bundles)
# the j = 1 level 355/2496 is exact although eigvalsh puts it 8 ulps off
@example((Fraction(1), Fraction(32), Fraction(39)), Fraction(1, 5), BundleKind.PLUS)
# routed to the symmetric closed form, which must stay exact
@example((Fraction(2), Fraction(1), Fraction(2)), Fraction(1, 3), BundleKind.MINUS)
def test_energies_scale_inversely_with_momenta(triple, lam, bundle):
    base = _spectrum(triple, bundle, 1)
    scaled = _spectrum(tuple(lam * i for i in triple), bundle, 1)
    assert all(isinstance(ln.energy, Fraction) for ln in base.lines + scaled.lines)
    assert [(ln.j, ln.energy * lam, ln.multiplicity) for ln in scaled.lines] == [
        (ln.j, ln.energy, ln.multiplicity) for ln in base.lines
    ]


def _lines_by_key(spec):
    return {(ln.j, ln.l, ln.multiplicity, ln.eigensections): ln.energy for ln in spec.lines}


@SETTINGS
@given(st.tuples(floats, floats, floats), st.sampled_from([1e-10, 1e5, 1e10]), bundles)
# at 1e10 every level of this triple is below 1e-9, where a grouping
# tolerance that is absolute below 1 merges them all
@example((1.0, 2.0, 3.5), 1e10, BundleKind.PLUS)
def test_float_energies_scale_inversely_with_momenta(triple, lam, bundle):
    base = _lines_by_key(_spectrum(triple, bundle, 3))
    scaled = _lines_by_key(_spectrum(tuple(lam * i for i in triple), bundle, 3))
    assert scaled.keys() == base.keys()
    for key, energy in scaled.items():
        assert abs(energy * lam - base[key]) <= 1e-12 * abs(base[key])


def _sort_then_group(pairs, eps_spec=DEFAULT_TOLERANCES.spec):
    """The grouping rule as it was before group_energies took its pairs in
    ascending order: a stable sort by float energy (_as_float), then one
    pass that converts the float level's first energy once per member."""
    pairs = sorted(pairs, key=lambda t: _as_float(t[0]))
    groups, exact, inexact = [], {}, None
    for energy, item in pairs:
        if type(energy) is not float and isinstance(energy, Rational):
            level = exact.get(energy)
            if level is None:
                level = exact[energy] = (energy, [])
                groups.append(level)
        else:
            ref = None if inexact is None else float(inexact[0])
            if ref is None or abs(float(energy) - ref) > eps_spec * abs(ref):
                inexact = (energy, [])
                groups.append(inexact)
            level = inexact
        level[1].append(item)
    return [(e, tuple(items)) for e, items in groups]


def _same_groups(got, want):
    """Equal groupings, energies compared by type and repr (so 0.0 and -0.0
    and a float and an equal Fraction differ)."""
    return [(type(e), repr(e), items) for e, items in got] == [(type(e), repr(e), items) for e, items in want]


# equal rationals, the floats of rationals, float clusters within and just
# beyond eps * |ref| of a base, signed zeros and negative energies
_energy_pool = st.sampled_from(
    [0, Fraction(0), 0.0, -0.0, Fraction(1, 3), float(Fraction(1, 3)), Fraction(-5, 2), -2.5, 3, 3.0, 1e-300, -1e300]
)
_clustered = st.builds(
    lambda base, steps, eps: base * (1 + steps * eps),
    st.sampled_from([1.0, -2.5, 1e5, 1e-5, float(Fraction(1, 3))]),
    st.integers(-3, 3),
    st.sampled_from([1e-9, 5e-10, 9.9e-10, 1.01e-9, 2e-9, 1e-6]),
)
_energies = _energy_pool | _clustered | st.floats(-10, 10) | st.fractions(-10, 10, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(_energies, max_size=40), st.sampled_from([1e-9, 1e-6, 0.1]))
@example([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 3e-9], 1e-9)
@example([-0.0, 0.0, Fraction(0), 0, -0.0], 1e-9)
def test_one_pass_grouping_is_the_sort_then_group_rule(energies, eps):
    # the pairs in ascending float order, as every caller gives them, are
    # grouped as the sort-then-group rule groups them in any order
    pairs = list(zip(energies, range(len(energies))))
    ascending = sorted(pairs, key=lambda t: float(t[0]))
    assert _same_groups(group_energies(ascending, eps), _sort_then_group(pairs, eps))


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(rationals, rationals, rationals) | st.tuples(floats, floats, floats),
    st.integers(0, 12),
    st.sampled_from([0, Fraction(1, 2), 0.25, Fraction(10**100), -3.5]),
    st.sampled_from([1e-9, 1e-6]),
)
@example((Fraction(2), Fraction(2), Fraction(1)), 6, 0, 1e-9)
@example((1, 2, Fraction(7, 2)), 4, Fraction(10**100), 1e-9)
def test_shifted_levels_of_a_degree_group_as_the_sort_then_group_rule(triple, d, k, eps):
    # the levels of eigenvalues() plus k rho, as _diagonalized groups them
    found = eigenvalues(d, *degree_band(d, band_record(*triple, 1)))
    shift = curvature_shift(k, TopClass.ASYMMETRIC, triple, 1)
    shifted = [(v + shift, idx) for idx, (v, _) in enumerate(found)]
    assert _same_groups(group_energies(shifted, eps), _sort_then_group(shifted, eps))


def _principal_momenta(masses, positions):
    """The canonical configuration and the principal momenta of the body,
    as the CLI takes them."""
    config = canonicalize(ParticleSystem(masses, [0.0] * len(masses), positions))
    return config, principal_momenta(inertia_tensor(config), config.degeneracy)


def _spectra(config, momenta, k):
    """spectrum_for on every admissible bundle of the body to j_max 3."""
    bundles = admissible_structures(config.degeneracy).admissible
    return [spectrum_for(momenta.top_class, momenta.closed, b, k, 1, 3) for b in bundles]


def _rotation(q):
    """The rotation matrix of the quaternion q (normalized here)."""
    norm = math.sqrt(sum(x * x for x in q))
    a, b, c, d = (x / norm for x in q)
    return (
        (a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)),
        (2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)),
        (2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d),
    )


# coordinates on a grid of 1/1000, so no body is far below unit size
coordinate = st.integers(-1000, 1000).map(lambda n: n / 1000)
point = st.tuples(coordinate, coordinate, coordinate)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.5, 2), point), min_size=3, max_size=5),
    st.tuples(coordinate, coordinate, coordinate, coordinate),
    st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
    st.sampled_from([0, Fraction(1, 2)]),
)
def test_spectra_are_unchanged_under_rotation_and_translation(particles, q, t, k):
    # a generic body, away from the class boundaries (momenta apart by
    # 1e-6 relative, the smallest above 1e-3 of the largest) and from
    # level pairs within 1e-8 of each other, rotated and translated: the
    # same (bundle, j, l, multiplicity) sequence, energies within 1e-12 of
    # each degree's largest level
    assume(sum(x * x for x in q) > 0.01)
    masses = [m for m, _ in particles]
    positions = [p for _, p in particles]
    assume(len(set(positions)) > 1)
    config, momenta = _principal_momenta(masses, positions)
    i1, i2, i3 = momenta.momenta
    assume(i1 > 1e-3 * i3 and i2 - i1 > 1e-6 * i3 and i3 - i2 > 1e-6 * i3)
    spectra = _spectra(config, momenta, k)
    for spec in spectra:
        for d in {int(2 * ln.j) for ln in spec.lines}:
            lines = spec.lines_for_degree(d)
            top = max(abs(float(ln.energy)) for ln in lines)
            assume(all(ln.multiplicity == (d + 1) * (1 + d % 2) for ln in lines))
            assume(all(float(b.energy) - float(a.energy) > 1e-8 * top for a, b in zip(lines, lines[1:])))
    r = _rotation(q)
    moved = [[sum(r[i][j] * p[j] for j in range(3)) + t[i] for i in range(3)] for p in positions]
    moved_spectra = _spectra(*_principal_momenta(masses, moved), k)
    assert len(moved_spectra) == len(spectra)
    for spec, other in zip(spectra, moved_spectra):
        key = lambda ln: (ln.bundle, ln.j, ln.l, ln.multiplicity)
        assert [key(ln) for ln in other.lines] == [key(ln) for ln in spec.lines]
        for d in {int(2 * ln.j) for ln in spec.lines}:
            lines, others = spec.lines_for_degree(d), other.lines_for_degree(d)
            top = max(abs(float(ln.energy)) for ln in lines)
            for a, b in zip(lines, others):
                assert abs(float(a.energy) - float(b.energy)) <= 1e-12 * top, (d, a, b)

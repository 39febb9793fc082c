"""Property tests for the spectral decisions: top classification, level
grouping and the scaling and permutation invariants of the spectrum."""

import itertools
import warnings
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotorspec import BundleKind, TopClass, asymmetric_spectrum
from rotorspec.inertia import classify_momenta

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

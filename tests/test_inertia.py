"""Inertia tensor, top classification and curvature closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rotorspec import (
    DEFAULT_TOLERANCES,
    BundleKind,
    InertiaTensor,
    ParticleSystem,
    Tolerances,
    TopClass,
    canonicalize,
    inertia_tensor,
    principal_momenta,
    scalar_curvature,
    scalar_curvature_oracle,
    symmetric_spectrum,
)
from rotorspec.inertia import (
    _asymmetric,
    _coincidences,
    _degenerate,
    _exact_or_float,
    _hbar,
    _spherical,
    _symmetric,
    _times_two_to,
    classify_momenta,
    curvature_asymmetric,
    curvature_degenerate,
    curvature_spherical,
    curvature_symmetric,
)

CUBE = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]


def _config(masses, positions):
    masses = np.asarray(masses, dtype=float)
    system = ParticleSystem(masses=masses, charges=np.zeros_like(masses), positions=positions)
    return canonicalize(system)


def test_dipole_inertia_tensor():
    a = 1.4
    config = _config([1, 1], [[a, 0, 0], [-a, 0, 0]])
    mat = inertia_tensor(config).matrix
    assert np.allclose(mat, np.diag([0.0, 2 * a**2, 2 * a**2]))
    pm = principal_momenta(inertia_tensor(config), config.degeneracy)
    assert pm.top_class is TopClass.DEGENERATE
    assert pm.closed[0] == pytest.approx(2 * a**2)


def test_cube_is_spherical():
    config = _config(np.ones(8), CUBE)
    tensor = inertia_tensor(config)
    assert np.allclose(tensor.matrix, 16.0 * np.eye(3))
    pm = principal_momenta(tensor, config.degeneracy)
    assert pm.top_class is TopClass.SPHERICAL


def test_trace_identity():
    rng = np.random.default_rng(0)
    config = _config([1, 2, 3, 4], rng.uniform(-2, 2, (4, 3)))
    tensor = inertia_tensor(config)
    expect = 2 * np.sum(config.masses * np.einsum("ij,ij->i", config.relatives, config.relatives))
    assert tensor.trace == pytest.approx(expect)
    vals = np.linalg.eigvalsh(tensor.matrix)
    assert np.all(vals >= -1e-12)


def test_water_like_triangle_is_asymmetric():
    config = _config([16, 1, 1], [[0, 0, 0], [0.96, 0, 0], [-0.24, 0.93, 0]])
    pm = principal_momenta(inertia_tensor(config), config.degeneracy)
    assert pm.top_class is TopClass.ASYMMETRIC
    i1, i2, i3 = pm.momenta
    assert i1 < i2 < i3


def test_classify_top_rules():
    assert classify_momenta((16, 16, 16))[0] is TopClass.SPHERICAL
    assert classify_momenta((2, 2, 5))[0] is TopClass.SYMMETRIC
    assert classify_momenta((1, 2, 3))[0] is TopClass.ASYMMETRIC
    from rotorspec import DegeneracyClass

    tensor = InertiaTensor(((0, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert principal_momenta(tensor, DegeneracyClass.DEGENERATE).top_class is TopClass.DEGENERATE


def test_symmetric_pair_and_axis_assignment():
    # oblate square in the xy plane: momenta (2, 2, 4)
    config = _config(np.ones(4), [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
    pm = principal_momenta(inertia_tensor(config), config.degeneracy)
    assert pm.top_class is TopClass.SYMMETRIC
    assert pm.closed[0] == pytest.approx(2.0)
    assert pm.closed[1] == pytest.approx(4.0)


def test_eigendecomposition_reproduces_tensor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        config = _config(rng.uniform(0.5, 3, 5), rng.uniform(-2, 2, (5, 3)))
        tensor = inertia_tensor(config)
        pm = principal_momenta(tensor, config.degeneracy)
        axes = np.asarray(pm.axes)
        rebuilt = axes @ np.diag(pm.momenta) @ axes.T
        scale = max(np.linalg.norm(tensor.matrix, 2), 1e-300)
        assert np.linalg.norm(rebuilt - tensor.matrix, 2) <= 1e-9 * scale
        assert np.linalg.det(pm.axes) == pytest.approx(1.0)


def test_parallel_axis_sanity():
    rng = np.random.default_rng(1)
    positions = rng.uniform(-2, 2, (5, 3))
    masses = rng.uniform(0.5, 3, 5)
    base = inertia_tensor(_config(masses, positions)).matrix
    shifted = inertia_tensor(_config(masses, positions + np.array([10.0, -4.0, 7.0]))).matrix
    assert np.allclose(base, shifted, atol=1e-9)


def test_rotation_conjugates_tensor_and_preserves_momenta():
    rng = np.random.default_rng(2)
    positions = rng.uniform(-2, 2, (5, 3))
    masses = rng.uniform(0.5, 3, 5)
    theta, axis = 0.8, np.array([1.0, 2.0, 2.0]) / 3.0
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)
    base = inertia_tensor(_config(masses, positions))
    moved = inertia_tensor(_config(masses, positions @ rot.T))
    assert np.allclose(moved.matrix, rot @ base.matrix @ rot.T, atol=1e-10)
    pm_base = principal_momenta(base)
    pm_moved = principal_momenta(moved)
    assert np.allclose(pm_base.momenta, pm_moved.momenta, atol=1e-10)


def test_degenerate_transverse_plane_is_isotropic():
    # collinear body along an arbitrary axis: M restricted to the transverse
    # plane is I times the identity (proportionality of the two metrics)
    axis = np.array([1.0, 2.0, -1.0])
    axis /= np.linalg.norm(axis)
    offsets = np.array([-1.5, 0.4, 2.0])
    masses = np.array([1.0, 2.0, 0.7])
    config = _config(masses, np.outer(offsets, axis))
    mat = inertia_tensor(config).matrix
    pm = principal_momenta(inertia_tensor(config), config.degeneracy)
    (i_trans,) = pm.closed
    proj = np.eye(3) - np.outer(axis, axis)
    assert np.allclose(proj @ mat @ proj, i_trans * proj, atol=1e-10)
    expect = np.sum(config.masses * np.einsum("ij,ij->i", config.relatives, config.relatives))
    assert i_trans == pytest.approx(expect)


# --- scalar curvature ---------------------------------------------------------


def test_curvature_closed_form_examples():
    assert curvature_spherical(2, 1) == Fraction(3, 4)
    assert curvature_symmetric(2, 1, 1) == Fraction(7, 8)
    assert curvature_asymmetric(1, 2, 3, 1) == Fraction(2, 3)
    assert curvature_degenerate(2, 1) == 1


def test_asymmetric_reduces_to_spherical():
    for i_val in (Fraction(1), Fraction(5, 3), Fraction(12)):
        assert curvature_asymmetric(i_val, i_val, i_val) == curvature_spherical(i_val)


def test_scalar_curvature_dispatch():
    assert scalar_curvature(TopClass.SPHERICAL, (2.0,)) == pytest.approx(0.75)
    assert scalar_curvature(TopClass.SYMMETRIC, (2.0, 1.0)) == pytest.approx(0.875)
    assert scalar_curvature(TopClass.ASYMMETRIC, (1.0, 2.0, 3.0)) == pytest.approx(2 / 3)
    assert scalar_curvature(TopClass.DEGENERATE, (2.0,)) == pytest.approx(1.0)


def test_oracle_spherical_and_asymmetric_values():
    assert scalar_curvature_oracle(2, 2, 2) == pytest.approx(0.75, rel=1e-12)
    assert scalar_curvature_oracle(1, 2, 3) == pytest.approx(2 / 3, rel=1e-12)


def test_oracle_scaling_homogeneity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        i1, i2, i3 = rng.uniform(0.2, 20, 3)
        c = rng.uniform(0.1, 10)
        assert scalar_curvature_oracle(c * i1, c * i2, c * i3) == pytest.approx(
            scalar_curvature_oracle(i1, i2, i3) / c, rel=1e-10
        )


def test_oracle_matches_closed_forms_randomized():
    rng = np.random.default_rng(6)
    for _ in range(200):
        i1, i2, i3 = sorted(rng.uniform(0.1, 40, 3))
        lhs = curvature_asymmetric(i1, i2, i3)
        assert abs(lhs - scalar_curvature_oracle(i1, i2, i3)) <= 1e-10 * max(1, abs(lhs))
        pair, ax = rng.uniform(0.1, 40, 2)
        lhs = curvature_symmetric(pair, ax)
        assert abs(lhs - scalar_curvature_oracle(ax, pair, pair)) <= 1e-10 * max(1, abs(lhs))


@pytest.mark.parametrize("hbar0", [1, 2, 3, 7, 10**20, 3**40, 2**60 + 1])
def test_int_hbar_gives_the_fraction_hbar_curvature(hbar0):
    # an int hbar0 stays an int; on float momenta from 2^-300 to 2^300 each
    # closed form gives the float that Fraction(hbar0) gives, bit for bit,
    # and on rational momenta the same Fraction
    rng = np.random.default_rng(28)
    for _ in range(300):
        e = int(rng.integers(-300, 301))
        floats = [math.ldexp(float(x), e + int(s)) for x, s in zip(rng.uniform(0.5, 2, 3), rng.integers(-3, 4, 3))]
        rationals = [Fraction(int(n), int(d)) for n, d in rng.integers(1, 10**6, (3, 2))]
        for momenta in (floats, rationals):
            for form, n in ((curvature_asymmetric, 3), (curvature_symmetric, 2), (curvature_spherical, 1), (curvature_degenerate, 1)):
                assert repr(form(*momenta[:n], hbar0)) == repr(form(*momenta[:n], Fraction(hbar0)))


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1e154, 1e-154])
@pytest.mark.parametrize("hbar0", [1.0, 0.5])
def test_float_curvature_at_extreme_momenta(scale, hbar0):
    # the squares and the product of momenta near 1e300 overflow and those
    # near 1e-300 underflow; the curvature itself is about 5.5e-301 and
    # 5.5e299, and both forms must give it
    want = curvature_asymmetric(1.0, 2.0, 3.5, hbar0) / scale
    momenta = (scale, 2 * scale, 3.5 * scale)
    assert curvature_asymmetric(*momenta, hbar0) == pytest.approx(want, rel=1e-14)
    assert scalar_curvature(TopClass.ASYMMETRIC, momenta, hbar0) == pytest.approx(want, rel=1e-14)
    assert scalar_curvature_oracle(*momenta, hbar0) == pytest.approx(want, rel=1e-12)


def _unscaled_forms(i1, i2, i3):
    """The closed form and the oracle as written, with no scaling."""
    closed = 1 / i1 + 1 / i2 + 1 / i3 - (i1 * i1 + i2 * i2 + i3 * i3) / (2 * i1 * i2 * i3)
    c = [math.sqrt(i1 / (i2 * i3)), math.sqrt(i2 / (i3 * i1)), math.sqrt(i3 / (i1 * i2))]
    half = 0.5 * sum(c)
    mu = [half - x for x in c]
    return closed, 2.0 * (mu[0] * mu[1] + mu[1] * mu[2] + mu[2] * mu[0])


def test_float_curvature_scaling_is_bit_exact():
    # in the float range both forms round as the unscaled formulas do;
    # scaling every momentum by a power of two (of four for the oracle,
    # whose square roots halve it) scales the curvature by its inverse bit
    # for bit, at any scale; exact momenta stay exact
    rng = np.random.default_rng(25)
    for _ in range(200):
        i1, i2, i3 = rng.uniform(0.1, 40, 3)
        assert (curvature_asymmetric(i1, i2, i3), scalar_curvature_oracle(i1, i2, i3)) == _unscaled_forms(i1, i2, i3)
        for e in (-1000, -4, 5, 6, 1000):
            s = 2.0**e
            assert curvature_asymmetric(s * i1, s * i2, s * i3) == curvature_asymmetric(i1, i2, i3) / s
            if e % 2 == 0:
                assert scalar_curvature_oracle(s * i1, s * i2, s * i3) * s == scalar_curvature_oracle(i1, i2, i3)
    assert curvature_asymmetric(Fraction(10**400), 2 * Fraction(10**400), 3) == curvature_asymmetric(1, 2, Fraction(3, 10**400)) / 10**400


@pytest.mark.parametrize("e", [665, -665])
def test_float_symmetric_curvature_at_extreme_momenta(e):
    # momenta near 1e200 (2^665) square beyond the float range and near
    # 1e-200 below it; the curvature scales as 1/I, so at momenta times 2^e
    # it is the unit-scale value times 2^-e, bit for bit, for the same
    # random pairs as at unit scale, and zero axis momentum included
    rng = np.random.default_rng(26)
    for pair, axis in [*rng.uniform(0.1, 40, (100, 2)).tolist(), (2.0, 4.0), (1.5, 0.0)]:
        want = math.ldexp(curvature_symmetric(pair, axis), -e)
        assert curvature_symmetric(math.ldexp(pair, e), math.ldexp(axis, e)) == want
    assert curvature_symmetric(2e200, 4e200) == pytest.approx(5e-201, rel=1e-15)
    assert curvature_symmetric(1e-200, 5e-201) == pytest.approx(1.75e200, rel=1e-15)
    assert curvature_symmetric(Fraction(10**400), 3) == curvature_symmetric(1, Fraction(3, 10**400)) / 10**400


def test_a_rational_momentum_beyond_the_float_range_keeps_a_finite_curvature():
    # a float momentum beside a rational beyond the float range: the
    # curvature is the exact one (floats read as dyadic rationals) rounded
    # once, and one beyond the float range still raises OverflowError
    want = float(curvature_asymmetric(1, 10**400, 2 * 10**400))
    assert want == pytest.approx(-0.25)
    assert curvature_asymmetric(1.0, 10**400, 2 * 10**400) == want
    assert curvature_asymmetric(0.1, 10**400, 10**400, 0.5) == float(
        curvature_asymmetric(Fraction(0.1), 10**400, 10**400, Fraction(0.5))
    )
    assert curvature_asymmetric(1.0, 10**400, 10**400) == 0.0  # about 2e-400
    assert curvature_symmetric(10**400, 1.0) == 0.0
    with pytest.raises(OverflowError):
        curvature_symmetric(1.0, 10**400)  # about -5e399
    # through k rho: rho rounds to 0.0, so k = 1 gives the k = 0 levels
    spectrum = symmetric_spectrum(10**400, 1.0, BundleKind.PLUS, k=1, j_max=1)
    assert [ln.energy for ln in spectrum.lines] == [0.0, 0.0, 0.5]
    assert spectrum.lines == symmetric_spectrum(10**400, 1.0, BundleKind.PLUS, j_max=1).lines


def _scaled_only(formula, momenta, hbar0):
    """The curvature evaluator before it read a rational beyond the float
    range exactly: float momenta scaled by 2^-e, e the binary exponent of
    the largest, which raises OverflowError when that is such a rational."""
    momenta, hbar0 = [*map(_exact_or_float, momenta)], _hbar(hbar0)
    if float not in map(type, momenta):
        return formula(*momenta, hbar0)
    e = -math.frexp(max(momenta))[1]
    return _times_two_to(formula(*[_times_two_to(i, e) for i in momenta], hbar0), e)


def _overflows(x):
    try:
        float(x)
    except OverflowError:
        return True
    return False


def _unscaled(formula, momenta, hbar0):
    """A one-line curvature form as it was evaluated before _rounded_once."""
    return formula(*map(_exact_or_float, momenta), _hbar(hbar0))


def test_the_curvature_keeps_its_bits_wherever_scaling_alone_gave_one():
    # on mixed float, int and Fraction momenta from 1e-420 to 1e420, each
    # form and scalar_curvature give the bits the evaluator without the
    # exact fallback gives wherever that returns a finite value; where it
    # raises or gives inf or nan, they give the exact curvature rounded
    # once, and raise OverflowError exactly where that leaves the float range
    rng = np.random.default_rng(34)
    values = []
    for _ in range(150):
        values.append(math.ldexp(float(rng.uniform(0.5, 1)), int(rng.integers(-1070, 1025))))
        values.append(int(rng.integers(1, 10**6)) * Fraction(2) ** int(rng.integers(-1400, 1400)))
        values.append(int(rng.integers(1, 100)) * 10 ** int(rng.integers(0, 400)))
    forms = (
        (TopClass.ASYMMETRIC, curvature_asymmetric, _asymmetric, 3, _scaled_only),
        (TopClass.SYMMETRIC, curvature_symmetric, _symmetric, 2, _scaled_only),
        (TopClass.SPHERICAL, curvature_spherical, _spherical, 1, _unscaled),
        (TopClass.DEGENERATE, curvature_degenerate, _degenerate, 1, _unscaled),
    )
    returned = rounded = overflowed = 0
    for trial in range(3000):
        picks = [values[int(i)] for i in rng.integers(len(values), size=3)]
        hbar0 = [1, 0.5, Fraction(2, 3), 10**300][trial % 4]
        for top, form, formula, n, reference in forms:
            momenta = picks[:n]
            try:
                want = reference(formula, momenta, hbar0)
                finite = type(want) is not float or math.isfinite(want)
            except (OverflowError, ZeroDivisionError):
                finite = False
            for call in (lambda: form(*momenta, hbar0), lambda: scalar_curvature(top, momenta, hbar0)):
                if finite:
                    assert repr(call()) == repr(want), (form, picks, hbar0)
                    returned += 1
                    continue
                exact = formula(*map(Fraction, momenta), Fraction(hbar0))
                if _overflows(exact):
                    with pytest.raises(OverflowError):
                        call()
                    overflowed += 1
                else:
                    assert repr(call()) == repr(float(exact)), (form, picks, hbar0)
                    rounded += 1
    assert returned > 10000 and rounded > 1000 and overflowed > 1000, (returned, rounded, overflowed)


def test_scalar_curvature_rounds_once_where_a_float_meets_a_rational_below_the_float_range():
    # the float form divides by the rational read as 0.0; rho is formed
    # exactly and rounded once, or raises OverflowError beyond the float range
    tiny = Fraction(1, 10**400)
    assert scalar_curvature(TopClass.SPHERICAL, (tiny,), 1e-300) == 1.5000000000000001e100
    assert scalar_curvature(TopClass.DEGENERATE, (tiny,), 1e-300) == 2e100
    assert scalar_curvature(TopClass.ASYMMETRIC, (tiny, 2, 3), 1e-300) == -8.333333333333333e98
    with pytest.raises(OverflowError):
        scalar_curvature(TopClass.SYMMETRIC, (Fraction(1, 10**300), 7), 0.5)


def test_oracle_rejects_nonpositive():
    with pytest.raises(ValueError):
        scalar_curvature_oracle(0.0, 1.0, 1.0)


def test_coincidence_rule_compares_floats_where_they_exist():
    # at this threshold the exact values coincide but their floats do not;
    # the floats decide, as they always have
    triple = (1, Fraction(1000000001, 10**9), 1)
    assert _coincidences(triple, 1e-9, Fraction)[1:] == (True, True)
    assert _coincidences(triple, 1e-9, float)[1:] == (True, False)
    assert classify_momenta(triple) == (TopClass.SYMMETRIC, (1, Fraction(1000000001, 10**9)))


near = st.floats(1.0, 2.0) | st.sampled_from([1.0, 1.0 + 1e-10, 1.0 + 1e-9, 1.0 + 2e-9, 1.001])


@settings(max_examples=300, deadline=None)
@given(st.tuples(near, near, near), st.sampled_from([1e-9, 1e-6, 1e-3, 0.1, 0.4]), st.integers(-1022, 1024))
@example((1.0, 2.0, 3.0), 0.1, -1005)
@example((1.0, 1.005, 1.01), 1e-3, -1010)
@example((1.0, 1.0 + 1e-10, 1.0 + 2e-9), 1e-9, -960)
def test_top_class_is_free_of_the_unit(triple, rel, top):
    # scaling every momentum by 2^e, with the largest scaled to the binary
    # exponent top, keeps the class and scales the closed-form momenta,
    # wherever the momenta and the gap rel * I3 stay normal floats: the
    # coincidence gap is relative with no absolute floor
    e = top - math.frexp(max(triple))[1]
    scaled = tuple(math.ldexp(x, e) for x in triple)
    assume(max(scaled) < math.inf and min(scaled) >= 2.0**-1022 and rel * max(scaled) >= 2.0**-1022)
    tol = Tolerances(rel=rel)
    top_class, closed = classify_momenta(triple, tol)
    assert classify_momenta(scaled, tol) == (top_class, closed and tuple(math.ldexp(x, e) for x in closed))


def test_subnormal_momenta_are_classified_as_at_unit_scale():
    for triple in ((1e-310, 2e-310, 3e-310), (1e-307, 1.005e-307, 1.01e-307)):
        assert classify_momenta(triple)[0] is TopClass.ASYMMETRIC
        assert classify_momenta(tuple(x * 1e300 for x in triple))[0] is TopClass.ASYMMETRIC


def _rotation(seed):
    q = np.random.default_rng(seed).normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


@pytest.mark.parametrize("ratio", [5e-10, 2e-9])
@pytest.mark.parametrize("small", [1, 2], ids=["sigma2", "sigma3"])
@pytest.mark.parametrize("seed", range(4))
def test_rank_at_the_threshold_is_the_svd_rank(ratio, small, seed):
    # relatives with singular values (1, 0.7, 0.4) and the smallest one or
    # two scaled to ratio * sigma_1, in a generic frame: the rank is the
    # one np.linalg.svd gives, and the one intended (tol.rel = 1e-9 lies
    # between the two ratios); sqrt of the eigenvalues of the Gram matrix
    # is accurate only to about sqrt(eps) sigma_1 and misses it
    rng = np.random.default_rng(100 + seed)
    n = 7
    basis, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, 3))]))
    sigma = np.array([1.0, 0.7, 0.4])
    sigma[small:] = ratio * np.array([1.0, 0.6])[: 3 - small]
    positions = basis[:, 1:] @ np.diag(sigma) @ _rotation(seed).T + [2.0, -1.0, 0.5]
    config = _config(np.ones(n), positions)
    sv = np.linalg.svd(np.asarray(config.relatives), compute_uv=False)
    svd_rank = int(np.sum(sv > DEFAULT_TOLERANCES.rel * sv[0]))
    assert config.characteristic == svd_rank == (3 if ratio > 1e-9 else small)


@pytest.mark.parametrize("gap", [5e-10, 2e-9])
@pytest.mark.parametrize("pair", ["lower", "upper", "both"])
@pytest.mark.parametrize("seed", range(4))
def test_top_class_at_the_threshold_is_the_eigh_class(gap, pair, seed):
    # six particles at +-a_k on rotated axes with momenta (I1, I2, I3),
    # two or three of them gap * I3 apart: the top class is the one of
    # np.linalg.eigh's eigenvalues, and the one intended (tol.rel = 1e-9
    # lies between the two gaps)
    i3 = 3.0
    i1, i2 = {"lower": (2.0 * (1 - gap), 2.0), "upper": (1.0, i3 * (1 - gap)), "both": (i3 * (1 - 2 * gap), i3 * (1 - gap))}[pair]
    momenta = np.array([i1, i2, i3])
    half_squares = (momenta.sum() / 2 - momenta) / 2  # a_k^2 for unit masses
    axes = _rotation(seed) * np.sqrt(half_squares)
    positions = np.concatenate([axes.T, -axes.T])
    config = _config(np.ones(6), positions)
    tensor = inertia_tensor(config)
    top = principal_momenta(tensor, config.degeneracy).top_class
    assert top is classify_momenta(tuple(np.linalg.eigh(np.asarray(tensor.matrix))[0]))[0]
    if gap > 1e-9:
        assert top is TopClass.ASYMMETRIC
    else:
        assert top is (TopClass.SPHERICAL if pair == "both" else TopClass.SYMMETRIC)

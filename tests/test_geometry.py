"""Center-of-mass canonicalization, splitting maps and angular velocity."""

import math

import numpy as np
import pytest

from rotorspec import (
    AllCoincidentError,
    DegeneracyClass,
    NonPositiveMassError,
    NotRigidVelocityError,
    ParticleSystem,
    Tolerances,
    angular_velocity,
    canonicalize,
    recombine,
    split_covector,
    split_velocity,
    velocities_from_angular,
)
from rotorspec.classical_em import weighted_inner
from rotorspec.errors import OutOfRangeError

TETRAHEDRON = [
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
]


def _system(masses, positions, charges=None):
    masses = np.asarray(masses, dtype=float)
    if charges is None:
        charges = np.zeros_like(masses)
    return ParticleSystem(masses=masses, charges=charges, positions=positions)


def test_canonicalize_symmetric_pair():
    a = 1.7
    config = canonicalize(_system([1, 1], [[a, 0, 0], [-a, 0, 0]]))
    assert np.allclose(config.center, 0.0)
    assert np.allclose(config.relatives, [[a, 0, 0], [-a, 0, 0]])
    assert config.characteristic == 1
    assert config.degeneracy is DegeneracyClass.DEGENERATE


def test_canonicalize_weighted_mean():
    config = canonicalize(_system([1, 3], [[0, 0, 0], [4, 0, 0]]))
    assert np.allclose(config.center, [3, 0, 0])
    assert np.allclose(config.relatives, [[-3, 0, 0], [1, 0, 0]])
    # the defining constraint
    assert np.allclose(np.asarray(config.weights) @ np.asarray(config.relatives), 0.0, atol=1e-12)


def test_canonicalize_tetrahedron_full_rank():
    config = canonicalize(_system(np.ones(4), TETRAHEDRON))
    assert config.characteristic == 3
    assert config.degeneracy is DegeneracyClass.STRONGLY_NONDEGENERATE


def test_distances_match_pairwise_norms():
    config = canonicalize(_system([1, 2, 4], [[0, 0, 0], [1, 0, 0], [0, 2, 0]]))
    relatives, distances = np.asarray(config.relatives), np.asarray(config.distances)
    for i in range(3):
        for j in range(3):
            expect = np.linalg.norm(relatives[i] - relatives[j])
            assert distances[i, j] == pytest.approx(expect)
            assert distances[i, j] == distances[j, i]


def test_all_coincident_raises():
    with pytest.raises(AllCoincidentError):
        canonicalize(_system([1, 2], [[5, 5, 5], [5, 5, 5]]))


def test_all_coincident_is_decided_without_a_length_scale():
    # one point far from the origin is no body, however the centering
    # rounds; a triangle of any small size is planar
    far = [1e6 / 3, 1e6 / 7, 1e6 / 11]
    for masses in ([1, 3], [1, 2, 3]):
        with pytest.raises(AllCoincidentError):
            canonicalize(_system(masses, [far] * len(masses)))
    triangle = [[0, 0, 0], [1.1, 0, 0], [0.3, 1.7, 0]]
    for scale in (1e-13, 1e-150, 2.0**-500):
        config = canonicalize(_system([1, 2, 3], [[scale * x for x in p] for p in triangle]))
        assert config.degeneracy is DegeneracyClass.WEAKLY_NONDEGENERATE


def test_relatives_beyond_the_float_range_raise_out_of_range():
    # three distinct particles (tests/data/far_apart.json): the center sits
    # near the heavy one, so the relative x of the first overflows; the
    # body is refused as out of range, not as coincident
    system = _system([1, 1, 1e10], [[1.7e308, 0, 0], [0, 1, 0], [-1.7e308, 0, 0]])
    with pytest.raises(OutOfRangeError, match="^particles: a relative position is not a finite float"):
        canonicalize(system)


def test_a_relative_tolerance_of_1_or_more_raises_out_of_range():
    # no singular value exceeds tol.rel * sigma_max when tol.rel >= 1 (or
    # NaN), so the rank would be 0 for a body that is not one point
    system = _system([1, 2, 3], [[0, 0, 0], [1.1, 0, 0], [0.3, 1.7, 0]])
    for rel in (1.0, 2.0, math.inf, math.nan):
        with pytest.raises(OutOfRangeError, match="^tolerances.rel must be below 1, got "):
            canonicalize(system, Tolerances(rel=rel))
    config = canonicalize(system, Tolerances(rel=math.nextafter(1.0, 0.0)))
    assert config.degeneracy is DegeneracyClass.DEGENERATE


def test_nonpositive_mass_raises():
    with pytest.raises(NonPositiveMassError):
        _system([1, 0], [[0, 0, 0], [1, 0, 0]])
    # _replace builds its copy through the same checks
    with pytest.raises(NonPositiveMassError, match="^all masses must be strictly positive$"):
        _system([1, 2], [[0, 0, 0], [1, 0, 0]])._replace(masses=(1, 0))


def test_classify_three_particles():
    collinear = canonicalize(_system([1, 1, 1], [[0, 0, 0], [1, 0, 0], [2, 0, 0]]))
    assert collinear.degeneracy is DegeneracyClass.DEGENERATE
    planar = canonicalize(_system([1, 1, 1], [[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    assert planar.degeneracy is DegeneracyClass.WEAKLY_NONDEGENERATE


def test_split_velocity_uniform_and_antisymmetric():
    config = canonicalize(_system([1, 1], [[1, 0, 0], [-1, 0, 0]]))
    v = np.array([0.3, -1.2, 0.8])
    out = split_velocity(config, [v, v])
    assert np.allclose(out.center, v)
    assert np.allclose(out.relative, 0.0)
    u = np.array([0.0, 2.0, -1.0])
    out = split_velocity(config, [u, -u])
    assert np.allclose(out.center, 0.0)
    assert np.allclose(out.relative, [u, -u])


def test_split_velocity_weighted_example():
    config = canonicalize(_system([1, 3], [[0, 0, 0], [4, 0, 0]]))
    out = split_velocity(config, [[4, 0, 0], [0, 0, 0]])
    assert np.allclose(out.center, [1, 0, 0])
    assert np.allclose(out.relative, [[3, 0, 0], [-1, 0, 0]])
    # orthogonality of the two parts under the weighted metric
    cen_list = np.tile(out.center, (2, 1))
    assert abs(weighted_inner(config, cen_list, out.relative)) < 1e-12


def test_split_covector_examples():
    config = canonicalize(_system([1, 1], [[1, 0, 0], [-1, 0, 0]]))
    out = split_covector(config, np.zeros((2, 3)))
    assert np.allclose(out.center, 0.0) and np.allclose(out.relative, 0.0)
    beta = np.array([2.0, -1.0, 0.5])
    out = split_covector(config, [beta, [0, 0, 0]])
    assert np.allclose(out.center, beta)
    assert np.allclose(out.relative, [beta / 2, -beta / 2])
    # diagonal covector alpha_i = mu_i beta
    config2 = canonicalize(_system([1, 3], [[0, 0, 0], [4, 0, 0]]))
    alphas = np.outer(config2.weights, beta)
    out = split_covector(config2, alphas)
    assert np.allclose(out.center, beta)
    assert np.allclose(out.relative, 0.0, atol=1e-15)
    assert np.allclose(np.sum(out.relative, axis=0), 0.0, atol=1e-15)


def test_recombination_is_identity():
    rng = np.random.default_rng(3)
    config = canonicalize(_system([1, 2, 3, 4], rng.uniform(-1, 1, (4, 3))))
    v = rng.uniform(-1, 1, (4, 3))
    assert np.allclose(recombine(split_velocity(config, v)), v, atol=1e-14)


def test_angular_velocity_dipole_plane_rotation():
    a, rate = 1.3, 0.7
    config = canonicalize(_system([1, 1], [[a, 0, 0], [-a, 0, 0]]))
    v = [[0, a * rate, 0], [0, -a * rate, 0]]
    omega = angular_velocity(config, v)
    assert np.allclose(omega, [0, 0, rate], atol=1e-12)


def test_angular_velocity_zero():
    config = canonicalize(_system([1, 1], [[1, 0, 0], [-1, 0, 0]]))
    assert np.allclose(angular_velocity(config, np.zeros((2, 3))), 0.0)


def test_angular_velocity_tetrahedron_round_trip():
    config = canonicalize(_system(np.ones(4), TETRAHEDRON))
    rate = 2.25
    v = velocities_from_angular(config, [0, 0, rate])
    assert np.allclose(angular_velocity(config, v), [0, 0, rate], atol=1e-10)
    rng = np.random.default_rng(8)
    for _ in range(20):
        omega = rng.uniform(-2, 2, 3)
        v = velocities_from_angular(config, omega)
        assert np.allclose(angular_velocity(config, v), omega, atol=1e-10)


def test_angular_velocity_of_a_thin_body():
    # a needle of length 10 whose third particle sits 1e-6 off its axis,
    # turned off the coordinate axes: omega is as accurate as a
    # least-squares solve of the stacked system (normal equations formed in
    # the coordinate frame lose the axial component to cancellation)
    rot = np.array([[-20, 4, 22], [20, -10, 20], [10, 28, 4]]) / 30  # the quaternion (1, 2, 3, 4)
    for points in ([[0, 0, 0], [10, 0, 0], [5, 1e-6, 0]], np.array([[0, 0, 0], [10, 0, 0], [5, 1e-6, 0], [3, 0, 0]]) @ rot.T):
        config = canonicalize(_system(np.ones(len(points)), points))
        assert config.degeneracy is DegeneracyClass.WEAKLY_NONDEGENERATE
        rng = np.random.default_rng(10)
        for _ in range(20):
            omega = rng.uniform(-1, 1, 3)
            assert np.allclose(angular_velocity(config, velocities_from_angular(config, omega)), omega, rtol=0, atol=1e-8)


def test_angular_velocity_degenerate_axis_orthogonal():
    config = canonicalize(_system([1, 1], [[1, 0, 0], [-1, 0, 0]]))
    omega = np.array([0.9, -0.4, 0.6])
    v = velocities_from_angular(config, omega)
    got = angular_velocity(config, v)
    assert np.allclose(got, [0.0, -0.4, 0.6], atol=1e-12)


def test_angular_velocity_rejects_non_rigid():
    config = canonicalize(_system(np.ones(4), TETRAHEDRON))
    v = np.array(velocities_from_angular(config, [1.0, 0, 0]))
    v[0] += [0.5, 0.5, 0.5]  # break rigidity
    with pytest.raises(NotRigidVelocityError):
        angular_velocity(config, v)


@pytest.mark.parametrize("scale", [1e-14, 1e-300, 1e300])
def test_angular_velocity_verdict_is_free_of_the_velocity_scale(scale):
    # the residual is compared with |v| alone: a non-rigid velocity is
    # rejected however small, and a rigid one still round-trips
    config = canonicalize(_system([1, 2, 3], [[0, 0, 0], [1.1, 0, 0], [0.3, 1.7, 0]]))
    with pytest.raises(NotRigidVelocityError):
        angular_velocity(config, [[0, 0, 0], [0, 0, 0], [0, 0, scale]])
    omega = [0.3 * scale, -0.2 * scale, scale]
    assert np.allclose(angular_velocity(config, velocities_from_angular(config, omega)), omega, rtol=1e-12, atol=0)


def test_classification_rotation_invariant():
    rng = np.random.default_rng(5)
    positions = [[0, 0, 0], [1.3, 0, 0], [0.4, 1.9, 0]]
    base = canonicalize(_system([1, 2, 3], positions))
    theta = 1.234
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0],
            [np.sin(theta), np.cos(theta), 0],
            [0, 0, 1],
        ]
    )
    for _ in range(5):
        shift = rng.uniform(-4, 4, 3)
        moved = canonicalize(_system([1, 2, 3], np.asarray(positions) @ rot.T + shift))
        assert moved.degeneracy is base.degeneracy
        assert moved.characteristic == base.characteristic

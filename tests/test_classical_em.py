"""Electromagnetic field splitting on the rigid configuration space."""

import numpy as np
import pytest

from rotorspec import (
    ParticleSystem,
    PatternField,
    canonicalize,
    decoupling_check,
    split_field,
    split_potential,
    unsplit_field,
)
from rotorspec.classical_em import _cross


def _dipole(m1=1.0, m2=3.0, q1=2.0, a=1.25):
    # center of mass at the origin by construction
    positions = [[a, 0, 0], [-m1 * a / m2, 0, 0]]
    system = ParticleSystem(masses=[m1, m2], charges=[q1, -q1], positions=positions)
    return system, canonicalize(system)


def test_zero_charges_give_zero_components():
    system = ParticleSystem(
        masses=[1, 2, 3],
        charges=[0, 0, 0],
        positions=[[0, 0, 0], [1, 0, 0], [0, 1, 0]],
    )
    config = canonicalize(system)
    fld = PatternField.uniform([1, 2, 3], [4, 5, 6])
    parts = split_field(system, config, fld, ([1, 0, 0], [0, 1, 0]), ([0, 0, 1], [1, 1, 0]), 0.5, -0.5)
    assert parts.cen == parts.rot == parts.mixed == 0.0


def test_dipole_center_component_vanishes():
    system, config = _dipole()
    fld = PatternField.uniform([0.3, -0.1, 0.2], [0.4, -0.2, 0.9])
    parts = split_field(
        system, config, fld, ([1, -2, 0.5], [0.3, 0.8, -0.5]), ([0.2, 0.3, -0.7], [-0.6, 0.1, 0.7]), 0.3, -0.8
    )
    assert parts.cen == pytest.approx(0.0, abs=1e-14)


def test_dipole_rotational_component_closed_form():
    m1, m2, q1 = 1.0, 3.0, 2.0
    system, config = _dipole(m1, m2, q1)
    b_vec = np.array([0.4, -0.2, 0.9])
    fld = PatternField.uniform([0, 0, 0], b_vec)
    omega = np.array([0.3, 0.8, -0.5])
    psi = np.array([-0.6, 0.1, 0.7])
    parts = split_field(system, config, fld, ([0, 0, 0], omega), ([0, 0, 0], psi))
    v1 = np.cross(omega, config.relatives[0])
    w1 = np.cross(psi, config.relatives[0])
    expect = 2 * q1 * (m2 - m1) / m2**2 * b_vec.dot(np.cross(v1, w1))
    assert parts.rot == pytest.approx(expect, abs=1e-12)


def test_additivity_and_antisymmetry():
    rng = np.random.default_rng(12)
    system = ParticleSystem(
        masses=rng.uniform(0.5, 3, 5),
        charges=rng.uniform(-2, 2, 5),
        positions=rng.uniform(-2, 2, (5, 3)),
    )
    config = canonicalize(system)
    fld = PatternField.uniform(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    for _ in range(20):
        v = (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        w = (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        v0, w0 = rng.uniform(-1, 1, 2)
        parts = split_field(system, config, fld, v, w, v0, w0)
        total = unsplit_field(system, config, fld, v, w, v0, w0)
        assert parts.total == pytest.approx(total, abs=1e-12)
        rev = split_field(system, config, fld, w, v, w0, v0)
        assert rev.cen == pytest.approx(-parts.cen, abs=1e-12)
        assert rev.rot == pytest.approx(-parts.rot, abs=1e-12)
        assert rev.mixed == pytest.approx(-parts.mixed, abs=1e-12)


def test_decoupling_criterion():
    masses = np.array([1.0, 2.0, 1.5])
    positions = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    fld = PatternField.uniform([0.1, 0, 0], [0, 0, 1.0])
    ok, report = decoupling_check(
        ParticleSystem(masses=masses, charges=2 * masses, positions=positions), fld
    )
    assert ok and "proportional" in report
    ok, report = decoupling_check(
        ParticleSystem(masses=[1.0, 1.0], charges=[1.0, -1.0], positions=[[1, 0, 0], [-1, 0, 0]]),
        fld,
    )
    assert not ok and "not proportional" in report
    ok, _ = decoupling_check(
        ParticleSystem(masses=[1.0, 1.0], charges=[1.0, -1.0], positions=[[1, 0, 0], [-1, 0, 0]]),
        PatternField.zero(),
    )
    assert ok


def test_mixed_vanishes_when_decoupled():
    rng = np.random.default_rng(13)
    masses = rng.uniform(0.5, 3, 4)
    system = ParticleSystem(
        masses=masses, charges=1.7 * masses, positions=rng.uniform(-2, 2, (4, 3))
    )
    config = canonicalize(system)
    fld = PatternField.uniform(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    for _ in range(20):
        parts = split_field(
            system,
            config,
            fld,
            (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)),
            (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)),
            rng.uniform(-1, 1),
            rng.uniform(-1, 1),
        )
        assert parts.mixed == pytest.approx(0.0, abs=1e-12)


def test_split_potential_zero_and_uniform_neutral():
    system, config = _dipole(m1=2.0, m2=2.0, q1=1.5, a=1.0)
    a_cen, a_rot = split_potential(system, config, np.zeros((2, 3)))
    assert np.allclose(a_cen, 0) and np.allclose(a_rot, 0)
    uniform = np.tile([0.3, -0.7, 0.2], (2, 1))
    a_cen, a_rot = split_potential(system, config, uniform)
    # neutral total charge kills the center part on pure center motions
    assert np.allclose(a_cen, 0, atol=1e-14)


def test_split_potential_additivity():
    rng = np.random.default_rng(14)
    system = ParticleSystem(
        masses=rng.uniform(0.5, 3, 4),
        charges=rng.uniform(-2, 2, 4),
        positions=rng.uniform(-2, 2, (4, 3)),
    )
    config = canonicalize(system)
    # linear-in-position potential evaluated per particle
    grad = rng.uniform(-1, 1, (3, 3))
    pots = (np.asarray(config.center) + np.asarray(config.relatives)) @ grad.T
    a_cen, a_rot = split_potential(system, config, pots)
    for _ in range(10):
        v_cen = rng.uniform(-1, 1, 3)
        omega = rng.uniform(-1, 1, 3)
        full = sum(
            (qi / system.total_mass) * pots[i].dot(v_cen + np.cross(omega, config.relatives[i]))
            for i, qi in enumerate(system.charges)
        )
        assert a_cen.dot(v_cen) + a_rot.dot(omega) == pytest.approx(full, abs=1e-12)


def test_cross_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(18)
    special = np.array([0.0, -0.0, 1e300, -1e300, 1.0, -2.5])
    pairs = [rng.normal(size=(2, 3)) * 10.0 ** rng.integers(-300, 300, (2, 3)) for _ in range(2000)]
    pairs += [rng.choice(special, (2, 3)) for _ in range(2000)]
    for a, b in pairs:
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.cross(a, b)
        got = _cross(a, b)
        assert got.dtype == want.dtype and got.shape == (3,)
        assert got.tobytes() == want.tobytes(), (a, b)

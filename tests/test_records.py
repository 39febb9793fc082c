"""The public records: immutable named tuples that compare by value."""

import math
from fractions import Fraction
from types import ModuleType

import pytest

import rotorspec
from rotorspec import (
    DEFAULT_TOLERANCES,
    BundleKind,
    InertiaTensor,
    ParticleSystem,
    SpectralLine,
    Spectrum,
    canonicalize,
    inertia_tensor,
    principal_momenta,
    split_covector,
    split_velocity,
    spherical_spectrum,
)
from rotorspec.classical_em import PatternField, split_field
from rotorspec.cli import JobConfig
from rotorspec.errors import OutOfRangeError
from rotorspec.polyalg import hamiltonian_matrix, harmonic_basis, harmonic_basis_r3
from rotorspec.polyalg.spaces import BidegreeSpace
from rotorspec.quantum_structures import admissible_structures

PLUS = BundleKind.PLUS


def _records():
    """One instance of every record type, by the route that builds it, with
    a field and a new value for it."""
    system = ParticleSystem([1, 2, 3], [1, 0, -1], [[0, 0, 0], [1.1, 0, 0], [0.3, 1.7, 0]])
    config = canonicalize(system)
    tensor = inertia_tensor(config)
    zero = ((0.0, 0.0, 0.0),) * 3
    return [
        (DEFAULT_TOLERANCES, "spec", 1e-6),
        (system, "charges", (0.0, 0.0, 0.0)),
        (config, "characteristic", 3),
        (split_velocity(config, zero), "center", (1.0, 0.0, 0.0)),
        (split_covector(config, zero), "center", (1.0, 0.0, 0.0)),
        (tensor, "matrix", ((2.0, 0.0, 0.0),) * 3),
        (principal_momenta(tensor, config.degeneracy), "closed", (1.0,)),
        (admissible_structures(config.degeneracy), "h2_real", "R"),
        (SpectralLine(Fraction(3), Fraction(1), 9, PLUS), "energy", Fraction(4)),
        (spherical_spectrum(2, PLUS, j_max=2), "kind", "other"),
        (JobConfig([(1.0, 0.0, [0.0, 0.0, 0.0])]), "bundle", "both"),
        (PatternField.zero(), "is_zero", False),
        (split_field(system, config, PatternField.zero(), ((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (1, 0, 0))), "rot", 1.0),
        (harmonic_basis_r3(1), "degree", 5),
        (hamiltonian_matrix(harmonic_basis(1, 1), 1, 2, 3), "diag", ()),
    ]


@pytest.mark.parametrize(
    "record, field, value", [pytest.param(*case, id=type(case[0]).__name__) for case in _records()]
)
def test_a_record_is_an_immutable_value(record, field, value):
    cls = type(record)
    twin = cls(*record)
    assert twin == record and twin is not record
    assert repr(record).startswith(f"{cls.__name__}({cls._fields[0]}=")
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    # _replace makes a modified copy and leaves the record as it was
    changed = record._replace(**{field: value})
    assert type(changed) is cls and getattr(changed, field) == value
    assert getattr(record, field) != value and changed != record
    assert changed._replace(**{field: getattr(record, field)}) == record


def test_a_bidegree_space_is_its_bidegree():
    space = harmonic_basis(2, 1)
    assert space == BidegreeSpace(2, 1) and hash(space) == hash(BidegreeSpace(2, 1))
    assert space != BidegreeSpace(1, 2) and space != (2, 1)
    assert repr(space) == "BidegreeSpace(p=2, q=1)"
    with pytest.raises(AttributeError):
        space.p = 3
    assert (space.p, space.q, space.dim) == (2, 1, 4)


def test_an_inertia_tensor_converts_and_checks_its_matrix():
    tensor = InertiaTensor([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert tensor.matrix == ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))
    assert tensor._replace(matrix=[[2, 0, 0], [0, 2, 0], [0, 0, 2]]).trace == 6.0
    for bad in ([[1, 0, 0]] * 2, [[1, 0]] * 3):
        with pytest.raises(ValueError, match="^inertia tensor must be 3x3$"):
            InertiaTensor(bad)
        with pytest.raises(ValueError, match="^inertia tensor must be 3x3$"):
            tensor._replace(matrix=bad)
    # the one check that a body's inertia tensor stays in the float range
    message = "^particles: the inertia tensor leaves the float range"
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(OutOfRangeError, match=message):
            InertiaTensor([[1, 0, 0], [0, bad, 0], [0, 0, 3]])
        with pytest.raises(OutOfRangeError, match=message):
            tensor._replace(matrix=[[bad, 0, 0], [0, 2, 0], [0, 0, 2]])


def test_a_spectrum_sorts_its_lines_and_owns_its_params():
    high, low = (SpectralLine(Fraction(e), Fraction(1), 9, PLUS) for e in (5, 2))
    spec = Spectrum((high, low), "test", PLUS, None)
    assert spec.lines == (low, high)
    assert spec._replace(lines=(high, low)).lines == (low, high)
    # params defaults to a new dict per spectrum, never one shared dict
    other = Spectrum((), "test", PLUS, None)
    assert spec.params == other.params == {} and spec.params is not other.params
    spec.params["I"] = 1
    assert other.params == {} and Spectrum((), "test", PLUS, None).params == {}
    assert (spec.k, spec.hbar0, spec.j_max) == (0, 1, 0)


# the package's 52 public names, pinned so that the derived __all__ neither
# gains nor loses one
PUBLIC_NAMES = [
    "AllCoincidentError", "BundleKind", "DEFAULT_TOLERANCES", "DegeneracyClass", "InertiaTensor",
    "NonPositiveMassError", "NotRigidVelocityError", "ParticleSystem", "PatternField", "PrincipalMomenta",
    "RepresentationClosureError", "RigidConfiguration", "RotorSpecError", "SchemaError", "SpectralLine",
    "Spectrum", "SplitCovector", "SplitFieldValue", "SplitVector", "StructureSet", "Tolerances", "TopClass",
    "admissible_structures", "angular_velocity", "asymmetric_spectrum", "bundle_of_j", "canonicalize",
    "classical_momentum_map", "classify_momenta", "curvature_shift", "decoupling_check",
    "degenerate_spectrum", "degree_of_j", "diagonalized_spectrum", "inertia_tensor",
    "j_squared_spectrum", "j_values", "monopole_spectrum", "parity_projects", "principal_momenta",
    "recombine", "scalar_curvature", "scalar_curvature_oracle", "spectrum_for", "spherical_spectrum",
    "split_covector", "split_field", "split_potential", "split_velocity", "symmetric_spectrum",
    "unsplit_field", "velocities_from_angular",
]


def test_the_public_surface_is_all_and_only_its_names():
    assert rotorspec.__all__ == PUBLIC_NAMES and len(PUBLIC_NAMES) == 52
    namespace = {}
    exec("from rotorspec import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_NAMES
    # every name resolves, the classical_em ones on first use, and none is a module
    for name in PUBLIC_NAMES:
        value = getattr(rotorspec, name)
        assert namespace[name] is value, name
        assert not isinstance(value, ModuleType), name

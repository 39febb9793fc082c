"""rotorspec: quantum rotational spectra of rigid bodies from particle data.

The pipeline runs canonicalize -> classify -> inertia -> admissible quantum
structures -> spectrum.  Closed forms cover the spherical, symmetric,
degenerate and monopole cases; the asymmetric top is solved by exact
operator matrices on harmonic polynomial spaces.  The package runs in pure
Python with no dependencies; the classical_em names below (field and
velocity splitting) are imported on first use, which keeps that code off
the classify/spectrum compile path.
"""

from types import ModuleType as _ModuleType

from .defaults import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    AllCoincidentError,
    NonPositiveMassError,
    NotRigidVelocityError,
    RepresentationClosureError,
    RotorSpecError,
    SchemaError,
)
from .geometry import DegeneracyClass, ParticleSystem, RigidConfiguration, canonicalize
from .inertia import (
    InertiaTensor,
    PrincipalMomenta,
    TopClass,
    classify_momenta,
    inertia_tensor,
    principal_momenta,
    scalar_curvature,
    scalar_curvature_oracle,
)
from .quantum_structures import (
    BundleKind,
    StructureSet,
    admissible_structures,
    bundle_of_j,
    degree_of_j,
    j_of_degree,
    j_values,
    parity_projects,
)
from .spectra import (
    SpectralLine,
    Spectrum,
    asymmetric_spectrum,
    curvature_shift,
    degenerate_spectrum,
    diagonalized_spectrum,
    j_squared_spectrum,
    monopole_spectrum,
    spectrum_for,
    spherical_spectrum,
    symmetric_spectrum,
)

__version__ = "0.1.0"

_CLASSICAL_EM = (
    "PatternField",
    "SplitCovector",
    "SplitFieldValue",
    "SplitVector",
    "angular_velocity",
    "classical_momentum_map",
    "decoupling_check",
    "recombine",
    "split_covector",
    "split_field",
    "split_potential",
    "split_velocity",
    "unsplit_field",
    "velocities_from_angular",
)


def __getattr__(name):
    if name in _CLASSICAL_EM:
        from . import classical_em

        return getattr(classical_em, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_CLASSICAL_EM)
)

"""rotorspec: quantum rotational spectra of rigid bodies from particle data.

The pipeline runs canonicalize -> classify -> inertia -> admissible quantum
structures -> spectrum.  Closed forms cover the spherical, symmetric,
degenerate and monopole cases; the asymmetric top is solved by exact
operator matrices on harmonic polynomial spaces.  That pipeline runs in
pure Python; the classical_em names below are imported on first use, since
that module needs numpy.
"""

from .defaults import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    AllCoincidentError,
    NonPositiveMassError,
    NotRigidVelocityError,
    RepresentationClosureError,
    RotorSpecError,
    SchemaError,
)
from .geometry import (
    DegeneracyClass,
    ParticleSystem,
    RigidConfiguration,
    SplitCovector,
    SplitVector,
    angular_velocity,
    canonicalize,
    classify,
    recombine,
    split_covector,
    split_velocity,
    velocities_from_angular,
)
from .inertia import (
    InertiaTensor,
    PrincipalMomenta,
    TopClass,
    classify_top,
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
    spherical_spectrum,
    symmetric_spectrum,
)

__version__ = "0.1.0"

_CLASSICAL_EM = (
    "PatternField",
    "SplitFieldValue",
    "classical_momentum_map",
    "decoupling_check",
    "split_field",
    "split_potential",
    "unsplit_field",
)


def __getattr__(name):
    if name in _CLASSICAL_EM:
        from . import classical_em

        return getattr(classical_em, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AllCoincidentError",
    "BundleKind",
    "DEFAULT_TOLERANCES",
    "DegeneracyClass",
    "InertiaTensor",
    "NonPositiveMassError",
    "NotRigidVelocityError",
    "ParticleSystem",
    "PatternField",
    "PrincipalMomenta",
    "RepresentationClosureError",
    "RigidConfiguration",
    "RotorSpecError",
    "SchemaError",
    "SpectralLine",
    "Spectrum",
    "SplitCovector",
    "SplitFieldValue",
    "SplitVector",
    "StructureSet",
    "Tolerances",
    "TopClass",
    "admissible_structures",
    "angular_velocity",
    "asymmetric_spectrum",
    "bundle_of_j",
    "canonicalize",
    "classical_momentum_map",
    "classify",
    "classify_top",
    "curvature_shift",
    "decoupling_check",
    "degenerate_spectrum",
    "degree_of_j",
    "diagonalized_spectrum",
    "inertia_tensor",
    "j_of_degree",
    "j_squared_spectrum",
    "j_values",
    "monopole_spectrum",
    "parity_projects",
    "principal_momenta",
    "recombine",
    "scalar_curvature",
    "scalar_curvature_oracle",
    "spherical_spectrum",
    "split_covector",
    "split_field",
    "split_potential",
    "split_velocity",
    "symmetric_spectrum",
    "unsplit_field",
    "velocities_from_angular",
]

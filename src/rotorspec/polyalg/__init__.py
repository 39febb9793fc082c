"""Exact polynomial algebra, harmonic bases and operator matrices."""

from .gaussian import QC
from .operators import (
    apply_j1,
    apply_j2,
    apply_j3,
    apply_jminus,
    apply_jplus,
    casimir_matrix,
    eigenvalues,
    generator_matrix,
    hamiltonian_matrix,
    pairing_weights,
    vector_field_matrix,
)
from .polynomial import (
    Polynomial,
    antipodal_sign,
    euler_r3,
    laplacian_r3,
    laplacian_r4,
    sphere_laplacian_r3,
)
from .rational_linalg import charpoly, mat_commutator, mat_equal, mat_mul
from .spaces import BidegreeSpace, R3HarmonicSpace, harmonic_basis, harmonic_basis_r3

__all__ = [
    "QC",
    "Polynomial",
    "BidegreeSpace",
    "R3HarmonicSpace",
    "antipodal_sign",
    "apply_j1",
    "apply_j2",
    "apply_j3",
    "apply_jminus",
    "apply_jplus",
    "casimir_matrix",
    "charpoly",
    "eigenvalues",
    "euler_r3",
    "generator_matrix",
    "hamiltonian_matrix",
    "harmonic_basis",
    "harmonic_basis_r3",
    "laplacian_r3",
    "laplacian_r4",
    "mat_commutator",
    "mat_equal",
    "mat_mul",
    "pairing_weights",
    "sphere_laplacian_r3",
    "vector_field_matrix",
]

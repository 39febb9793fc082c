"""Exact polynomial algebra, harmonic bases and operator matrices.

The exact oracle `rotorspec verify` checks the spectrum path against: the
band S_d of each degree (rotorspec.levels, re-exported here as
band_record, degree_band and eigenvalues) against the operator matrices
on the harmonic polynomial spaces H^{p,q}, over the integers and
Fractions.  A spectrum imports rotorspec.levels directly and loads none of
this package.
"""

from ..levels import band_record, degree_band, eigenvalues
from .operators import (
    apply_j3,
    apply_jminus,
    apply_jplus,
    casimir_matrix,
    generator_matrix,
    hamiltonian_matrix,
    pairing_weights,
    vector_field_matrix,
)
from .polynomial import Polynomial, antipodal_sign, laplacian_r3, laplacian_r4, sphere_laplacian_r3
from .rational_linalg import charpoly, mat_commutator, mat_equal, mat_mul
from .spaces import harmonic_basis, harmonic_basis_r3

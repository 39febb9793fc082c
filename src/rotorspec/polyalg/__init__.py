"""Exact polynomial algebra, harmonic bases and operator matrices.

levels is the spectrum path: the levels of the band S_d, in the standard
library alone.  The other submodules are the exact oracle `rotorspec verify`
checks it against.  Each public name below is imported from its submodule
on first use, so a spectrum loads no oracle code.
"""

import importlib

_SOURCES = {
    "levels": ("band_record", "degree_band", "eigenvalues"),
    "operators": (
        "apply_j3",
        "apply_jminus",
        "apply_jplus",
        "casimir_matrix",
        "generator_matrix",
        "hamiltonian_matrix",
        "pairing_weights",
        "vector_field_matrix",
    ),
    "polynomial": (
        "Polynomial",
        "antipodal_sign",
        "euler_r3",
        "laplacian_r3",
        "laplacian_r4",
        "sphere_laplacian_r3",
    ),
    "rational_linalg": ("charpoly", "mat_commutator", "mat_equal", "mat_mul"),
    "spaces": ("BidegreeSpace", "R3HarmonicSpace", "harmonic_basis", "harmonic_basis_r3"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(_MODULE_OF)

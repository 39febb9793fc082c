"""Default tolerances and global numeric knobs.

All quantities live in one coherent unit system; hbar0 is a plain positive
number in that system (default 1).
"""

from __future__ import annotations

from dataclasses import dataclass

J_MAX_DEFAULT = 6
# Hard cap keeps exact-arithmetic block sizes bounded (blocks are (2j+1) wide).
J_MAX_CAP = 25


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances used across the geometry and spectra layers.

    rel:  relative threshold (rank decisions, momentum-coincidence tests)
    abs:  absolute threshold in velocity units (angular-velocity residuals)
    spec: relative threshold for grouping nearly equal eigenvalues
    """

    rel: float = 1e-9
    abs: float = 1e-12
    spec: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()

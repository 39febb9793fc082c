"""Default tolerances and global numeric knobs.

All quantities live in one coherent unit system; hbar0 is a plain positive
number in that system (default 1).
"""

from __future__ import annotations

from typing import NamedTuple

J_MAX_DEFAULT = 6
# Hard cap keeps exact-arithmetic block sizes bounded (blocks are (2j+1) wide).
J_MAX_CAP = 25


class Tolerances(NamedTuple):
    """Numeric tolerances used across the geometry and spectra layers.

    Both are relative: no decision depends on the units, and a job's
    `tolerances.abs` is ignored like any unknown key.

    rel:  relative threshold, below 1 (rank decisions, momentum coincidences,
          angular-velocity residuals, charge/mass proportionality)
    spec: relative threshold for grouping nearly equal eigenvalues
    """

    rel: float = 1e-9
    spec: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()

"""Admissible quantum line bundles over the rotational space.

Over SO(3) there are exactly two inequivalent Hermitian line bundles
(classified by H^2(SO(3), Z) = Z_2): the trivial one and a non-trivial one
whose sections are the classical "two-valued wavefunctions".  Over S^2
(collinear body) only the trivial bundle admits a flat quantum structure.
These facts are fixed data here; the tests compute them from homology.

A function on S^3 descends to a section of the trivial (non-trivial) bundle
iff it is even (odd) under the antipodal map; for homogeneous polynomials
that is a parity rule on the total degree.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from .geometry import DegeneracyClass


class BundleKind(Enum):
    PLUS = "trivial"  # trivial bundle, integer angular momentum
    MINUS = "nontrivial"  # non-trivial bundle, half-odd angular momentum


class StructureSet(NamedTuple):
    """Admissible bundle kinds for a degeneracy class, with the underlying
    second-cohomology data reported as fixed constants."""

    admissible: tuple[BundleKind, ...]
    h2_integer: str
    h2_real: str


def admissible_structures(degeneracy: DegeneracyClass) -> StructureSet:
    """Both bundles in the non-degenerate case, only the trivial one for a
    collinear body."""
    if degeneracy.is_degenerate:
        return StructureSet(
            admissible=(BundleKind.PLUS,), h2_integer="Z", h2_real="R"
        )
    return StructureSet(
        admissible=(BundleKind.PLUS, BundleKind.MINUS), h2_integer="Z2", h2_real="0"
    )


def parity_projects(total_degree: int, kind: BundleKind) -> bool:
    """Whether a degree-d homogeneous function on S^3 descends to the given
    bundle: even degrees project to PLUS, odd degrees to MINUS."""
    if total_degree < 0:
        raise ValueError("degree must be nonnegative")
    even = total_degree % 2 == 0
    return even if kind is BundleKind.PLUS else not even


def degree_of_j(j) -> int:
    """Total polynomial degree d = 2j; j must be a half-integer."""
    d = Fraction(j) * 2
    if d.denominator != 1 or d < 0:
        raise ValueError(f"j must be a nonnegative half-integer, got {j}")
    return int(d)


def bundle_of_j(j) -> BundleKind:
    """PLUS for integer j, MINUS for half-odd j; a rational j is read as it
    is, anything else through Fraction."""
    den = j.denominator if isinstance(j, Rational) else Fraction(j).denominator
    return BundleKind.PLUS if den == 1 else BundleKind.MINUS


def j_values(kind: BundleKind, j_max) -> list[Fraction]:
    """All j of the bundle's parity from the smallest admissible value up to
    j_max inclusive: integers for PLUS, half-odd integers for MINUS, each
    j = d/2 built from its degree d <= 2 j_max."""
    parity = 0 if kind is BundleKind.PLUS else 1
    return [Fraction(d, 2) for d in range(parity, math.floor(2 * Fraction(j_max)) + 1, 2)]

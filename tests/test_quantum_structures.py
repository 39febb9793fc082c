"""Bundle classification, checked against the homology of SO(3) and S^2,
and the parity projectability rule."""

import json
import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from rotorspec import (
    BundleKind,
    DegeneracyClass,
    ParticleSystem,
    admissible_structures,
    bundle_of_j,
    canonicalize,
    degree_of_j,
    j_of_degree,
    j_values,
    parity_projects,
)
from rotorspec.cli import main


def test_admissible_structures_nondegenerate():
    for dc in (DegeneracyClass.STRONGLY_NONDEGENERATE, DegeneracyClass.WEAKLY_NONDEGENERATE):
        s = admissible_structures(dc)
        assert s.admissible == (BundleKind.PLUS, BundleKind.MINUS)
        assert s.h2_integer == "Z2"
        assert s.h2_real == "0"


def test_admissible_structures_degenerate():
    s = admissible_structures(DegeneracyClass.DEGENERATE)
    assert s.admissible == (BundleKind.PLUS,)
    assert s.h2_integer == "Z"
    assert s.h2_real == "R"


def test_parity_examples():
    assert parity_projects(0, BundleKind.PLUS)
    assert not parity_projects(1, BundleKind.PLUS)
    assert parity_projects(1, BundleKind.MINUS)
    assert parity_projects(7, BundleKind.MINUS)


def test_exactly_one_bundle_per_degree():
    for d in range(30):
        assert parity_projects(d, BundleKind.PLUS) != parity_projects(d, BundleKind.MINUS)


def test_parity_rejects_negative_degree():
    with pytest.raises(ValueError):
        parity_projects(-1, BundleKind.PLUS)


def test_j_degree_mapping():
    assert j_of_degree(3) == Fraction(3, 2)
    assert degree_of_j(Fraction(3, 2)) == 3
    assert degree_of_j(2) == 4
    with pytest.raises(ValueError):
        degree_of_j(Fraction(1, 3))
    assert bundle_of_j(2) is BundleKind.PLUS
    assert bundle_of_j(Fraction(5, 2)) is BundleKind.MINUS


def test_j_values_series():
    assert j_values(BundleKind.PLUS, 2) == [0, 1, 2]
    assert j_values(BundleKind.MINUS, 2) == [Fraction(1, 2), Fraction(3, 2)]
    # half-integer cutoff includes the endpoint on the matching bundle
    assert j_values(BundleKind.MINUS, Fraction(5, 2))[-1] == Fraction(5, 2)
    assert j_values(BundleKind.PLUS, Fraction(5, 2))[-1] == 2


def _j_values_by_addition(kind, j_max):
    """j from the bundle's smallest value up to j_max, by adding 1 in turn:
    the accumulating loop j_values replaced, kept here as its oracle."""
    j, top, out = Fraction(0) if kind is BundleKind.PLUS else Fraction(1, 2), Fraction(j_max), []
    while j <= top:
        out.append(j)
        j += 1
    return out


@pytest.mark.parametrize("kind", list(BundleKind), ids=lambda kind: kind.name)
@pytest.mark.parametrize(
    "j_max",
    [0, 1, 2, 25, Fraction(5, 2), Fraction(7, 3), Fraction(1, 3), 2.5, 2.4, 0.49, 7.999999, 1e-9, -1, Fraction(-1, 2), -2.5],
)
def test_j_values_are_built_from_their_degrees(kind, j_max):
    # the same Fractions, in the same order, as repeated addition gives
    assert list(map(repr, j_values(kind, j_max))) == list(map(repr, _j_values_by_addition(kind, j_max)))


# --- the classification computed: homology of Delta-complexes -----------------


def _cells(axes: int, antipodal: bool) -> list:
    """The simplices of the boundary of the cross-polytope in R^axes, by
    dimension: (axes, signs) for the vertices signs[i] e_axes[i], axes
    increasing.  With antipodal, one simplex per pair {s, -s}, the one with
    signs[0] = +1.  The antipodal map keeps the vertex order, so the
    quotient is a Delta-complex: RP^3 for 4 axes, and S^2 (the
    octahedron) for 3 axes without the quotient."""
    return [
        [(chosen, signs) for chosen in combinations(range(axes), dim + 1)
         for signs in product((1, -1), repeat=dim + 1) if not (antipodal and signs[0] < 0)]
        for dim in range(axes)
    ]


def _boundary(cells: list, dim: int, antipodal: bool) -> Matrix:
    """The integer matrix of the boundary map C_dim -> C_(dim-1)."""
    row = {cell: r for r, cell in enumerate(cells[dim - 1])}
    entries = [[0] * len(cells[dim]) for _ in cells[dim - 1]]
    for col, (chosen, signs) in enumerate(cells[dim]):
        for i in range(dim + 1):
            face_axes, face_signs = chosen[:i] + chosen[i + 1:], signs[:i] + signs[i + 1:]
            if antipodal and face_signs[0] < 0:
                face_signs = tuple(-s for s in face_signs)
            entries[row[face_axes, face_signs]][col] += (-1) ** i
    return Matrix(entries)


def _homology(axes: int, antipodal: bool) -> list:
    """(free rank, torsion coefficients) of H_0 .. H_(axes-1), from the
    Smith normal forms of the boundary maps over ZZ."""
    cells = _cells(axes, antipodal)
    rank, torsion = [0] * (axes + 1), [[] for _ in range(axes)]
    for dim in range(1, axes):
        snf = smith_normal_form(_boundary(cells, dim, antipodal), domain=ZZ)
        factors = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
        rank[dim], torsion[dim - 1] = len(factors), [n for n in factors if n > 1]
    return [(len(cells[dim]) - rank[dim] - rank[dim + 1], torsion[dim]) for dim in range(axes)]


def _group(free: int, torsion: list, ring: str) -> str:
    """The name classify prints for ring^free + Z_n1 + ...: "Z2", "Z", "R"
    or "0"."""
    return " + ".join([ring] * free + [f"Z{n}" for n in torsion]) or "0"


def _classify_h2_rows(tmp_path, capsys, positions) -> list:
    """The values of classify's H^2(S_rot, Z) and H^2(S_rot, R) rows for a
    body of unit masses."""
    path = tmp_path / "body.json"
    particles = [{"mass": 1, "charge": 0, "position": pos} for pos in positions]
    path.write_text(json.dumps({"version": 1, "particles": particles}))
    assert main(["classify", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = ("H^2(S_rot, Z)", "H^2(S_rot, R)")
    return [line[len(name):].strip() for name in names for line in lines if line.startswith(name)]


@pytest.mark.parametrize(
    "axes, antipodal, cell_counts, positions, degeneracy",
    [
        (4, True, [4, 12, 16, 8], [[0, 0, 0], [1.1, 0, 0], [0.3, 1.7, 0]], DegeneracyClass.WEAKLY_NONDEGENERATE),
        (4, True, [4, 12, 16, 8], [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], DegeneracyClass.STRONGLY_NONDEGENERATE),
        (3, False, [6, 12, 8], [[1, 0, 0], [-1, 0, 0]], DegeneracyClass.DEGENERATE),
    ],
    ids=["planar_RP3", "solid_RP3", "collinear_S2"],
)
def test_structure_count_and_h2_rows_are_computed_homology(
    tmp_path, capsys, axes, antipodal, cell_counts, positions, degeneracy
):
    # inequivalent quantum structures are classified by H^1(M; U(1)) =
    # Hom(H_1(M), U(1)), which has prod n_i elements for a finite H_1 =
    # sum Z_(n_i); by universal coefficients H^2(M; Z) = free(H_2) +
    # tors(H_1) and H^2(M; R) = R^rank(H_2).  M is SO(3) = RP^3 for a
    # non-degenerate body and S^2 for a collinear one
    assert [len(cells) for cells in _cells(axes, antipodal)] == cell_counts
    homology = _homology(axes, antipodal)
    assert homology[0] == (1, [])  # connected
    (h1_free, h1_torsion), (h2_free, _) = homology[1], homology[2]
    assert h1_free == 0
    system = ParticleSystem(masses=[1] * len(positions), charges=[0] * len(positions), positions=positions)
    assert canonicalize(system).degeneracy is degeneracy
    assert len(admissible_structures(degeneracy).admissible) == math.prod(h1_torsion)
    rows = _classify_h2_rows(tmp_path, capsys, positions)
    assert rows == [_group(h2_free, h1_torsion, "Z"), _group(h2_free, [], "R")]
    # the values the paper states
    assert (math.prod(h1_torsion), *rows) == ((2, "Z2", "0") if antipodal else (1, "Z", "R"))

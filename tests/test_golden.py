"""Printed output pinned against golden files in tests/golden/.

The CLI cases compare stdout byte for byte.  The library cases print each
asymmetric_spectrum line with exact energies as fractions and float
energies at 12 significant digits, the precision the CLI prints.  The
closed-form cases print every line of one closed-form spectrum per bundle
with float energies as repr, so they pin every bit.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from rotorspec import (
    BundleKind,
    asymmetric_spectrum,
    degenerate_spectrum,
    j_squared_spectrum,
    monopole_spectrum,
    spherical_spectrum,
    symmetric_spectrum,
)
from rotorspec.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

TRIANGLE = {
    "version": 1,
    "particles": [
        {"mass": 1, "charge": 0, "position": [0, 0, 0]},
        {"mass": 2, "charge": 0, "position": [1.1, 0, 0]},
        {"mass": 3, "charge": 0, "position": [0.3, 1.7, 0]},
    ],
}

OCTAHEDRON = {
    "version": 1,
    "particles": [
        {"mass": 1, "charge": 0, "position": p}
        for p in ([0.5, 0, 0], [-0.5, 0, 0], [0, 0.5, 0], [0, -0.5, 0], [0, 0, 0.5], [0, 0, -0.5])
    ],
}

# a planar square: a symmetric (oblate) top
SQUARE = {
    "version": 1,
    "particles": [
        {"mass": 1, "charge": 0, "position": p}
        for p in ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])
    ],
}

CLI_CASES = {
    f"cli_{body}_{fmt}": (doc, ["spectrum", "--output", fmt, *extra])
    for body, doc, extra in (
        ("triangle", TRIANGLE, []),
        ("octahedron", OCTAHEDRON, []),
        ("square", SQUARE, []),
        ("triangle_overrides", TRIANGLE, ["--k", "1/3", "--hbar", "2/3", "--j-max", "5/2"]),
    )
    for fmt in ("table", "csv")
}
CLI_CASES["cli_triangle_eigensections_j1"] = (TRIANGLE, ["eigensections", "--j", "1"])
# huge scales that the float Hamiltonian still represents
CLI_CASES["cli_triangle_hbar_1e300"] = (TRIANGLE, ["spectrum", "--hbar", "1e300"])
CLI_CASES["cli_triangle_k_1e300"] = (TRIANGLE, ["spectrum", "--k", "1e300"])

LIBRARY_CASES = {
    "lib_rational_k_half": ((1, Fraction(5, 2), Fraction(7, 3)), {"k": Fraction(1, 2)}),
    "lib_float": ((1.0, 2.0, 3.5), {}),
    # two rational triples of the kind the asym_exact_warm benchmark draws
    "lib_rational_warm_a": ((Fraction(21, 8), Fraction(17, 8), Fraction(7, 2)), {"j_max": 6}),
    "lib_rational_warm_b": ((Fraction(49, 8), Fraction(76, 11), Fraction(16, 3)), {"j_max": 6}),
}

BOTH = (BundleKind.PLUS, BundleKind.MINUS)
PLUS_ONLY = (BundleKind.PLUS,)
EXACT = {"k": Fraction(1, 3), "hbar0": Fraction(2, 3)}
FLOAT = {"k": 0.31, "hbar0": 0.73}
# (spectrum as a function of the bundle, bundles); exact and float inputs,
# k != 0 wherever the closed form takes k
CLOSED_FORM_CASES = {
    "lib_spherical_exact": (lambda b: spherical_spectrum(Fraction(5, 3), b, j_max=3, **EXACT), BOTH),
    "lib_spherical_float": (lambda b: spherical_spectrum(1.37, b, j_max=3, **FLOAT), BOTH),
    "lib_symmetric_exact": (
        lambda b: symmetric_spectrum(Fraction(3, 2), Fraction(7, 3), b, j_max=3, **EXACT),
        BOTH,
    ),
    "lib_symmetric_float": (lambda b: symmetric_spectrum(1.13, 2.29, b, j_max=3, **FLOAT), BOTH),
    "lib_degenerate_exact": (
        lambda b: degenerate_spectrum(Fraction(5, 2), k=Fraction(-1, 3), hbar0=Fraction(2, 3), l_max=4),
        PLUS_ONLY,
    ),
    "lib_degenerate_float": (lambda b: degenerate_spectrum(2.47, k=-0.29, hbar0=0.73, l_max=4), PLUS_ONLY),
    "lib_monopole_exact": (
        lambda b: monopole_spectrum(
            Fraction(3, 2), Fraction(7, 3), b, Fraction(3, 4), Fraction(5, 4), j_max=Fraction(5, 2), **EXACT
        ),
        BOTH,
    ),
    "lib_monopole_float": (
        lambda b: monopole_spectrum(1.13, 2.29, b, -0.61, 1.27, j_max=2.5, **FLOAT),
        BOTH,
    ),
    # j_squared_spectrum takes no k
    "lib_j_squared_exact": (lambda b: j_squared_spectrum(b, 3, hbar0=Fraction(2, 3)), BOTH),
    "lib_j_squared_float": (lambda b: j_squared_spectrum(b, 3, hbar0=0.73), BOTH),
}


def _cli_output(doc, argv, workdir) -> str:
    path = Path(workdir) / "job.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([argv[0], "--config", str(path), *argv[1:]])
    assert rc == EXIT_OK, argv
    return out.getvalue()


def _library_output(momenta, kwargs) -> str:
    out = []
    for bundle in (BundleKind.PLUS, BundleKind.MINUS):
        spec = asymmetric_spectrum(*momenta, bundle, **{"j_max": 3, **kwargs})
        for ln in spec.lines:
            e = ln.energy
            energy = str(e) if isinstance(e, Fraction) else format(e, ".12g")
            refs = " ".join(f"{p},{q},{i}" for p, q, i in ln.eigensections)
            out.append(f"{bundle.value} j={ln.j} E={energy} mult={ln.multiplicity} [{refs}]")
    return "\n".join(out) + "\n"


def _closed_form_output(spectrum_of, bundles) -> str:
    out = []
    for bundle in bundles:
        for ln in spectrum_of(bundle).lines:
            e = ln.energy
            energy = str(e) if isinstance(e, Fraction) else repr(e)
            refs = " ".join(f"{p},{q},{i}" for p, q, i in ln.eigensections or ())
            out.append(f"{ln.bundle.value} j={ln.j} l={ln.l} E={energy} mult={ln.multiplicity} [{refs}]")
    return "\n".join(out) + "\n"


def _render(name: str, workdir) -> str:
    if name in CLI_CASES:
        return _cli_output(*CLI_CASES[name], workdir)
    if name in CLOSED_FORM_CASES:
        return _closed_form_output(*CLOSED_FORM_CASES[name])
    return _library_output(*LIBRARY_CASES[name])


ALL_CASES = [*CLI_CASES, *LIBRARY_CASES, *CLOSED_FORM_CASES]


@pytest.mark.parametrize("name", ALL_CASES)
def test_output_matches_golden(name, tmp_path):
    assert _render(name, tmp_path) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in ALL_CASES:
            (GOLDEN / f"{case}.txt").write_text(_render(case, tmp))
            print(f"wrote {case}", file=sys.stderr)

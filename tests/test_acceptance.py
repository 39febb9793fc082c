"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is pinned at its stated tolerance; runtime bounds are
asserted with monotonic timers.  Run with `pytest -v` (or `-s` to see the
per-criterion lines inline); `rotorspec verify` runs the same oracle checks
from the command line.
"""

import time

from rotorspec import BundleKind, spherical_spectrum
from rotorspec.verify import (
    check_asymmetric_j1,
    check_casimir,
    check_curvature,
    check_degenerate_case,
    check_dimensions,
    check_em_layer,
    check_geometry_layer,
    check_half_integer_branch,
    check_monopole,
    check_parity_selection,
    check_spherical_spectrum,
    check_su2_commutators,
    check_symmetric_spectrum,
    check_x3_spectrum,
    run_suite,
)


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_spherical_spectrum():
    start = time.monotonic()
    spec = spherical_spectrum(1, BundleKind.PLUS, k=0, hbar0=1, j_max=6)
    assert [ln.energy for ln in spec.lines] == [0, 1, 3, 6, 10, 15, 21]
    assert [ln.multiplicity for ln in spec.lines] == [1, 9, 25, 49, 81, 121, 169]
    ok, detail = check_spherical_spectrum(6)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(
        "criterion 1 (spherical spectrum, diagonalization oracle, < 5 s)",
        ok,
        f"{detail}; {elapsed:.2f} s",
    )


def test_criterion_02_half_integer_branch():
    ok, detail = check_half_integer_branch(6)
    if ok:
        ok, detail = check_parity_selection(12)
        detail = "E_1/2 = 3/8 mult 4; " + detail
    _report("criterion 2 (half-integer branch, parity selection d <= 12)", ok, detail)


def test_criterion_03_symmetric_top():
    ok, detail = check_symmetric_spectrum(6)
    _report("criterion 3 (symmetric top closed form vs diagonalization)", ok, detail)


def test_criterion_04_asymmetric_j1():
    ok, detail = check_asymmetric_j1()
    _report("criterion 4 (asymmetric j=1 triad, ladder oracle, < 1 s)", ok, detail)


def test_criterion_05_su2_integrity():
    ok, detail = check_su2_commutators(8)
    if ok:
        ok, detail = check_casimir(8)
    if ok:
        ok, detail = check_x3_spectrum(8)
    if ok:
        ok, detail = check_dimensions(8)
        detail = "commutators, Casimir, J3 steps and dimensions exact for p+q <= 8"
    _report("criterion 5 (su(2) representation integrity)", ok, detail)


def test_criterion_06_scalar_curvature():
    ok, detail = check_curvature()
    _report("criterion 6 (curvature closed forms vs oracle, 1000 triples)", ok, detail)


def test_criterion_07_degenerate_case():
    ok, detail = check_degenerate_case(8)
    _report("criterion 7 (degenerate S^2 levels, multiplicity 2l+1)", ok, detail)


def test_criterion_08_monopole():
    ok, detail = check_monopole()
    _report("criterion 8 (monopole reduction and +-l splitting)", ok, detail)


def test_criterion_09_classical_layer():
    ok, detail = check_geometry_layer()
    if ok:
        ok, detail2 = check_em_layer()
        detail = detail + "; " + detail2
    _report("criterion 9 (classical splitting/round-trip/dipole, 1e-12)", ok, detail)


def test_criterion_10_full_verify_under_60s():
    start = time.monotonic()
    rc = run_suite(j_max=6, out=lambda _line: None)
    elapsed = time.monotonic() - start
    ok = rc == 0 and elapsed < 60.0
    _report(
        "criterion 10 (full verify suite at j_max = 6, < 60 s)",
        ok,
        f"exit {rc}, {elapsed:.1f} s",
    )

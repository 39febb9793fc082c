"""The verification suite itself: sensitivity and runtime behavior."""

import time

from rotorspec import verify


def test_run_suite_passes_quietly():
    lines = []
    rc = verify.run_suite(j_max=2, out=lines.append)
    assert rc == 0
    assert all(line.startswith(("PASS", "OK")) for line in lines)


def test_small_j_max_is_fast():
    start = time.monotonic()
    rc = verify.run_suite(j_max=2, out=lambda _line: None)
    assert rc == 0
    assert time.monotonic() - start < 5.0


def test_suite_detects_casimir_corruption(monkeypatch):
    # a wrong sign in the Casimir must be caught by the scalar check
    real = verify.casimir_matrix

    def negated(p, q):
        m = real(p, q)
        from rotorspec.polyalg.operators import OperatorMatrix

        rows = tuple(tuple(-c for c in row) for row in m.entries)
        return OperatorMatrix(space=m.space, entries=rows, adjointness=m.adjointness)

    monkeypatch.setattr(verify, "casimir_matrix", negated)
    ok, detail = verify.check_casimir(2)
    assert not ok
    assert "Casimir" in detail


def test_suite_detects_shifted_eigenvalue(monkeypatch):
    # shift one brute-force energy: the closed-form comparison must fail
    from rotorspec import spectra

    real = spectra.diagonalized_spectrum

    def shifted(*args, **kwargs):
        spec = real(*args, **kwargs)
        if len(spec.lines) > 1:
            object.__setattr__(spec.lines[1], "energy", spec.lines[1].energy + 1)
        return spec

    monkeypatch.setattr(verify, "diagonalized_spectrum", shifted)
    ok, _detail = verify.check_spherical_spectrum(2)
    assert not ok

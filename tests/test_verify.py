"""The verification suite itself: sensitivity and runtime behavior."""

import time
from fractions import Fraction

import pytest

from rotorspec import verify
from rotorspec.polyalg import operators, spaces


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
        return tuple(tuple(-c for c in row) for row in real(p, q))

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


@pytest.fixture
def cold_caches():
    """Clear every cached basis, ladder, weight and square record before and
    after the test, so nothing built from corrupted data outlives it."""
    cached = [v for m in (spaces, operators) for v in vars(m).values() if hasattr(v, "cache_clear")]
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()


def _patch_both(monkeypatch, name, fake):
    # the hot path reads the name in operators, the suite in verify
    monkeypatch.setattr(operators, name, fake)
    monkeypatch.setattr(verify, name, fake)


def test_suite_detects_a_wrong_ladder_coordinate(cold_caches, monkeypatch):
    # flipping the sign of alpha_0 and beta_0 keeps every product alpha_k
    # beta_k and every weight, so the hot path's own checks pass; only the
    # comparison with the polynomial route can see it
    real = operators._ladder

    def flipped(p, q):
        alpha, beta = real(p, q)
        if not alpha:
            return alpha, beta
        return (-alpha[0], *alpha[1:]), (-beta[0], *beta[1:])

    want = operators.pairing_weights(2, 0)
    operators.pairing_weights.cache_clear()
    _patch_both(monkeypatch, "_ladder", flipped)
    assert operators.pairing_weights(2, 0) == want
    operators._generator_square(2, 0)  # its self-adjointness assertion holds
    ok, detail = verify.check_su2_commutators(2)
    assert not ok
    assert "integer ladder" in detail


def test_suite_detects_a_wrong_pairing_weight(cold_caches, monkeypatch):
    real = operators.pairing_weights

    def skewed(p, q):
        w = real(p, q)
        return w if len(w) < 2 else (w[0], 2 * w[1], *w[2:])

    _patch_both(monkeypatch, "pairing_weights", skewed)
    ok, detail = verify.check_su2_commutators(2)
    assert not ok
    assert "self-adjoint" in detail


def test_suite_detects_a_wrong_square_record_entry(cold_caches, monkeypatch):
    real = operators._generator_square

    def perturbed(p, q):
        diag, lower, upper, l_squared = real(p, q)
        if not upper:
            return diag, lower, upper, l_squared
        return diag, lower, (upper[0] + Fraction(1, 7), *upper[1:]), l_squared

    _patch_both(monkeypatch, "_generator_square", perturbed)
    ok, detail = verify.check_casimir(2)
    assert not ok
    assert "square record" in detail

"""Independent reference answers and output parsers for the correctness gate.

Nothing here imports rotorspec: every expected value is computed from the
generated inputs with textbook formulas, so the program is never graded by
its own code.  Every check returns None on success and a one-line reason on
failure.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import numpy as np

REL_TOL = 1e-10
# Oracle eigenvalues closer than this (relative) are one degenerate level.
DEGENERATE_GAP = 1e-12
# Distinct levels must be at least this far apart (relative) for a body to be
# used, so the program's tolerance-based grouping (1e-9) is unambiguous.
MIN_LEVEL_GAP = 1e-7


# --- reference physics ----------------------------------------------------------


def principal_momenta(masses, positions) -> np.ndarray:
    """Sorted eigenvalues of the inertia tensor about the center of mass."""
    m = np.asarray(masses, dtype=float)
    r = np.asarray(positions, dtype=float)
    rel = r - (m @ r) / m.sum()
    tensor = np.zeros((3, 3))
    for mi, ri in zip(m, rel):
        tensor += mi * (ri @ ri * np.eye(3) - np.outer(ri, ri))
    return np.linalg.eigvalsh(tensor)


def asymmetric_levels(two_j: int, i1, i2, i3, hbar0=1.0) -> np.ndarray:
    """Rigid-rotor levels of spin j = two_j/2 from ladder matrices in |j, m>.

    H = (hbar0/2) (Jx^2/I1 + Jy^2/I2 + Jz^2/I3); returns 2j+1 eigenvalues.
    """
    j = two_j / 2.0
    m = np.arange(two_j + 1) - j
    jplus = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    jx = (jplus + jplus.T) / 2.0
    jy_im = (jplus - jplus.T) / 2.0  # Jy = jy_im / i, so Jy^2 = -jy_im^2
    ham = (float(hbar0) / 2.0) * (
        jx @ jx / float(i1) - jy_im @ jy_im / float(i2) + np.diag(m * m) / float(i3)
    )
    return np.linalg.eigvalsh(ham)


def levels_well_separated(momenta, j_max2: int) -> bool:
    """Whether every pair of distinct oracle levels up to 2j = j_max2 is
    separated by more than MIN_LEVEL_GAP (relative)."""
    for two_j in range(j_max2 + 1):
        vals = asymmetric_levels(two_j, *momenta)
        scale = max(abs(vals).max(), 1e-300)
        gaps = np.diff(vals) / scale
        if np.any((gaps > DEGENERATE_GAP) & (gaps < MIN_LEVEL_GAP)):
            return False
    return True


def low_j_exact_levels(two_j: int, i1, i2, i3, hbar0=1) -> list[Fraction]:
    """The rational closed-form levels at j <= 1 (exact for rational input)."""
    a, b, c = (Fraction(hbar0) / (2 * Fraction(x)) for x in (i1, i2, i3))
    if two_j == 0:
        return [Fraction(0)]
    if two_j == 1:
        return [(a + b + c) / 4]
    if two_j == 2:
        return sorted([a + b, a + c, b + c])
    raise ValueError("closed forms are only listed for j <= 1")


def split_field(masses, charges, positions, e_vec, b_vec, probe):
    """Center / rotational / mixed split of a uniform field on the rigid
    body, from F(v, w) = -2 (v0 E.w - w0 E.v) + 2 B.(v x w).

    Returns (cen, rot, mixed, scale) with scale the sum of the absolute
    per-particle contributions, which sets the comparison tolerance.
    """
    m = np.asarray(masses, dtype=float)
    q = np.asarray(charges, dtype=float)
    r = np.asarray(positions, dtype=float)
    e = np.asarray(e_vec, dtype=float)
    b = np.asarray(b_vec, dtype=float)
    v_cen, omega = np.asarray(probe["v_cen"], float), np.asarray(probe["omega"], float)
    w_cen, psi = np.asarray(probe["w_cen"], float), np.asarray(probe["psi"], float)
    v0, w0 = float(probe["v0"]), float(probe["w0"])

    def form(t0, v, s0, w):
        return -2.0 * (t0 * e.dot(w) - s0 * e.dot(v)) + 2.0 * b.dot(np.cross(v, w))

    total = m.sum()
    rel = r - (m @ r) / total
    parts = np.zeros(3)
    scale = 0.0
    for qi, ri in zip(q, rel):
        wt = qi / total
        v_rot, w_rot = np.cross(omega, ri), np.cross(psi, ri)
        terms = (
            wt * form(v0, v_cen, w0, w_cen),
            wt * form(0.0, v_rot, 0.0, w_rot),
            wt * (form(v0, v_cen, 0.0, w_rot) + form(0.0, v_rot, w0, w_cen)),
        )
        parts += terms
        scale += sum(abs(t) for t in terms)
    return parts[0], parts[1], parts[2], scale


# --- output parsers -------------------------------------------------------------
#
# A parsed spectrum is a list of (bundle, j, l, energy, multiplicity) tuples,
# with j and l Fractions (l None when the line carries no l label) and energy
# a Fraction when the program reported it exactly.


def _energy(value):
    # the JSON form writes exact energies as "p/q" strings, floats as numbers
    return Fraction(value) if isinstance(value, str) else float(value)


def parse_spectrum(text: str, fmt: str) -> list[tuple]:
    """Parse `rotorspec spectrum` output in table, csv or json form."""
    if fmt == "json":
        doc = json.loads(text)
        return [
            (
                ln["bundle"],
                Fraction(ln["j"]),
                None if ln["l"] is None else Fraction(ln["l"]),
                _energy(ln["energy"]),
                int(ln["multiplicity"]),
            )
            for spec in doc["spectra"]
            for ln in spec["lines"]
        ]
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return [
            (
                r["bundle"],
                Fraction(r["j"]),
                Fraction(r["l"]) if r["l"] else None,
                float(r["energy"]),
                int(r["multiplicity"]),
            )
            for r in rows
        ]
    lines = text.strip().splitlines()
    if not lines or lines[0].split() != ["bundle", "j", "l", "energy", "multiplicity", "source"]:
        raise ValueError("table header missing")
    out = []
    for row in lines[1:]:
        tok = row.split()
        if len(tok) == 5:
            bundle, j, energy, mult, _ = tok
            l_val = None
        elif len(tok) == 6:
            bundle, j, l_str, energy, mult, _ = tok
            l_val = Fraction(l_str)
        else:
            raise ValueError(f"unparseable table row {row!r}")
        out.append((bundle, Fraction(j), l_val, float(energy), int(mult)))
    return out


def parse_rows(text: str) -> dict[str, str]:
    """Parse the 'name  value' rows printed by classify and em-split."""
    out = {}
    for row in text.strip().splitlines():
        name, _, value = row.partition("  ")
        out[name.strip()] = value.strip()
    return out


def spectrum_from_library(spec) -> list[tuple]:
    """The same tuples from a library Spectrum object."""
    return [
        (ln.bundle.value, Fraction(ln.j), ln.l, ln.energy, ln.multiplicity)
        for ln in spec.lines
    ]


def perturb_last_energy(lines: list[tuple]) -> list[tuple]:
    """A deliberately wrong answer: the last line's energy off by 1e-6."""
    *head, (bundle, j, l, energy, mult) = lines
    return head + [(bundle, j, l, float(energy) * (1 + 1e-6) + 1e-6, mult)]


# --- checks ---------------------------------------------------------------------


def close(a, b, tol=REL_TOL, scale=0.0) -> bool:
    a, b = float(a), float(b)
    return abs(a - b) <= tol * max(abs(a), abs(b)) + tol * 1e-2 * scale


def _bundle_of(j: Fraction) -> str:
    return "trivial" if j.denominator == 1 else "nontrivial"


def check_asymmetric(lines, momenta, two_js, hbar0=1) -> str | None:
    """Lines of an asymmetric-top spectrum against the ladder oracle.

    For each 2j in two_js: total multiplicity (2j+1)^2, every level within
    REL_TOL of the oracle, and exact energies at j <= 1 equal to the
    rational closed forms.
    """
    by_j: dict[Fraction, list[tuple]] = {}
    for ln in lines:
        by_j.setdefault(ln[1], []).append(ln)
    if set(by_j) != {Fraction(t, 2) for t in two_js}:
        return f"j values {sorted(by_j)} != expected {[Fraction(t, 2) for t in two_js]}"
    for two_j in two_js:
        j = Fraction(two_j, 2)
        group = by_j[j]
        if any(ln[0] != _bundle_of(j) for ln in group):
            return f"j={j}: wrong bundle label"
        dim = two_j + 1
        if sum(ln[4] for ln in group) != dim * dim:
            return f"j={j}: total multiplicity {sum(ln[4] for ln in group)} != {dim * dim}"
        got = sorted(float(ln[3]) for ln in group for _ in range(ln[4]))
        want = sorted(float(v) for v in asymmetric_levels(two_j, *momenta, hbar0) for _ in range(dim))
        for g, w in zip(got, want):
            if not close(g, w, scale=max(abs(want[-1]), 1.0)):
                return f"j={j}: level {g!r} != oracle {w!r}"
        if two_j <= 2 and all(isinstance(x, Fraction) for x in (*momenta, Fraction(hbar0))):
            exact = set(low_j_exact_levels(two_j, *momenta, hbar0))
            for ln in group:
                if isinstance(ln[3], Fraction) and ln[3] not in exact:
                    return f"j={j}: exact energy {ln[3]} is not a closed-form level"
    return None


def closed_form_lines(kind, momenta, j_max: int, hbar0=1.0, nu=0.0, q_norm=0.0):
    """Expected (bundle, j, l, energy, multiplicity) lines of a closed form.

    momenta: (I,) for spherical and degenerate, (I_pair, I_axis) for
    symmetric and monopole.
    """
    h = float(hbar0)
    out = []
    if kind == "degenerate":
        (i_mom,) = momenta
        for ell in range(j_max + 1):
            out.append(("trivial", Fraction(ell), None, h / (2 * i_mom) * ell * (ell + 1), 2 * ell + 1))
        return out
    for two_j in range(2 * j_max + 1):
        j = Fraction(two_j, 2)
        jj = float(j * (j + 1))
        bundle = _bundle_of(j)
        if kind == "spherical":
            (i_mom,) = momenta
            out.append((bundle, j, None, h / (2 * i_mom) * jj, (two_j + 1) ** 2))
            continue
        i_pair, i_axis = momenta
        for two_l in range(-two_j, two_j + 1, 2):
            l = Fraction(two_l, 2)
            base = h / (2 * i_pair) * jj + h / 2 * (1 / i_axis - 1 / i_pair) * float(l * l)
            if kind == "symmetric":
                if l < 0:
                    continue
                mult = (two_j + 1) * (1 if l == 0 else 2)
                out.append((bundle, j, l, base, mult))
            else:  # monopole: signed l, the linear term splits +-l
                e = base - nu * q_norm / i_axis * float(l) + (nu * q_norm) ** 2 / (2 * i_axis * h)
                out.append((bundle, j, l, e, two_j + 1))
    return out


def check_lines(got, want) -> str | None:
    """Compare parsed lines with expected lines keyed by (bundle, j, l)."""
    scale = max((abs(float(w[3])) for w in want), default=1.0)
    got_map = {(g[0], g[1], g[2]): g for g in got}
    if len(got_map) != len(got):
        return "duplicate (bundle, j, l) lines"
    want_map = {(w[0], w[1], w[2]): w for w in want}
    if set(got_map) != set(want_map):
        missing = sorted(set(want_map) - set(got_map), key=str)[:3]
        extra = sorted(set(got_map) - set(want_map), key=str)[:3]
        return f"line labels differ: missing {missing}, unexpected {extra}"
    for key, w in want_map.items():
        g = got_map[key]
        if g[4] != w[4]:
            return f"{key}: multiplicity {g[4]} != {w[4]}"
        if not close(g[3], w[3], scale=scale):
            return f"{key}: energy {g[3]!r} != formula {w[3]!r}"
    return None


def check_verify_output(text: str, n_checks: int) -> str | None:
    """`rotorspec verify` output: n_checks PASS lines, no FAIL, OK summary."""
    rows = text.strip().splitlines()
    passed = [r for r in rows if r.startswith("PASS  ")]
    if len(passed) != n_checks or any(r.startswith("FAIL") for r in rows):
        return f"{len(passed)} PASS lines, expected {n_checks}"
    if not rows[-1].startswith(f"OK  {n_checks}/{n_checks} checks"):
        return f"unexpected summary line {rows[-1]!r}"
    return None

"""CLI surface: schema, exit codes, output formats, JSON round-trip."""

import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rotorspec import (
    BundleKind,
    ParticleSystem,
    PrincipalMomenta,
    SpectralLine,
    Spectrum,
    TopClass,
    admissible_structures,
    asymmetric_spectrum,
    canonicalize,
    cli,
    inertia_tensor,
    principal_momenta,
    scalar_curvature,
    spectra,
    spectrum_for,
    spherical_spectrum,
    symmetric_spectrum,
)
from rotorspec.cli import (
    EXIT_BUNDLE,
    EXIT_GEOMETRY,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
    spectrum_to_dict,
)
from rotorspec.polyalg import hamiltonian_matrix, harmonic_basis, harmonic_basis_r3

DIPOLE = {
    "version": 1,
    "particles": [
        {"mass": 1, "charge": 1, "position": [1, 0, 0]},
        {"mass": 1, "charge": -1, "position": [-1, 0, 0]},
    ],
}

# six unit masses on the axes at distance 1/2: principal momenta all equal 1
OCTAHEDRON_I1 = {
    "version": 1,
    "particles": [
        {"mass": 1, "charge": 0, "position": [0.5, 0, 0]},
        {"mass": 1, "charge": 0, "position": [-0.5, 0, 0]},
        {"mass": 1, "charge": 0, "position": [0, 0.5, 0]},
        {"mass": 1, "charge": 0, "position": [0, -0.5, 0]},
        {"mass": 1, "charge": 0, "position": [0, 0, 0.5]},
        {"mass": 1, "charge": 0, "position": [0, 0, -0.5]},
    ],
}

TRIANGLE = {
    "version": 1,
    "particles": [
        {"mass": 1, "charge": 0, "position": [0, 0, 0]},
        {"mass": 2, "charge": 0, "position": [1.1, 0, 0]},
        {"mass": 3, "charge": 0, "position": [0.3, 1.7, 0]},
    ],
}

# a square of unit masses (a symmetric top), with a constant field and a probe
SQUARE_PROBED = {
    "version": 1,
    "particles": [
        {"mass": 1, "charge": 1, "position": p} for p in ([1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0])
    ],
    "field": {"type": "constant", "E": [0.1, 0, 0.2], "B": [0.4, -0.2, 0.9]},
    "em_probe": {"v_cen": [1, -2, 0.5], "omega": [0.3, 0.8, -0.5], "w_cen": [0.2, 0.3, -0.7], "psi": [-0.6, 0.1, 0.7]},
}


def _write(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_classify_dipole(tmp_path, capsys):
    rc = main(["classify", "--config", _write(tmp_path, DIPOLE)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "degenerate" in out
    assert "trivial" in out and "nontrivial" not in out
    assert "Z" in out


def test_classify_octahedron(tmp_path, capsys):
    rc = main(["classify", "--config", _write(tmp_path, OCTAHEDRON_I1)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "strongly non-degenerate" in out
    assert "spherical" in out
    assert "trivial, nontrivial" in out


def test_classify_triangle_asymmetric(tmp_path, capsys):
    rc = main(["classify", "--config", _write(tmp_path, TRIANGLE)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "weakly non-degenerate" in out
    assert "asymmetric" in out


def test_spectrum_spherical_energies(tmp_path, capsys):
    rc = main(
        [
            "spectrum",
            "--config",
            _write(tmp_path, OCTAHEDRON_I1),
            "--bundle",
            "trivial",
            "--j-max",
            "2",
            "--output",
            "csv",
        ]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    rows = out.strip().splitlines()
    assert rows[0] == "bundle,j,l,energy,multiplicity,source"
    energies = [row.split(",")[3] for row in rows[1:]]
    assert energies == ["0", "1", "3"]


def test_spectrum_auto_both_bundles(tmp_path, capsys):
    rc = main(
        [
            "spectrum",
            "--config",
            _write(tmp_path, OCTAHEDRON_I1),
            "--j-max",
            "1",
            "--output",
            "csv",
        ]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    rows = out.strip().splitlines()
    # header plus j = 0, 1 on the trivial bundle and j = 1/2 on the other
    assert len(rows) == 4
    assert [r.split(",")[1] for r in rows[1:]] == ["0", "1", "1/2"]


def test_spectrum_deterministic_bytes(tmp_path, capsys):
    args = [
        "spectrum",
        "--config",
        _write(tmp_path, TRIANGLE),
        "--j-max",
        "2",
        "--output",
        "csv",
    ]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


def _fresh_python(code):
    """Run code in a fresh interpreter with this checkout's src first on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_only_the_verify_command_imports_the_oracle_suite(tmp_path):
    # a fresh interpreter, since the test session has imported verify already
    path = _write(tmp_path, TRIANGLE)
    code = (
        "import sys, rotorspec.cli as c; "
        f"assert c.main(['spectrum', '--config', {path!r}]) == 0; "
        "assert 'rotorspec.verify' not in sys.modules; "
        "assert c.main(['verify', '--j-max', '1']) == 0; "
        "assert 'rotorspec.verify' in sys.modules"
    )
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr


# what importing the CLI and running one spectrum must not add to sys.modules:
# dataclasses (with inspect, which it imports), the oracle suite, the field
# splitting and the polynomial oracle, its package included
SPECTRUM_UNLOADED = (
    "dataclasses",
    "inspect",
    "rotorspec.verify",
    "rotorspec.classical_em",
    "rotorspec.polyalg",
    "rotorspec.polyalg.spaces",
    "rotorspec.polyalg.operators",
    "rotorspec.polyalg.polynomial",
)


def test_a_spectrum_process_loads_no_dataclasses_and_no_oracle(tmp_path):
    # the modules each step adds in a fresh interpreter, so what site's .pth
    # files import before the first step does not count
    path = _write(tmp_path, TRIANGLE)
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "import rotorspec.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = rotorspec.cli.main(['spectrum', '--config', {path!r}, '--bundle', 'both'])\n"
        "spectrum = set(sys.modules) - before\n"
        "before = set(sys.modules)\n"
        "import rotorspec.verify\n"
        "print(json.dumps([code, sorted(spectrum), sorted(set(sys.modules) - before)]))\n"
    )
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr
    code, spectrum, verify = json.loads(done.stdout)
    assert code == EXIT_OK
    assert "rotorspec.spectra" in spectrum and "rotorspec.verify" in verify
    assert sorted(set(spectrum) & set(SPECTRUM_UNLOADED)) == []
    assert "dataclasses" not in verify


# classify and spectrum jobs that must run with numpy blocked
NUMPY_FREE_RUNS = [
    *(
        [command, *fmt]
        for command in ("classify", "spectrum")
        for fmt in ([], ["--output", "csv"], ["--output", "json"])
    ),
    ["spectrum", "--bundle", "both"],
    ["spectrum", "--k", "1/3", "--hbar", "2/3", "--j-max", "5/2"],
    ["spectrum", "--k", "1/3", "--hbar", "2/3", "--j-max", "5/2", "--bundle", "both", "--output", "json"],
]

# the exact oracle, which classify and spectrum must not load
ORACLE_MODULES = (
    "rotorspec.polyalg.polynomial",
    "rotorspec.polyalg.rational_linalg",
    "rotorspec.polyalg.spaces",
    "rotorspec.polyalg.operators",
    "rotorspec.verify",
)


def _masked(out):
    """verify's output with its timings masked."""
    return re.sub(r" in [0-9.]+ m?s", " in _", out)


def test_classify_and_spectrum_run_without_numpy(tmp_path, capsys):
    # a fresh interpreter with numpy blocked (sys.modules["numpy"] = None
    # makes every import of it fail) prints what this process prints, and
    # loads no oracle module for classify and spectrum; em-split,
    # eigensections and verify then run there too
    monopole = {**SQUARE_PROBED, "field": {"type": "monopole", "nu": "1/2", "q_norm": 1}}
    bodies = {name: _write(tmp_path, doc, f"{name}.json") for name, doc in (
        ("triangle", TRIANGLE), ("square", SQUARE_PROBED), ("collinear", COLLINEAR), ("monopole", monopole))}
    runs = [["spectrum", "--config", bodies["monopole"], "--fixed-point", *fmt] for fmt in ([], ["--output", "json"])]
    for name in ("triangle", "square", "collinear"):
        # a collinear body has no non-trivial bundle
        runs += [[run[0], "--config", bodies[name], *run[1:]] for run in NUMPY_FREE_RUNS if name != "collinear" or "both" not in run]
    oracle_runs = [
        ["em-split", "--config", bodies["square"]],
        ["eigensections", "--config", bodies["triangle"], "--j", "1"],
        ["verify", "--j-max", "1"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import rotorspec.cli as c\n"
        "def run(argv):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = c.main(argv)\n"
        "    return code, buf.getvalue()\n"
        f"out = [run(argv) for argv in {runs!r}]\n"
        f"oracle = sorted(set(sys.modules) & set({ORACLE_MODULES!r}))\n"
        f"print(json.dumps([out, oracle, [run(argv) for argv in {oracle_runs!r}]]))\n"
    )
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr
    blocked, oracle, blocked_oracle_runs = json.loads(done.stdout)
    assert oracle == []
    assert len(blocked) == len(runs) == 27
    for argv, (code, out) in zip(runs + oracle_runs, blocked + blocked_oracle_runs):
        mask = _masked if argv[0] == "verify" else str
        assert main(argv) == code == EXIT_OK, argv
        assert mask(capsys.readouterr().out) == mask(out), argv


def test_importing_the_cli_leaves_numpy_unloaded():
    code = (
        "import sys, rotorspec, rotorspec.cli, rotorspec.verify, rotorspec.classical_em; "
        "assert 'numpy' not in sys.modules, sorted(sys.modules)"
    )
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr


def test_cached_parser_survives_an_argparse_error(tmp_path, capsys):
    symmetric = _write(tmp_path, SQUARE_PROBED, "square.json")
    spectrum = ["spectrum", "--config", symmetric, "--j-max", "4", "--bundle", "both"]
    assert main(spectrum) == EXIT_OK
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "--config", symmetric])
    assert exc.value.code == 2
    assert main(["classify", "--config", symmetric]) == EXIT_OK
    assert main(["em-split", "--config", symmetric]) == EXIT_OK
    capsys.readouterr()
    assert main(spectrum) == EXIT_OK
    assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()


def test_hbar_flag_scales_energies(tmp_path, capsys):
    base = [
        "spectrum",
        "--config",
        _write(tmp_path, OCTAHEDRON_I1),
        "--bundle",
        "trivial",
        "--j-max",
        "1",
        "--output",
        "csv",
    ]
    assert main(base) == EXIT_OK
    e1 = float(capsys.readouterr().out.strip().splitlines()[2].split(",")[3])
    assert main(base + ["--hbar", "2"]) == EXIT_OK
    e2 = float(capsys.readouterr().out.strip().splitlines()[2].split(",")[3])
    assert e2 == pytest.approx(2 * e1)


def test_schema_violations_exit_2(tmp_path, capsys):
    bad = dict(DIPOLE)
    bad["particles"] = [{"mass": 1, "position": [0, 0, 0]}]
    assert main(["classify", "--config", _write(tmp_path, bad)]) == EXIT_SCHEMA
    capsys.readouterr()
    worse = {"version": 2, "particles": DIPOLE["particles"]}
    assert main(["classify", "--config", _write(tmp_path, worse)]) == EXIT_SCHEMA
    capsys.readouterr()
    nonpositive = {
        "version": 1,
        "particles": [
            {"mass": 0, "charge": 0, "position": [0, 0, 0]},
            {"mass": 1, "charge": 0, "position": [1, 0, 0]},
        ],
    }
    assert main(["classify", "--config", _write(tmp_path, nonpositive)]) == EXIT_SCHEMA
    capsys.readouterr()
    assert main(["classify", "--config", str(tmp_path / "missing.json")]) == EXIT_SCHEMA
    capsys.readouterr()


def test_non_finite_numbers_exit_2(tmp_path, capsys):
    # json.load accepts NaN and Infinity; the schema rejects them by field,
    # as well as numbers that overflow a float
    nan, inf = float("nan"), float("inf")
    first, *rest = TRIANGLE["particles"]
    cases = (("mass", nan), ("mass", 10**400), ("charge", inf), ("position", [0, nan, 0]))
    for field, value in cases:
        doc = {"version": 1, "particles": [{**first, field: value}, *rest]}
        assert main(["classify", "--config", _write(tmp_path, doc)]) == EXIT_SCHEMA
        assert f"particles[0].{field}: expected a finite number" in capsys.readouterr().err
    doc = {**TRIANGLE, "hbar": -inf}
    assert main(["classify", "--config", _write(tmp_path, doc)]) == EXIT_SCHEMA
    assert "hbar: expected a finite number" in capsys.readouterr().err


def test_tolerances_must_be_positive_and_finite(tmp_path, capsys):
    path = _write(tmp_path, TRIANGLE)
    # a negative grouping tolerance would split the j = 1 triad into nine
    # multiplicity-1 lines
    for flag, value in (("--tol-spec", "-5"), ("--tol-rel", "0"), ("--tol-rel", "nan"), ("--tol-spec", "inf")):
        assert main(["spectrum", "--config", path, flag, value]) == EXIT_SCHEMA
        assert f"error: {flag}: " in capsys.readouterr().err
    for name in ("rel", "spec"):
        doc = {**TRIANGLE, "tolerances": {name: -1e-9}}
        assert main(["classify", "--config", _write(tmp_path, doc)]) == EXIT_SCHEMA
        assert f"tolerances.{name}: a tolerance must be positive" in capsys.readouterr().err
    # every tolerance is relative: a document's tolerances.abs is ignored,
    # like any unknown key, whatever its value
    for command in ("classify", "spectrum"):
        assert main([command, "--config", _write(tmp_path, TRIANGLE)]) == EXIT_OK
        plain = capsys.readouterr()
        for value in (1e-12, -1, "x"):
            doc = {**TRIANGLE, "tolerances": {"abs": value}}
            assert main([command, "--config", _write(tmp_path, doc)]) == EXIT_OK
            assert capsys.readouterr() == plain


# (flag, value, the same value as a document field)
FLAG_FIELDS = [
    ("--output", "csv", {"output": "csv"}),
    ("--j-max", "5/2", {"j_max": "5/2"}),
    ("--bundle", "trivial", {"bundle": "trivial"}),
    ("--hbar", "2/3", {"hbar": "2/3"}),
    ("--k", "1/3", {"k": "1/3"}),
    ("--tol-rel", "0.5", {"tolerances": {"rel": 0.5}}),
    ("--tol-spec", "0.5", {"tolerances": {"spec": 0.5}}),
]


@pytest.mark.parametrize("flag, value, field", FLAG_FIELDS, ids=[f for f, _, _ in FLAG_FIELDS])
def test_a_flag_is_its_document_field(tmp_path, capsys, flag, value, field):
    # a flag takes the place of its document field before the one
    # validation, so it prints what the field prints, also over a document
    # whose value for that field is invalid
    (key, inner), = field.items()
    invalid = {**TRIANGLE, key: {name: "abc" for name in inner} if isinstance(inner, dict) else "abc"}
    for command in ("classify", "spectrum"):
        assert main([command, "--config", _write(tmp_path, TRIANGLE)]) == EXIT_OK
        plain = capsys.readouterr().out
        assert main([command, "--config", _write(tmp_path, {**TRIANGLE, **field})]) == EXIT_OK
        want = capsys.readouterr().out
        assert command == "classify" or want != plain
        for doc in (TRIANGLE, invalid):
            assert main([command, "--config", _write(tmp_path, doc), flag, value]) == EXIT_OK
            assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--j-max", "abc", "error: --j-max: not a rational literal: 'abc'\n"),
        ("--hbar", "-1", "error: --hbar must be positive\n"),
        ("--hbar", "nan", "error: --hbar: not a rational literal: 'nan'\n"),
        ("--k", "abc", "error: --k: not a rational literal: 'abc'\n"),
        ("--tol-rel", "-5", "error: --tol-rel: a tolerance must be positive, got -5.0\n"),
        ("--tol-spec", "inf", "error: --tol-spec: expected a finite number in the float range\n"),
    ],
)
def test_an_invalid_flag_value_is_named_by_its_flag(tmp_path, capsys, flag, value, message):
    path = _write(tmp_path, TRIANGLE)
    for command in ("classify", "spectrum"):
        assert main([command, "--config", path, flag, value]) == EXIT_SCHEMA
        assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("flag", ["--output", "--bundle", "--tol-rel"])
def test_argparse_rejects_a_flag_value_outside_its_type(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", _write(tmp_path, TRIANGLE), flag, "xml"])
    assert exc.value.code == EXIT_SCHEMA
    assert f"error: argument {flag}: invalid " in capsys.readouterr().err


def test_out_of_range_requests_exit_2(tmp_path, capsys):
    path = _write(tmp_path, TRIANGLE)
    cases = [
        (["spectrum", "--config", path, "--j-max", "30"], "j_max exceeds the hard cap 25"),
        (["spectrum", "--config", path, "--j-max", "7/3"], "j_max must be a nonnegative half-integer"),
        (["spectrum", "--config", path, "--j-max", "-1"], "j_max must be a nonnegative half-integer"),
        (["eigensections", "--config", path, "--j", "1", "--l", "abc"], "Invalid literal for Fraction: 'abc'"),
        (["eigensections", "--config", path, "--j", "30"], "j_max exceeds the hard cap 25"),
        (["spectrum", "--config", _write(tmp_path, DIPOLE, "dipole.json"), "--j-max", "30"], "l_max exceeds the hard cap 25"),
        # a collinear body's cutoff is floor(j_max), so -1/2 is -1, not 0
        (["spectrum", "--config", _write(tmp_path, DIPOLE, "dipole.json"), "--j-max=-1/2"], "l_max must be a nonnegative integer"),
        (["spectrum", "--config", _write(tmp_path, DIPOLE, "dipole.json"), "--j-max", "-0.5"], "l_max must be a nonnegative integer"),
        (["verify", "--j-max", "30"], "j_max exceeds the hard cap 25"),
        (["verify", "--j-max", "-1"], "j_max must be a nonnegative half-integer"),
    ]
    # the same cutoffs as the job's j_max
    for argv, message in cases[:3]:
        doc = {**TRIANGLE, "j_max": argv[-1]}
        cases.append((["spectrum", "--config", _write(tmp_path, doc, f"j_max{len(cases)}.json")], message))
    mono = {**OCTAHEDRON_I1, "field": {"type": "monopole", "nu": 1, "q_norm": -1}}
    cases.append(
        (
            ["spectrum", "--config", _write(tmp_path, mono, "monopole.json"), "--fixed-point"],
            "the center-of-charge norm must be nonnegative",
        )
    )
    for argv, message in cases:
        assert main(argv) == EXIT_SCHEMA, argv
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err, argv
        assert captured.out == "", argv


def test_internal_error_is_not_a_schema_error(tmp_path, capsys, monkeypatch):
    def broken(*_args, **_kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "spectrum_for", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["spectrum", "--config", _write(tmp_path, TRIANGLE)])
    capsys.readouterr()


# three unit masses nearly on a line: the rank rule calls the body weakly
# non-degenerate, and its smallest principal momentum rounds to 0.0
THIN_BODY = Path(__file__).parent / "data" / "thin_body.json"
# unit masses at (1e-200, 0, 0) and the origin: a collinear body whose
# transverse momentum 1e-400 rounds to 0.0
ZERO_MOMENTUM = Path(__file__).parent / "data" / "zero_momentum.json"


@pytest.mark.parametrize(
    "command", [["classify"], ["spectrum"], ["eigensections", "--j", "1"]], ids=["classify", "spectrum", "eigensections"]
)
def test_a_zero_principal_momentum_exits_2(capsys, command):
    name, *rest = command
    for body, momentum in ((THIN_BODY, "i_axis"), (ZERO_MOMENTUM, "i_mom")):
        assert main([name, "--config", str(body), *rest]) == EXIT_SCHEMA
        assert capsys.readouterr() == ("", f"error: {momentum} must be finite and positive, got 0.0\n"), body


# two unit masses at the origin and one at (0, 6.0e-250, 1): the y column of
# the relatives is about 1e-250 of the largest entry, so its Householder
# reflector's v.v / 2 underflows to 0.0 in the rank decision
TINY_COLUMN = Path(__file__).parent / "data" / "tiny_column.json"


def test_a_column_below_the_rounding_takes_the_class_of_a_zero_column(tmp_path, capsys):
    def classes(path):
        assert main(["classify", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        return [ln for ln in out.splitlines() if ln.startswith(("characteristic", "degeneracy class", "top class"))]

    doc = json.loads(TINY_COLUMN.read_text())
    doc["particles"][2]["position"][1] = 0.0
    zero = classes(_write(tmp_path, doc))
    assert classes(TINY_COLUMN) == zero
    assert zero == ["characteristic c_rot  1", "degeneracy class      degenerate", "top class             degenerate"]


# unit masses at (1.7e308, 0, 0) and (0, 1, 0), mass 1e10 at (-1.7e308, 0, 0):
# three distinct particles whose relative x leaves the float range
FAR_APART = Path(__file__).parent / "data" / "far_apart.json"


@pytest.mark.parametrize(
    "command",
    [["classify"], ["spectrum"], ["eigensections", "--j", "1"], ["em-split"]],
    ids=["classify", "spectrum", "eigensections", "em-split"],
)
def test_relatives_beyond_the_float_range_exit_2(capsys, command):
    name, *rest = command
    assert main([name, "--config", str(FAR_APART), *rest]) == EXIT_SCHEMA
    assert capsys.readouterr() == (
        "",
        "error: particles: a relative position is not a finite float (positions too far apart or not finite)\n",
    )


@pytest.mark.parametrize("command", [["classify"], ["spectrum"], ["eigensections", "--j", "1"]], ids=lambda c: c[0])
def test_a_relative_tolerance_of_1_or_more_exits_2(tmp_path, capsys, command):
    # at tol.rel >= 1 no singular value would count, so no rank; the
    # largest float below 1 still counts the largest one (rank 1)
    name, *rest = command
    path = _write(tmp_path, TRIANGLE)
    for flag_value, doc_value in (("1", 1), ("2", 2.5)):
        assert main([name, "--config", path, "--tol-rel", flag_value, *rest]) == EXIT_SCHEMA
        assert capsys.readouterr() == ("", f"error: tolerances.rel must be below 1, got {float(flag_value)!r}\n")
        doc = _write(tmp_path, {**TRIANGLE, "tolerances": {"rel": doc_value}})
        assert main([name, "--config", doc, *rest]) == EXIT_SCHEMA
        assert capsys.readouterr() == ("", f"error: tolerances.rel must be below 1, got {float(doc_value)!r}\n")
    assert main([name, "--config", path, "--tol-rel", repr(math.nextafter(1.0, 0.0)), *rest]) == EXIT_OK
    assert name != "classify" or "top class             degenerate" in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc, top, momenta, closed, name",
    [
        (OCTAHEDRON_I1, TopClass.SYMMETRIC, (0.0, 2.0, 2.0), (2.0, 0.0), "i_axis"),
        (TRIANGLE, TopClass.ASYMMETRIC, (0.0, 1.0, 2.0), (0.0, 1.0, 2.0), "i1"),
        (DIPOLE, TopClass.DEGENERATE, (0.0, 0.0, 2.0), (0.0,), "i_mom"),
    ],
    ids=["symmetric", "asymmetric", "degenerate"],
)
def test_a_check_of_the_library_is_a_schema_error(tmp_path, capsys, monkeypatch, doc, top, momenta, closed, name):
    # whatever the platform's rounding, a zero momentum that reaches the
    # library's checks is reported by them, on every command that builds
    # a spectrum and on both eigensections branches
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    monkeypatch.setattr(cli, "principal_momenta", lambda *_args: PrincipalMomenta(momenta, axes, top, closed))
    path = _write(tmp_path, doc)
    for argv in (["spectrum", "--config", path], ["eigensections", "--config", path, "--j", "1"]):
        assert main(argv) == EXIT_SCHEMA, argv
        assert capsys.readouterr() == ("", f"error: {name} must be finite and positive, got 0.0\n"), argv


def test_an_internal_value_error_of_the_library_is_not_a_schema_error(tmp_path, capsys, monkeypatch):
    # only a ValueError of the library's range checks maps to exit 2; one
    # raised deeper inside spectrum_for still propagates
    def broken(*_args, **_kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(spectra, "band_record", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["spectrum", "--config", _write(tmp_path, TRIANGLE)])
    capsys.readouterr()


def test_huge_hbar_or_k_exit_2(tmp_path, capsys):
    # an hbar that takes an entry of S_d or a level past the float range is
    # rejected by name; k rho is added to finite levels, so k up to 1e308
    # still works on this body, as does hbar = 1e306 (the 1e300 outputs are
    # pinned in tests/golden)
    path = _write(tmp_path, TRIANGLE)
    for field, value, code in (
        ("hbar", 1e300, EXIT_OK),
        ("hbar", 1e306, EXIT_OK),
        ("hbar", 1e307, EXIT_SCHEMA),
        ("hbar", 1e308, EXIT_SCHEMA),
        ("k", 1e300, EXIT_OK),
        ("k", 1e306, EXIT_OK),
        ("k", 1e307, EXIT_OK),
        ("k", 1e308, EXIT_OK),
    ):
        doc = {**TRIANGLE, field: value}
        for argv in (
            ["spectrum", "--config", path, f"--{field}", repr(value), "--output", "csv"],
            ["spectrum", "--config", _write(tmp_path, doc, f"{field}.json"), "--output", "csv"],
        ):
            assert main(argv) == code, argv
            captured = capsys.readouterr()
            if code == EXIT_OK:
                energies = [float(row.split(",")[3]) for row in captured.out.splitlines()[1:]]
                assert energies and all(math.isfinite(e) for e in energies), argv
            else:
                assert "error: hbar or k too large" in captured.err, argv
                assert captured.out == "", argv


def _scaled_triangle(scale):
    """TRIANGLE with every coordinate times scale, and an em_probe block."""
    particles = [{**pt, "position": [scale * x for x in pt["position"]]} for pt in TRIANGLE["particles"]]
    probe = {"v_cen": [1, 0, 0], "omega": [0, 1, 0], "w_cen": [0, 1, 0], "psi": [0.5, 0, 0.2]}
    return {**TRIANGLE, "particles": particles, "em_probe": probe}


@pytest.mark.parametrize(
    "command", [["classify"], ["spectrum"], ["eigensections", "--j", "1"], ["em-split"]],
    ids=["classify", "spectrum", "eigensections", "em-split"],
)
def test_huge_positions_exit_2(tmp_path, capsys, command):
    # finite coordinates whose inertia tensor overflows are a schema error
    # naming the particles; at 1e150 the tensor is still finite
    name, *rest = command
    huge = _write(tmp_path, _scaled_triangle(1e200), "huge.json")
    assert main([name, "--config", huge, *rest]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert "error: particles: the inertia tensor leaves the float range" in captured.err
    assert captured.out == ""
    large = _write(tmp_path, _scaled_triangle(1e150), "large.json")
    assert main([name, "--config", large, *rest]) == EXIT_OK
    assert capsys.readouterr().out


def test_curvature_shift_of_a_large_body(tmp_path, capsys):
    # TRIANGLE at 1e150 has momenta near 1e300, whose squares overflow: its
    # curvature (about 3.7e-301) and every k rho level are still finite
    large = _write(tmp_path, _scaled_triangle(1e150), "large.json")
    assert main(["classify", "--config", large]) == EXIT_OK
    row = next(r for r in capsys.readouterr().out.splitlines() if r.startswith("scalar curvature"))
    rho = float(row.split()[-1])
    assert 3e-301 < rho < 4e-301
    for bundle in ("both", "trivial"):
        argv = ["spectrum", "--config", large, "--k", "0.25", "--bundle", bundle, "--output", "csv"]
        assert main(argv) == EXIT_OK, argv
        energies = [float(r.split(",")[3]) for r in capsys.readouterr().out.splitlines()[1:]]
        assert energies and all(0 < e < 1e-290 for e in energies), argv
    large = asymmetric_spectrum(1e300, 2e300, 3.5e300, BundleKind.PLUS, k=0.25, j_max=1)
    unit = asymmetric_spectrum(1.0, 2.0, 3.5, BundleKind.PLUS, k=0.25, j_max=1)
    assert [ln.energy * 1e300 for ln in large.lines] == pytest.approx([ln.energy for ln in unit.lines], rel=1e-13)


SQUARE = {
    "version": 1,
    "particles": [
        {"mass": 1, "charge": 0, "position": p}
        for p in ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])
    ],
}


@pytest.mark.parametrize(
    "doc, extra",
    [
        (OCTAHEDRON_I1, []),
        (SQUARE, []),
        (DIPOLE, []),
        ({**OCTAHEDRON_I1, "field": {"type": "monopole", "nu": 1, "q_norm": "1/2"}}, ["--fixed-point"]),
    ],
    ids=["spherical", "symmetric", "degenerate", "monopole"],
)
def test_closed_form_overflow_exit_2(tmp_path, capsys, doc, extra):
    # an energy that leaves the float range is rejected like the asymmetric
    # route's overflow, in every output format; k rho grows with hbar, so
    # --k 1e308 --hbar 4 overflows the shift on every body
    path = _write(tmp_path, doc)
    for overflow in (["--hbar", "1e308"], ["--k", "1e308", "--hbar", "4"]):
        for fmt in ("table", "csv", "json"):
            argv = ["spectrum", "--config", path, "--bundle", "trivial", "--output", fmt, *extra, *overflow]
            assert main(argv) == EXIT_SCHEMA, argv
            captured = capsys.readouterr()
            assert "error: hbar or k too large" in captured.err, argv
            assert captured.out == "", argv
    # k rho = 1e308 * rho is still a float for these bodies: printed as is
    argv = ["spectrum", "--config", path, "--bundle", "trivial", "--output", "json", *extra, "--k", "1e308"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "Infinity" not in out and "NaN" not in out
    json.loads(out)


@pytest.mark.parametrize(
    "doc, rho",
    [(TRIANGLE, 3.68776889982e306), (OCTAHEDRON_I1, 1.5e307), (SQUARE, 5e306), (DIPOLE, 1e307)],
    ids=["asymmetric", "spherical", "symmetric", "degenerate"],
)
def test_classify_curvature_beyond_the_float_range_exit_2(tmp_path, capsys, doc, rho):
    # at hbar 1e308 an intermediate of rho leaves the float range (3 hbar is
    # inf for a document float, and an exact --hbar overflows its
    # Fraction-over-float division), but rho itself, ten times its value
    # at hbar 1e307, does not: classify prints it formed exactly and
    # rounded once, while the spectrum's levels leave the float range
    path = _write(tmp_path, doc)
    assert main(["spectrum", "--config", path, "--hbar", "1e308", "--k", "1"]) == EXIT_SCHEMA
    error = capsys.readouterr().err
    assert error == "error: hbar or k too large: the float Hamiltonian leaves the float range\n"
    for hbar, want in (("1e307", rho), ("1e308", 10 * rho)):
        for config in (["--config", path, "--hbar", hbar], ["--config", _write(tmp_path, {**doc, "hbar": float(hbar)}, "hbar.json")]):
            assert main(["classify", *config]) == EXIT_OK, config
            row = next(r for r in capsys.readouterr().out.splitlines() if r.startswith("scalar curvature"))
            assert row.split()[-1] == format(want, ".12g"), config
    # rho = 3 hbar / 2 = 2.55e308 of the octahedron at hbar 1.7e308 leaves
    # it: classify rejects it with the error spectrum prints, before any row
    octahedron = _write(tmp_path, OCTAHEDRON_I1, "octahedron.json")
    for config in (["--config", octahedron, "--hbar", "1.7e308"], ["--config", _write(tmp_path, {**OCTAHEDRON_I1, "hbar": 1.7e308}, "hbar.json")]):
        assert main(["classify", *config]) == EXIT_SCHEMA, config
        assert capsys.readouterr() == ("", error), config


COLLINEAR = {
    "version": 1,
    "particles": [
        {"mass": 1, "charge": 0, "position": [0, 0, -1]},
        {"mass": 2, "charge": 0, "position": [0, 0, 0.5]},
        {"mass": 1.5, "charge": 0, "position": [0, 0, 2]},
    ],
}


@pytest.mark.parametrize("doc", [DIPOLE, COLLINEAR], ids=["dipole", "collinear"])
def test_collinear_eigensections_match_the_spectrum(tmp_path, capsys, doc):
    path = _write(tmp_path, doc)
    assert main(["spectrum", "--config", path, "--output", "csv", "--j-max", "3"]) == EXIT_OK
    levels = {
        row.split(",")[1]: (row.split(",")[3], row.split(",")[4])
        for row in capsys.readouterr().out.splitlines()[1:]
    }
    for ell in range(4):
        assert main(["eigensections", "--config", path, "--j", str(ell)]) == EXIT_OK
        header, title, *polys = capsys.readouterr().out.splitlines()
        energy, mult = levels[str(ell)]
        assert header == f"degenerate body: l = {ell}, energy {energy}, multiplicity {mult}"
        assert int(mult) == 2 * ell + 1
        assert title.startswith(f"eigensections: degree-{ell} harmonic")
        basis = harmonic_basis_r3(ell).basis
        assert all(b.is_homogeneous() and b.total_degree() == ell for b in basis)
        assert polys == [f"  [{ell},{idx}] {b}" for idx, b in enumerate(basis)]
        assert len(polys) == 2 * ell + 1


def test_all_coincident_exit_3(tmp_path, capsys):
    doc = {
        "version": 1,
        "particles": [
            {"mass": 1, "charge": 0, "position": [2, 2, 2]},
            {"mass": 3, "charge": 0, "position": [2, 2, 2]},
        ],
    }
    assert main(["classify", "--config", _write(tmp_path, doc)]) == EXIT_GEOMETRY
    capsys.readouterr()


def test_all_coincident_is_decided_without_a_length_scale(tmp_path, capsys):
    # particles entered at one point far from the origin exit 3, though
    # centering leaves them relatives of rounding size; TRIANGLE shrunk far
    # below any absolute length classifies planar, and moved far from the
    # origin still classifies
    far = [1e6 / 3, 1e6 / 7, 1e6 / 11]
    for masses in ([1, 3], [1, 2, 3]):
        doc = {"version": 1, "particles": [{"mass": m, "charge": 0, "position": far} for m in masses]}
        assert main(["classify", "--config", _write(tmp_path, doc)]) == EXIT_GEOMETRY
    for scale in (1e-13, 1e-150):
        assert main(["classify", "--config", _write(tmp_path, _scaled_triangle(scale))]) == EXIT_OK
        assert "weakly non-degenerate" in capsys.readouterr().out
    moved = [{**pt, "position": [x + 1e10 for x in pt["position"]]} for pt in TRIANGLE["particles"]]
    assert main(["classify", "--config", _write(tmp_path, {**TRIANGLE, "particles": moved})]) == EXIT_OK
    capsys.readouterr()


def test_nontrivial_on_degenerate_exit_4(tmp_path, capsys):
    rc = main(
        ["spectrum", "--config", _write(tmp_path, DIPOLE), "--bundle", "nontrivial"]
    )
    assert rc == EXIT_BUNDLE
    capsys.readouterr()


def test_monopole_requires_fixed_point(tmp_path, capsys):
    doc = dict(OCTAHEDRON_I1)
    doc["field"] = {"type": "monopole", "nu": 1, "q_norm": "1/2"}
    path = _write(tmp_path, doc)
    assert main(["spectrum", "--config", path, "--j-max", "1"]) == EXIT_BUNDLE
    capsys.readouterr()
    rc = main(["spectrum", "--config", path, "--j-max", "1", "--fixed-point", "--output", "csv"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "1/2" in out  # half-integer branch emitted as well


@pytest.mark.parametrize("doc", [TRIANGLE, DIPOLE], ids=["asymmetric", "degenerate"])
def test_a_monopole_on_a_top_without_its_closed_form_exits_4(tmp_path, capsys, doc):
    # spectrum_for raises the BundleRequestError, and main maps it by type
    mono = {**doc, "field": {"type": "monopole", "nu": 1, "q_norm": 1}}
    top = "asymmetric" if doc is TRIANGLE else "degenerate"
    assert main(["spectrum", "--config", _write(tmp_path, mono), "--fixed-point"]) == EXIT_BUNDLE
    assert capsys.readouterr() == (
        "",
        f"error: the monopole closed form needs a spherical or symmetric top; this body is {top}\n",
    )


def _number(v):
    """A number of a JSON spectrum: a string is an exact Fraction, a JSON
    number a float."""
    return Fraction(v) if isinstance(v, str) else float(v)


def _spectrum_from_dict(doc: dict) -> Spectrum:
    """The Spectrum a spectrum_to_dict document describes."""
    lines = tuple(
        SpectralLine(
            energy=_number(ln["energy"]),
            j=Fraction(ln["j"]),
            l=None if ln["l"] is None else Fraction(ln["l"]),
            multiplicity=int(ln["multiplicity"]),
            bundle=BundleKind(ln["bundle"]),
            source=ln["source"],
            eigensections=None if ln["eigensections"] is None else tuple(map(tuple, ln["eigensections"])),
        )
        for ln in doc["lines"]
    )
    return Spectrum(
        lines=lines,
        kind=doc["kind"],
        bundle=None if doc["bundle"] is None else BundleKind(doc["bundle"]),
        top_class=None if doc["top_class"] is None else TopClass(doc["top_class"]),
        params={name: _number(v) for name, v in doc["params"].items()},
        k=_number(doc["k"]),
        hbar0=_number(doc["hbar0"]),
        j_max=_number(doc["j_max"]),
    )


def test_json_output_round_trips(tmp_path, capsys):
    rc = main(
        [
            "spectrum",
            "--config",
            _write(tmp_path, OCTAHEDRON_I1),
            "--j-max",
            "2",
            "--output",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["version"] == 1
    specs = [_spectrum_from_dict(s) for s in doc["spectra"]]
    assert len(specs) == 2
    for spec in specs:
        again = _spectrum_from_dict(spectrum_to_dict(spec))
        assert again == spec


def test_serializer_exact_round_trip():
    for spec in (
        spherical_spectrum(1, BundleKind.PLUS, j_max=3),
        symmetric_spectrum(2, 1, BundleKind.MINUS, k=1, j_max=2),
        symmetric_spectrum(2.5, 1.25, BundleKind.PLUS, j_max=2),
    ):
        assert _spectrum_from_dict(json.loads(json.dumps(spectrum_to_dict(spec)))) == spec


def test_em_split_command(tmp_path, capsys):
    doc = {
        "version": 1,
        "particles": [
            {"mass": 1, "charge": 2, "position": [1.25, 0, 0]},
            {"mass": 3, "charge": -2, "position": [-1.25 / 3, 0, 0]},
        ],
        "field": {"type": "constant", "E": [0, 0, 0], "B": [0.4, -0.2, 0.9]},
        "em_probe": {
            "v_cen": [1.0, -2.0, 0.5],
            "omega": [0.3, 0.8, -0.5],
            "w_cen": [0.2, 0.3, -0.7],
            "psi": [-0.6, 0.1, 0.7],
            "v0": 0.3,
            "w0": -0.8,
        },
    }
    rc = main(["em-split", "--config", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    lines = dict(
        (ln.split()[0], ln.split()[1]) for ln in out.strip().splitlines() if ln.split()
    )
    assert float(lines["center"]) == pytest.approx(0.0, abs=1e-12)
    assert float(lines["sum"]) == pytest.approx(float(lines["unsplit"]), abs=1e-12)
    # without the probe block the schema is violated
    del doc["em_probe"]
    assert main(["em-split", "--config", _write(tmp_path, doc, "b.json")]) == EXIT_SCHEMA
    capsys.readouterr()


def test_eigensections_command(tmp_path, capsys):
    rc = main(
        [
            "eigensections",
            "--config",
            _write(tmp_path, OCTAHEDRON_I1),
            "--j",
            "1/2",
        ]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "j = 1/2" in out
    assert "z1" in out and "z2" in out
    rc = main(["eigensections", "--config", _write(tmp_path, TRIANGLE), "--j", "1"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "diagonalized" in out
    rc = main(["eigensections", "--config", _write(tmp_path, DIPOLE), "--j", "3/2"])
    assert rc == EXIT_BUNDLE
    capsys.readouterr()


def _random_body(seed, n=4):
    rng = random.Random(seed)
    particles = [
        {"mass": rng.uniform(0.5, 4.0), "charge": 0, "position": [rng.uniform(-2.0, 2.0) for _ in range(3)]}
        for _ in range(n)
    ]
    return {"version": 1, "particles": particles}


COMBINATION = re.compile(r"^  H\^\((\d+),(\d+)\) combination: (.*)$")
TERM = re.compile(r"\((\S+)\)\*B(\d+)")


@pytest.mark.parametrize("doc", [TRIANGLE, _random_body(5), _random_body(11)], ids=["triangle", "random5", "random11"])
def test_eigensections_are_canonical_eigenvectors_of_their_block(tmp_path, capsys, monkeypatch, doc):
    # every printed diagonalized vector x solves A x = E x on the exact band
    # A of its block (the body's float momenta read exactly, shift 0) to
    # 1e-12 of A's largest entry, and its first coefficient is positive;
    # printed here at full precision
    monkeypatch.setattr(cli, "_fmt", lambda x: repr(float(x)))
    config = canonicalize(ParticleSystem(*zip(*((p["mass"], p["charge"], p["position"]) for p in doc["particles"]))))
    momenta = principal_momenta(inertia_tensor(config), config.degeneracy).momenta
    path = _write(tmp_path, doc)
    vectors = 0
    for j in ("0", "1", "2", "3", "1/2", "3/2", "5/2"):
        assert main(["eigensections", "--config", path, "--j", j]) == EXIT_OK
        energy = None
        for row in capsys.readouterr().out.splitlines():
            if row.startswith("j = "):
                assert row.endswith(", diagonalized"), row
                energy = float(row.split("energy ")[1].split(",")[0])
            match = COMBINATION.match(row)
            if not match:
                continue
            p, q = int(match[1]), int(match[2])
            band = hamiltonian_matrix(harmonic_basis(p, q), *momenta)
            n = p + q + 1
            a = np.arange(n - 2)
            dense = np.diag([float(v) for v in band.diag])
            dense[a + 2, a], dense[a, a + 2] = [float(v) for v in band.lower], [float(v) for v in band.upper]
            x = np.zeros(n)
            terms = TERM.findall(match[3])
            for coeff, k in terms:
                x[int(k)] = float(coeff)
            assert float(terms[0][0]) > 0, row
            residual = np.abs(dense @ x - energy * x).max()
            assert residual <= 1e-12 * np.abs(dense).max(), (row, residual)
            vectors += 1
    assert vectors == sum((d + 1) ** 2 for d in range(7))


@pytest.mark.parametrize("options", [[], ["--hbar", "1/3", "--k", "1/2"]], ids=["unit", "hbar_k"])
@pytest.mark.parametrize("j", ["5/2", "3", "7/2", "4"])
def test_eigensections_vectors_lie_in_one_parity_class(tmp_path, capsys, j, options):
    # S_d couples index k only to k +- 2, and Jacobi never rotates an entry
    # that is exactly zero: every printed combination uses basis elements
    # B_k of one parity of k
    assert main(["eigensections", "--config", _write(tmp_path, TRIANGLE), "--j", j, *options]) == EXIT_OK
    matches = [COMBINATION.match(row) for row in capsys.readouterr().out.splitlines()]
    parities = [{int(k) % 2 for _, k in TERM.findall(match[3])} for match in matches if match]
    assert len(parities) == (int(2 * Fraction(j)) + 1) ** 2
    assert all(len(p) == 1 for p in parities), parities


def _rotated(points, w, x, y, z):
    """points turned by the rotation of the quaternion (w, x, y, z) of
    ints, in float arithmetic, so the three momenta of a cube or an
    octahedron come out unequal in their last bits."""
    n = w * w + x * x + y * y + z * z
    rotation = [
        [v / n for v in row]
        for row in (
            (w * w + x * x - y * y - z * z, 2 * (x * y - z * w), 2 * (x * z + y * w)),
            (2 * (x * y + z * w), w * w - x * x + y * y - z * z, 2 * (y * z - x * w)),
            (2 * (x * z - y * w), 2 * (y * z + x * w), w * w - x * x - y * y + z * z),
        )
    ]
    return [[sum(a * b for a, b in zip(row, p)) for row in rotation] for p in points]


def _unit_masses(points):
    return {"version": 1, "particles": [{"mass": 1, "position": p} for p in points]}


CUBE_POINTS = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
AXES_POINTS = [[s * (a == b) for b in range(3)] for a in range(3) for s in (0.5, -0.5)]
CLOSED_MOMENTA_BODIES = {
    # the Jacobi momenta (16 - 2 ulp, 16 - 2 ulp, 16 - 1 ulp): their mean
    # 16 - 1 ulp is not their middle value
    "rotated cube": _unit_masses(_rotated(CUBE_POINTS, 1, 1, 1, 5)),
    # (1 - 1 ulp, 1 - 1 ulp, 1): mean 1.0, middle value 0.9999999999999999
    "rotated octahedron": _unit_masses(_rotated(AXES_POINTS, 1, 1, 2, 3)),
    "bipyramid": _unit_masses([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1.5], [0, 0, -1.5]]),
    "collinear": COLLINEAR,
    "triangle": TRIANGLE,
}


@pytest.mark.parametrize("doc", CLOSED_MOMENTA_BODIES.values(), ids=CLOSED_MOMENTA_BODIES.keys())
def test_cli_and_library_agree_on_closed_momenta(tmp_path, capsys, doc):
    # the CLI's spectrum and curvature are the library's on the closed-form
    # momenta of principal_momenta; a spherical body takes the middle value
    path = _write(tmp_path, doc)
    masses = [p["mass"] for p in doc["particles"]]
    system = ParticleSystem(masses, [0] * len(masses), [p["position"] for p in doc["particles"]])
    config = canonicalize(system)
    pm = principal_momenta(inertia_tensor(config), config.degeneracy)
    bundles = admissible_structures(config.degeneracy).admissible
    want = [spectrum_to_dict(spectrum_for(pm.top_class, pm.closed, b, j_max=3)) for b in bundles]
    assert main(["spectrum", "--config", path, "--j-max", "3", "--output", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["spectra"] == want
    assert main(["classify", "--config", path]) == EXIT_OK
    rows = dict(re.split(r"\s{2,}", line, maxsplit=1) for line in capsys.readouterr().out.splitlines())
    assert rows["scalar curvature"] == cli._fmt(scalar_curvature(pm.top_class, pm.closed))

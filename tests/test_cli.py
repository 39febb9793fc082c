"""CLI surface: schema, exit codes, output formats, JSON round-trip."""

import json

import pytest

from rotorspec import BundleKind, cli, spherical_spectrum, symmetric_spectrum
from rotorspec.cli import (
    EXIT_BUNDLE,
    EXIT_GEOMETRY,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
    spectrum_from_dict,
    spectrum_to_dict,
)
from rotorspec.polyalg import harmonic_basis_r3

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
    for name in ("rel", "abs", "spec"):
        doc = {**TRIANGLE, "tolerances": {name: -1e-9}}
        assert main(["classify", "--config", _write(tmp_path, doc)]) == EXIT_SCHEMA
        assert f"tolerances.{name}: a tolerance must be positive" in capsys.readouterr().err


def test_out_of_range_requests_exit_2(tmp_path, capsys):
    path = _write(tmp_path, TRIANGLE)
    cases = [
        (["spectrum", "--config", path, "--j-max", "30"], "j_max exceeds the hard cap 25"),
        (["spectrum", "--config", path, "--j-max", "7/3"], "j_max must be a nonnegative half-integer"),
        (["spectrum", "--config", path, "--j-max", "-1"], "j_max must be a nonnegative half-integer"),
        (["eigensections", "--config", path, "--j", "1", "--l", "abc"], "Invalid literal for Fraction: 'abc'"),
        (["eigensections", "--config", path, "--j", "30"], "j_max exceeds the hard cap 25"),
        (["spectrum", "--config", _write(tmp_path, DIPOLE, "dipole.json"), "--j-max", "30"], "l_max exceeds the hard cap 25"),
        (["verify", "--j-max", "30"], "j_max exceeds the hard cap 25"),
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

    monkeypatch.setattr(cli, "asymmetric_spectrum", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["spectrum", "--config", _write(tmp_path, TRIANGLE)])
    capsys.readouterr()


def test_huge_hbar_or_k_exit_2(tmp_path, capsys):
    # finite values whose float Hamiltonian overflows are rejected by name;
    # 1e300 still works (its output is pinned in tests/golden)
    path = _write(tmp_path, TRIANGLE)
    for field in ("hbar", "k"):
        for value in (1e306, 1e308):
            doc = {**TRIANGLE, field: value}
            for argv in (
                ["spectrum", "--config", path, f"--{field}", repr(value)],
                ["spectrum", "--config", _write(tmp_path, doc, f"{field}.json")],
            ):
                assert main(argv) == EXIT_SCHEMA, argv
                captured = capsys.readouterr()
                assert "error: hbar or k too large" in captured.err, argv
                assert captured.out == "", argv
        assert main(["spectrum", "--config", path, f"--{field}", "1e300"]) == EXIT_OK
        capsys.readouterr()


def _scaled_triangle(scale):
    """TRIANGLE with every coordinate times scale, and an em_probe block."""
    particles = [{**pt, "position": [scale * x for x in pt["position"]]} for pt in TRIANGLE["particles"]]
    probe = {"v_cen": [1, 0, 0], "omega": [0, 1, 0], "w_cen": [0, 1, 0], "psi": [0.5, 0, 0.2]}
    return {**TRIANGLE, "particles": particles, "em_probe": probe}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings at 1e200
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
    specs = [spectrum_from_dict(s) for s in doc["spectra"]]
    assert len(specs) == 2
    for spec in specs:
        again = spectrum_from_dict(spectrum_to_dict(spec))
        assert again == spec


def test_serializer_exact_round_trip():
    for spec in (
        spherical_spectrum(1, BundleKind.PLUS, j_max=3),
        symmetric_spectrum(2, 1, BundleKind.MINUS, k=1, j_max=2),
        symmetric_spectrum(2.5, 1.25, BundleKind.PLUS, j_max=2),
    ):
        assert spectrum_from_dict(json.loads(json.dumps(spectrum_to_dict(spec)))) == spec


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

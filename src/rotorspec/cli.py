"""Command-line surface and the versioned JSON job schema.

Pipeline: canonicalize -> classify -> inertia -> admissible structures ->
spectrum, plus a verification mode running the oracle suite.

Exit codes: 0 ok, 1 verify failure (or an internal error, with a
traceback), 2 schema violation, 3 degenerate geometry (all particles
coincide), 4 invalid bundle request.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache
from numbers import Rational
from typing import NamedTuple

from .defaults import DEFAULT_TOLERANCES, J_MAX_DEFAULT, Tolerances
from .errors import (
    AllCoincidentError,
    BundleRequestError,
    HamiltonianOverflowError,
    NonPositiveMassError,
    OutOfRangeError,
    SchemaError,
)
from .geometry import DegeneracyClass, ParticleSystem, _jacobi_eigh, canonicalize
from .inertia import TopClass, inertia_tensor, principal_momenta, scalar_curvature
from .quantum_structures import (
    BundleKind,
    admissible_structures,
    bundle_of_j,
    degree_of_j,
)
from .spectra import Spectrum, check_closed, check_j_max, spectrum_for

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SCHEMA = 2
EXIT_GEOMETRY = 3
EXIT_BUNDLE = 4


# --- numbers and schema -------------------------------------------------------


def parse_number(value, where: str):
    """Accept JSON numbers and exact rationals written as strings 'p/q'.

    The value must be finite as a float: NaN and infinities (which json.load
    accepts) and numbers beyond the float range are rejected.
    """
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a number")
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: not a rational literal: {value!r}") from exc
    elif not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number or 'p/q' string")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise SchemaError(f"{where}: expected a finite number in the float range")
    return value


def _tolerance(value, where: str) -> float:
    """A tolerance: a positive finite number."""
    value = float(parse_number(value, where))
    if value <= 0:
        raise SchemaError(f"{where}: a tolerance must be positive, got {value!r}")
    return value


def _vec3(value, where: str):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SchemaError(f"{where}: expected a 3-vector")
    return [float(parse_number(x, where)) for x in value]


class JobConfig(NamedTuple):
    particles: list[tuple[float, float, list[float]]]
    hbar0: object = 1
    k: object = 0
    bundle: str = "auto"
    j_max: object = J_MAX_DEFAULT
    field: dict | None = None
    output: str = "table"
    tolerances: Tolerances = DEFAULT_TOLERANCES
    em_probe: dict | None = None


# (flag, document field, argparse options): each flag of the job commands
# stands for one field of the job document and is parsed with it by load_job
JOB_FLAGS = (
    ("--output", "output", {"choices": ["table", "csv", "json"], "help": "output format"}),
    ("--j-max", "j_max", {"help": "half-integer spectrum cutoff"}),
    ("--bundle", "bundle", {"choices": ["auto", "trivial", "nontrivial", "both"]}),
    ("--hbar", "hbar", {"help": "value of hbar0 (number or 'p/q')"}),
    ("--k", "k", {"help": "curvature coupling (number or 'p/q')"}),
    ("--tol-rel", "tolerances.rel", {"type": float, "help": "relative tolerance"}),
    ("--tol-spec", "tolerances.spec", {"type": float, "help": "eigenvalue grouping tolerance"}),
)


def load_job(path: str, overrides: dict = {}) -> JobConfig:
    """The job document at path, validated in one pass after the value of
    each flag given in overrides (None: not given) takes its field's place.
    An error in such a field names the flag."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("config root must be an object")
    names = {}  # document field -> the flag that gave its value
    for flag, field, _ in JOB_FLAGS:
        section, _, key = field.rpartition(".")
        target = doc.setdefault(section, {}) if section else doc
        if overrides.get(flag) is not None and isinstance(target, dict):  # else the section is reported below
            target[key], names[field] = overrides[flag], flag
    name = lambda field: names.get(field, field)
    if doc.get("version", 1) != 1:
        raise SchemaError(f"unsupported schema version {doc.get('version')!r}")
    raw_particles = doc.get("particles")
    if not isinstance(raw_particles, list) or len(raw_particles) < 2:
        raise SchemaError("'particles' must list at least 2 entries")
    particles = []
    for i, entry in enumerate(raw_particles):
        if not isinstance(entry, dict):
            raise SchemaError(f"particles[{i}] must be an object")
        try:
            mass = float(parse_number(entry["mass"], f"particles[{i}].mass"))
            charge = float(parse_number(entry.get("charge", 0), f"particles[{i}].charge"))
            pos = _vec3(entry["position"], f"particles[{i}].position")
        except KeyError as exc:
            raise SchemaError(f"particles[{i}] is missing {exc}") from exc
        particles.append((mass, charge, pos))
    bundle = doc.get("bundle", "auto")
    if bundle not in ("auto", "trivial", "nontrivial", "both"):
        raise SchemaError(f"unknown bundle request {bundle!r}")
    output = doc.get("output", "table")
    if output not in ("table", "csv", "json"):
        raise SchemaError(f"unknown output format {output!r}")
    field = doc.get("field")
    if field is not None:
        if not isinstance(field, dict) or field.get("type") not in (
            "none",
            "constant",
            "monopole",
        ):
            raise SchemaError("'field.type' must be none | constant | monopole")
        if field["type"] == "constant":
            field = {
                "type": "constant",
                "E": _vec3(field.get("E", [0, 0, 0]), "field.E"),
                "B": _vec3(field.get("B", [0, 0, 0]), "field.B"),
            }
        elif field["type"] == "monopole":
            field = {
                "type": "monopole",
                "nu": parse_number(field.get("nu", 0), "field.nu"),
                "q_norm": parse_number(field.get("q_norm", 0), "field.q_norm"),
            }
        else:
            field = {"type": "none"}
    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        raise SchemaError("'tolerances' must be an object")
    tolerances = Tolerances(
        rel=_tolerance(tol_doc.get("rel", DEFAULT_TOLERANCES.rel), name("tolerances.rel")),
        spec=_tolerance(tol_doc.get("spec", DEFAULT_TOLERANCES.spec), name("tolerances.spec")),
    )
    j_max = parse_number(doc.get("j_max", J_MAX_DEFAULT), name("j_max"))
    hbar0 = parse_number(doc.get("hbar", 1), name("hbar"))
    if float(hbar0) <= 0:
        raise SchemaError(f"{name('hbar')} must be positive")
    k = parse_number(doc.get("k", 0), name("k"))
    em_probe = doc.get("em_probe")
    if em_probe is not None and not isinstance(em_probe, dict):
        raise SchemaError("'em_probe' must be an object")
    return JobConfig(particles, hbar0, k, bundle, j_max, field, output, tolerances, em_probe)


# --- spectrum serialization -----------------------------------------------------


def _encode_number(x):
    if isinstance(x, Rational):
        return str(Fraction(x))
    return float(x)


def spectrum_to_dict(spec: Spectrum) -> dict:
    lines = []
    for ln in spec.lines:
        lines.append(
            {
                "energy": _encode_number(ln.energy),
                "j": str(ln.j),
                "l": None if ln.l is None else str(ln.l),
                "multiplicity": ln.multiplicity,
                "bundle": ln.bundle.value,
                "source": ln.source,
                "eigensections": None
                if ln.eigensections is None
                else [list(ref) for ref in ln.eigensections],
            }
        )
    return {
        "kind": spec.kind,
        "bundle": None if spec.bundle is None else spec.bundle.value,
        "top_class": None if spec.top_class is None else spec.top_class.value,
        "params": {name: _encode_number(v) for name, v in spec.params.items()},
        "k": _encode_number(spec.k),
        "hbar0": _encode_number(spec.hbar0),
        "j_max": _encode_number(spec.j_max),
        "lines": lines,
    }


def _fmt(x) -> str:
    return format(float(x), ".12g")


def render_spectra(spectra: list[Spectrum], output: str) -> str:
    if output == "json":
        doc = {"version": 1, "spectra": [spectrum_to_dict(s) for s in spectra]}
        return json.dumps(doc, indent=2, sort_keys=True)
    rows = []
    for spec in spectra:
        for ln in spec.lines:
            rows.append(
                (
                    ln.bundle.value,
                    str(ln.j),
                    "" if ln.l is None else str(ln.l),
                    _fmt(ln.energy),
                    str(ln.multiplicity),
                    ln.source,
                )
            )
    if output == "csv":
        out = ["bundle,j,l,energy,multiplicity,source"]
        out += [",".join(r) for r in rows]
        return "\n".join(out)
    header = ("bundle", "j", "l", "energy", "multiplicity", "source")
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    fmt_row = lambda r: "  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip()
    lines = [fmt_row(header)]
    lines += [fmt_row(r) for r in rows]
    return "\n".join(lines)


# --- pipeline helpers ------------------------------------------------------------


_CLASS_NAMES = {
    1: "degenerate",
    2: "weakly non-degenerate",
    3: "strongly non-degenerate",
}


def _build_body(job: JobConfig):
    system = ParticleSystem(
        masses=[p[0] for p in job.particles],
        charges=[p[1] for p in job.particles],
        positions=[p[2] for p in job.particles],
    )
    config = canonicalize(system, job.tolerances)
    return system, config, principal_momenta(inertia_tensor(config), config.degeneracy, job.tolerances)


_BUNDLE_REQUESTS = {
    "trivial": [BundleKind.PLUS],
    "nontrivial": [BundleKind.MINUS],
    "both": [BundleKind.PLUS, BundleKind.MINUS],
}


def _requested_bundles(job: JobConfig, degeneracy: DegeneracyClass) -> list[BundleKind]:
    admissible = list(admissible_structures(degeneracy).admissible)
    wanted = admissible if job.bundle == "auto" else _BUNDLE_REQUESTS[job.bundle]
    if not set(wanted) <= set(admissible):
        # only the non-trivial bundle is ever missing: over a collinear body
        raise BundleRequestError(
            "the non-trivial bundle does not exist over a degenerate (collinear) body"
        )
    return wanted


def _spectra_for_job(job: JobConfig, config, momenta, fixed_point: bool) -> list[Spectrum]:
    """spectrum_for per requested bundle, after the checks that make a
    request for a bundle or a mode the body lacks a bundle error.  The
    library's own errors propagate: OutOfRangeError from its range checks,
    BundleRequestError for a monopole on a top it does not admit."""
    bundles = _requested_bundles(job, config.degeneracy)
    field = job.field or {"type": "none"}
    monopole = None
    if field["type"] == "monopole":
        if not fixed_point:
            raise BundleRequestError(
                "the monopole spectrum describes a body pinned at the monopole; "
                "only rotational degrees of freedom remain. Re-run with --fixed-point "
                "to acknowledge the reduced mode."
            )
        monopole = (field["nu"], field["q_norm"])
    elif field["type"] == "constant":
        print(
            "note: constant fields enter only the em-split evaluation; "
            "emitting the free spectrum",
            file=sys.stderr,
        )
    return [spectrum_for(momenta.top_class, momenta.closed, b, job.k, job.hbar0, job.j_max, job.tolerances, monopole) for b in bundles]


# --- subcommands -----------------------------------------------------------------


def cmd_classify(job: JobConfig) -> int:
    """Print the body's classification; exit 2 before any row on spectrum's
    error for a closed-form momentum of 0 (check_closed) or a rho beyond the
    float range (OverflowError, as HamiltonianOverflowError)."""
    system, config, momenta = _build_body(job)
    check_closed(momenta.top_class, momenta.closed, job.hbar0)
    structures = admissible_structures(config.degeneracy)
    try:
        rho = scalar_curvature(momenta.top_class, momenta.closed, job.hbar0)
    except OverflowError as exc:
        raise HamiltonianOverflowError() from exc
    rows = [
        ("particles", str(config.n)),
        ("total mass", _fmt(config.total_mass)),
        ("center of mass", " ".join(_fmt(x) for x in config.center)),
        ("characteristic c_rot", str(config.characteristic)),
        ("degeneracy class", _CLASS_NAMES[config.characteristic]),
        ("principal momenta", " ".join(_fmt(x) for x in momenta.momenta)),
        ("top class", momenta.top_class.value),
        ("scalar curvature", _fmt(rho)),
        ("admissible bundles", ", ".join(b.value for b in structures.admissible)),
        ("H^2(S_rot, Z)", structures.h2_integer),
        ("H^2(S_rot, R)", structures.h2_real),
    ]
    if momenta.top_class is TopClass.SYMMETRIC:
        rows.insert(7, ("pair / axis momenta", " / ".join(map(_fmt, momenta.closed))))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")
    return EXIT_OK


def cmd_spectrum(job: JobConfig, fixed_point: bool) -> int:
    _, config, momenta = _build_body(job)
    spectra = _spectra_for_job(job, config, momenta, fixed_point)
    print(render_spectra(spectra, job.output))
    return EXIT_OK


def cmd_eigensections(job: JobConfig, j_str: str, l_str: str | None) -> int:
    # only this command reads harmonic bases and eigenvectors
    from .polyalg.levels import band_record, degree_band, degree_matrix
    from .polyalg.operators import block_vector
    from .polyalg.spaces import harmonic_basis, harmonic_basis_r3

    try:
        j = Fraction(j_str)
        degree_of_j(j)  # rejects j that is not a nonnegative half-integer
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"--j must be a nonnegative half-integer: {exc}") from exc
    try:
        want_l = None if l_str is None else Fraction(l_str)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(str(exc)) from exc
    _, config, momenta = _build_body(job)
    bundle = bundle_of_j(j)
    if config.degeneracy.is_degenerate:
        if bundle is BundleKind.MINUS:
            raise BundleRequestError("half-odd j does not exist over a degenerate body")
        ell = int(j)  # on S^2 the level j is the degree-j harmonics; the job's field plays no part
        (spec,) = _spectra_for_job(job._replace(bundle="trivial", j_max=ell, field=None), config, momenta, False)
        space = harmonic_basis_r3(ell)
        line = spec.lines[-1]
        print(f"degenerate body: l = {j}, energy {_fmt(line.energy)}, multiplicity {line.multiplicity}")
        print(f"eigensections: degree-{ell} harmonic polynomials on R^3 restricted to S^2")
        for idx, poly in enumerate(space.basis):
            print(f"  [{ell},{idx}] {poly}")
        return EXIT_OK
    job_one = job._replace(bundle=bundle.value, j_max=j)
    spectra = _spectra_for_job(job_one, config, momenta, fixed_point=False)
    lines = [
        ln
        for spec in spectra
        for ln in spec.lines
        if ln.j == j and (want_l is None or (ln.l is not None and abs(ln.l) == abs(want_l)))
    ]
    if not lines:
        print(f"no spectral line with j = {j}" + (f", l = {want_l}" if want_l is not None else ""))
        return EXIT_OK
    d = int(2 * j)
    vectors = None  # the eigenvectors of S_d by ascending level, built on first use
    for ln in lines:
        l_part = "" if ln.l is None else f", |l| = {abs(ln.l)}"
        print(f"j = {ln.j}{l_part}: energy {_fmt(ln.energy)}, multiplicity {ln.multiplicity}, {ln.source}")
        if not ln.eigensections:
            continue
        if ln.source == "closed-form":
            for p, q, idx in ln.eigensections:
                poly = harmonic_basis(p, q).basis[idx]
                print(f"  H^({p},{q})[{idx}] {poly}")
        else:
            if vectors is None:
                vals, vecs = _jacobi_eigh(degree_matrix(d, *degree_band(d, band_record(*momenta.momenta, job.hbar0))))
                vectors = [[row[k] for row in vecs] for k in sorted(range(d + 1), key=vals.__getitem__)]
            for p, q, idx in ln.eigensections:
                coeffs = block_vector(p, q, vectors[idx])
                # the canonical sign: the first printed coefficient is positive
                sign = next((1 if c > 0 else -1 for c in coeffs if abs(c) > 1e-12), 1)
                terms = " + ".join(
                    f"({_fmt(sign * c)})*B{k}" for k, c in enumerate(coeffs) if abs(c) > 1e-12
                )
                print(f"  H^({p},{q}) combination: {terms}")
            blocks = sorted({(p, q) for p, q, _ in ln.eigensections})
            for p, q in blocks:
                space = harmonic_basis(p, q)
                for k_idx, poly in enumerate(space.basis):
                    print(f"    H^({p},{q}) B{k_idx} = {poly}")
    return EXIT_OK


def cmd_em_split(job: JobConfig) -> int:
    from .classical_em import PatternField, decoupling_check, split_field, unsplit_field

    field_doc = job.field or {"type": "none"}
    if field_doc["type"] == "monopole":
        raise SchemaError(
            "em-split evaluates constant pattern fields; the monopole flag routes "
            "to the monopole spectrum instead"
        )
    if field_doc["type"] == "constant":
        fld = PatternField.uniform(field_doc["E"], field_doc["B"])
    else:
        fld = PatternField.zero()
    probe = job.em_probe
    if probe is None:
        raise SchemaError("em-split needs an 'em_probe' block (v_cen, omega, w_cen, psi, v0, w0)")
    try:
        v = (_vec3(probe["v_cen"], "em_probe.v_cen"), _vec3(probe["omega"], "em_probe.omega"))
        w = (_vec3(probe["w_cen"], "em_probe.w_cen"), _vec3(probe["psi"], "em_probe.psi"))
        v0 = float(parse_number(probe.get("v0", 0), "em_probe.v0"))
        w0 = float(parse_number(probe.get("w0", 0), "em_probe.w0"))
    except KeyError as exc:
        raise SchemaError(f"em_probe is missing {exc}") from exc
    system, config, _ = _build_body(job)
    parts = split_field(system, config, fld, v, w, v0, w0)
    total = unsplit_field(system, config, fld, v, w, v0, w0)
    decoupled, report = decoupling_check(system, fld, job.tolerances)
    print(f"center     {_fmt(parts.cen)}")
    print(f"rotational {_fmt(parts.rot)}")
    print(f"mixed      {_fmt(parts.mixed)}")
    print(f"sum        {_fmt(parts.total)}")
    print(f"unsplit    {_fmt(total)}")
    print(f"decoupled  {'yes' if decoupled else 'no'} ({report})")
    return EXIT_OK


# --- entry point -----------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to the JSON job document")
    for flag, _, options in JOB_FLAGS:
        sub.add_argument(flag, **options)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The rotorspec argument parser, built once per process: parse_args
    keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="rotorspec",
        description="Quantum rotational spectra of rigid bodies from particle data",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_classify = subs.add_parser("classify", help="degeneracy class, momenta, top class, bundles")
    _add_common(p_classify)

    p_spectrum = subs.add_parser("spectrum", help="rotational spectrum per requested bundle")
    _add_common(p_spectrum)
    p_spectrum.add_argument(
        "--fixed-point",
        action="store_true",
        help="acknowledge the monopole mode: body pinned at the monopole, rotational modes only",
    )

    p_eig = subs.add_parser("eigensections", help="eigensections of a spectral line")
    _add_common(p_eig)
    p_eig.add_argument("--j", required=True, help="half-integer j of the line")
    p_eig.add_argument("--l", help="optional |l| filter")

    p_em = subs.add_parser("em-split", help="split a constant field on the rigid body")
    _add_common(p_em)

    p_verify = subs.add_parser("verify", help="run the oracle verification suite")
    p_verify.add_argument("--j-max", dest="j_max", type=int, default=J_MAX_DEFAULT)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            check_j_max(args.j_max)
            from . import verify  # only this command needs the oracle suite

            return verify.run_suite(j_max=args.j_max)
        job = load_job(args.config, {flag: getattr(args, flag[2:].replace("-", "_")) for flag, _, _ in JOB_FLAGS})
        if args.command == "classify":
            return cmd_classify(job)
        if args.command == "spectrum":
            return cmd_spectrum(job, args.fixed_point)
        if args.command == "eigensections":
            return cmd_eigensections(job, args.j, args.l)
        if args.command == "em-split":
            return cmd_em_split(job)
        raise AssertionError(f"unhandled command {args.command}")
    except (SchemaError, OutOfRangeError, NonPositiveMassError, HamiltonianOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except AllCoincidentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except BundleRequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUNDLE


if __name__ == "__main__":
    sys.exit(main())

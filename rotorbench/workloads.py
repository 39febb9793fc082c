"""The four benchmark workloads: seeded inputs, one request, its gate.

Each request index i gets its own random stream derived from (seed, i), so
the same seed always gives the same inputs.  A workload's `request`
returns the program's raw answer, `parse` turns it into the form the gate
reads (raising on unparseable output) and `check` returns None or the
reason the answer is wrong.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracle
import probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

VERIFY_CHECKS = (
    "su2 commutators",
    "casimir scalars",
    "x3 spectrum",
    "harmonic dimensions",
    "parity selection",
    "j squared spectrum",
    "spherical vs diagonalization",
    "half-integer branch",
    "symmetric vs diagonalization",
    "asymmetric j=1 triad",
    "asymmetric ladder oracle",
    "degenerate sphere levels",
    "scalar curvature oracle",
    "monopole consistency",
    "geometry invariants",
    "field splitting invariants",
    "classification pipeline",
)
J_MAX = 6
FORMATS = ("table", "csv", "json")


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def source_index(i: int) -> int:
    """Every fifth CLI request repeats the job of four requests before, so
    repeated identical jobs can be compared byte for byte."""
    return i - 4 if i % 5 == 4 else i


def _rng(seed: int, i: int) -> random.Random:
    return random.Random(f"rotorbench:{seed}:{i}")


def _asymmetric(momenta) -> bool:
    i1, i2, i3 = sorted(float(x) for x in momenta)
    return (i2 - i1) > 0.02 * i3 and (i3 - i2) > 0.02 * i3 and i1 > 0.01 * i3


class Workload:
    name = ""
    cold = False  # one fresh process per request
    setup_kind = "import"  # probe.setup kind timed as set-up
    cycle = 1  # the timed phase ends on a multiple of this many requests

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._outputs: dict[int, object] = {}

    def same_as_before(self, i: int, output) -> str | None:
        """Compare a repeated job's output with its first run's, keeping only
        the outputs a later request will repeat."""
        k = source_index(i)
        if k != i:
            first = self._outputs.pop(k, output)  # absent if the first run failed
            return None if first == output else "repeated identical job gave different output"
        if source_index(i + 4) == i:
            self._outputs[i] = output
        return None

    def setup(self) -> None:
        """Get the harness ready to send requests (untimed)."""

    def prepare(self, i: int) -> None:
        """Generate request i's inputs ahead of its timed call."""

    def request(self, i: int, traced: bool = False):
        raise NotImplementedError

    def parse(self, i: int, raw):
        return raw

    def check(self, i: int, answer) -> str | None:
        raise NotImplementedError

    @staticmethod
    def corrupt(answer):
        """A deliberately wrong version of a parsed answer."""
        return oracle.perturb_last_energy(answer)

    @staticmethod
    def lines_of(answer):
        """The spectral lines in a parsed answer, or None if it has none."""
        return answer


class ColdCli(Workload):
    """Shared machinery of the one-process-per-request CLI workloads."""

    cold = True

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def request(self, i: int, traced: bool = False):
        argv = self.argv(i)
        if traced:
            spans = self.workdir / f"spans-{i}.jsonl"
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), str(i)] + argv
        else:
            cmd = [sys.executable, "-m", "rotorspec.cli"] + argv
        proc = subprocess.run(cmd, capture_output=True, env=program_env(), cwd=ROOT, timeout=170)
        return proc.returncode, proc.stdout.decode()


class CliCold(ColdCli):
    """`rotorspec spectrum` on a fresh random asymmetric body per request."""

    name = "cli_cold"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._jobs: dict[int, tuple[Path, str, tuple]] = {}

    def job(self, k: int):
        if k not in self._jobs:
            rng = _rng(self.seed, k)
            while True:
                n = rng.randint(3, 8)
                masses = [rng.uniform(0.5, 3.0) for _ in range(n)]
                points = [[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(n)]
                momenta = tuple(oracle.principal_momenta(masses, points))
                if _asymmetric(momenta) and oracle.levels_well_separated(momenta, 2 * J_MAX):
                    break
            fmt = FORMATS[k % len(FORMATS)]
            doc = {
                "version": 1,
                "particles": [{"mass": m, "charge": 0, "position": p} for m, p in zip(masses, points)],
                "bundle": "auto",
                "output": fmt,
            }
            path = self.workdir / f"cli-{k}.json"
            path.write_text(json.dumps(doc))
            self._jobs[k] = (path, fmt, momenta)
        return self._jobs[k]

    def prepare(self, i):
        self.job(source_index(i))

    def argv(self, i):
        return ["spectrum", "--config", str(self.job(source_index(i))[0])]

    def parse(self, i, raw):
        code, text = raw
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        k = source_index(i)
        return k, text, oracle.parse_spectrum(text, self.job(k)[1])

    def check(self, i, answer):
        k, text, lines = answer
        err = oracle.check_asymmetric(lines, self.job(k)[2], range(2 * J_MAX + 1))
        return err or self.same_as_before(i, text)

    @staticmethod
    def corrupt(answer):
        k, text, lines = answer
        return k, text, oracle.perturb_last_energy(lines)

    @staticmethod
    def lines_of(answer):
        return answer[2]


class VerifyCold(ColdCli):
    """`rotorspec verify` at the default j_max in a fresh process."""

    name = "verify_cold"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._first: str | None = None

    def argv(self, i):
        return ["verify"]

    def parse(self, i, raw):
        code, text = raw
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return text

    def check(self, i, text):
        err = oracle.check_verify_output(text, len(VERIFY_CHECKS))
        if err:
            return err
        # every request is the same job; elapsed times ("in 26 ms", "in 6.8 s")
        # are the only bytes that may differ
        text = re.sub(r"in [0-9.]+ m?s\b", "in <t>", text)
        self._first = self._first or text
        return None if text == self._first else "repeated identical job gave different output"

    @staticmethod
    def corrupt(text):
        return text.replace("PASS", "FAIL", 1)

    @staticmethod
    def lines_of(answer):
        return None


class AsymExactWarm(Workload):
    """asymmetric_spectrum on rational momenta in one warm process.

    A request is one momenta triple computed for both bundles in turn, the
    two calls a `bundle: auto` job makes.  Timing the pair rather than each
    call keeps the latency distribution unimodal: a trivial-bundle call
    costs about 1.4 times a non-trivial one, and the median of alternating
    single calls would sit between the two clusters.
    """

    name = "asym_exact_warm"
    setup_kind = "asym"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._momenta: dict[int, tuple[Fraction, Fraction, Fraction]] = {}

    def setup(self):
        probe.setup("asym")
        import rotorspec.spectra
        from rotorspec.quantum_structures import BundleKind

        self._bundles = (BundleKind.PLUS, BundleKind.MINUS)
        self._spectra = rotorspec.spectra

    def prepare(self, i):
        self.momenta(i)

    def momenta(self, i: int) -> tuple[Fraction, Fraction, Fraction]:
        if i not in self._momenta:
            rng = _rng(self.seed, i)
            while True:
                values = set()
                while len(values) < 3:
                    den = rng.randint(1, 12)
                    values.add(Fraction(rng.randint(den, 8 * den), den))
                momenta = tuple(rng.sample(sorted(values), 3))
                if _asymmetric(momenta) and oracle.levels_well_separated(momenta, 2 * J_MAX):
                    break
            self._momenta[i] = momenta
        return self._momenta[i]

    def request(self, i, traced=False):
        # looked up per call so the traced run goes through the wrapper
        spectrum = self._spectra.asymmetric_spectrum
        return [spectrum(*self.momenta(i), bundle, j_max=J_MAX) for bundle in self._bundles]

    def parse(self, i, raw):
        return [line for spec in raw for line in oracle.spectrum_from_library(spec)]

    def check(self, i, lines):
        return oracle.check_asymmetric(lines, self.momenta(i), range(2 * J_MAX + 1))


class ClosedFormBatch(Workload):
    """classify, spectrum --j-max 25 and em-split on one closed-form body."""

    name = "closed_form_batch"
    setup_kind = "closed"
    # Body k has kind KINDS[k % 5]; slot 4 is never a source, because request
    # 5m+4 repeats body 5m (source_index), so every five requests are two
    # symmetric bodies and one of each other kind.  The median request then
    # falls inside the symmetric cluster rather than between two kinds.
    KINDS = ("symmetric", "degenerate", "spherical", "monopole")
    cycle = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._bodies: dict[int, dict] = {}

    def setup(self):
        probe.setup("closed", probe.write_warmup_jobs(self.workdir))
        import rotorspec.cli

        self._cli = rotorspec.cli

    def prepare(self, i):
        self.body(source_index(i))

    def body(self, k: int) -> dict:
        if k not in self._bodies:
            self._bodies[k] = self._make_body(k)
        return self._bodies[k]

    def _make_body(self, k: int) -> dict:
        rng = _rng(self.seed, k)
        kind = self.KINDS[k % 5]
        if kind == "spherical":
            if rng.random() < 0.5:
                points = [[s * (a == b) for b in range(3)] for a in range(3) for s in (1.0, -1.0)]
            else:
                points = [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
            mass = rng.uniform(0.5, 3.0)
            masses = [mass] * len(points)
        elif kind == "degenerate":
            n = rng.randint(2, 32)
            xs = sorted(rng.uniform(-3.0, 3.0) for _ in range(n))
            points = [[x, 0.0, 0.0] for x in xs]
            masses = [rng.uniform(0.5, 3.0) for _ in range(n)]
        else:
            while True:
                sides = rng.randint(3, 16)
                ring_mass = rng.uniform(0.5, 3.0)
                axial_mass = rng.uniform(0.5, 3.0) * ring_mass
                height = rng.uniform(0.3, 2.0)
                i_axis = sides * ring_mass
                i_pair = sides * ring_mass / 2 + 2 * axial_mass * height**2
                if abs(i_axis / i_pair - 1) > 0.1:
                    break
            points = [[math.cos(2 * math.pi * t / sides), math.sin(2 * math.pi * t / sides), 0.0]
                      for t in range(sides)] + [[0.0, 0.0, height], [0.0, 0.0, -height]]
            masses = [ring_mass] * sides + [axial_mass] * 2
        points = _place(rng, points)
        proportional = rng.random() < 0.5
        ratio = rng.uniform(-2.0, 2.0)
        charges = [ratio * m if proportional else rng.uniform(-1.0, 1.0) for m in masses]
        field = {"type": "constant", "E": _vec(rng), "B": _vec(rng)}
        em_probe = {"v_cen": _vec(rng), "omega": _vec(rng), "w_cen": _vec(rng), "psi": _vec(rng),
                    "v0": rng.uniform(-1.0, 1.0), "w0": rng.uniform(-1.0, 1.0)}
        doc = {
            "version": 1,
            "particles": [{"mass": m, "charge": q, "position": p} for m, q, p in zip(masses, charges, points)],
            "field": field,
            "em_probe": em_probe,
        }
        em_path = self.workdir / f"body-{k}.json"
        em_path.write_text(json.dumps(doc))
        spec_path = em_path
        monopole = None
        if kind == "monopole":
            monopole = (rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            doc = dict(doc, field={"type": "monopole", "nu": monopole[0], "q_norm": monopole[1]})
            spec_path = self.workdir / f"body-{k}-monopole.json"
            spec_path.write_text(json.dumps(doc))
        return {
            "kind": kind, "masses": masses, "charges": charges, "points": points, "field": field,
            "probe": em_probe, "proportional": proportional, "monopole": monopole,
            "spec_path": str(spec_path), "em_path": str(em_path),
        }

    def request(self, i, traced=False):
        body = self.body(source_index(i))
        spectrum = ["spectrum", "--config", body["spec_path"], "--j-max", "25", "--output", "csv"]
        if body["monopole"]:
            spectrum.append("--fixed-point")
        return [
            probe.run_cli(self._cli, argv)
            for argv in (["classify", "--config", body["spec_path"]], spectrum,
                         ["em-split", "--config", body["em_path"]])
        ]

    def parse(self, i, raw):
        codes = [code for code, _ in raw]
        if any(codes):
            raise RuntimeError(f"exit codes {codes}")
        texts = tuple(text for _, text in raw)
        return texts, oracle.parse_rows(texts[0]), oracle.parse_spectrum(texts[1], "csv"), texts[2]

    def check(self, i, answer):
        texts, rows, lines, em_text = answer
        body = self.body(source_index(i))
        kind = body["kind"]
        momenta = sorted(oracle.principal_momenta(body["masses"], body["points"]))
        top = "symmetric" if kind == "monopole" else kind
        if rows.get("top class") != top or rows.get("particles") != str(len(body["masses"])):
            return f"classify: top class {rows.get('top class')!r}, expected {top}"
        printed = [float(x) for x in rows.get("principal momenta", "").split()]
        if len(printed) != 3 or not all(oracle.close(a, b, 1e-9, momenta[2]) for a, b in zip(printed, momenta)):
            return f"classify: principal momenta {printed} != {momenta}"
        if kind == "spherical":
            args = (sum(momenta) / 3,)
        elif kind == "degenerate":
            args = ((momenta[1] + momenta[2]) / 2,)
        elif momenta[1] - momenta[0] < momenta[2] - momenta[1]:
            args = ((momenta[0] + momenta[1]) / 2, momenta[2])
        else:
            args = ((momenta[1] + momenta[2]) / 2, momenta[0])
        nu, q_norm = body["monopole"] or (0.0, 0.0)
        want = oracle.closed_form_lines(kind, args, 25, nu=nu, q_norm=q_norm)
        return oracle.check_lines(lines, want) or self._check_em(body, em_text) or self.same_as_before(i, texts)

    @staticmethod
    def _check_em(body, text) -> str | None:
        rows = dict(line.split(None, 1) for line in text.strip().splitlines())
        cen, rot, mixed, scale = oracle.split_field(
            body["masses"], body["charges"], body["points"],
            body["field"]["E"], body["field"]["B"], body["probe"],
        )
        tol = 1e-9 * max(scale, 1e-300)
        for name, want in (("center", cen), ("rotational", rot), ("mixed", mixed),
                           ("sum", cen + rot + mixed), ("unsplit", cen + rot + mixed)):
            if abs(float(rows[name]) - want) > tol:
                return f"em-split: {name} {rows[name]} != {want!r}"
        if rows["decoupled"].startswith("yes") != body["proportional"]:
            return f"em-split: decoupled {rows['decoupled']!r}, proportional={body['proportional']}"
        return None

    @staticmethod
    def corrupt(answer):
        texts, rows, lines, em_text = answer
        return texts, rows, oracle.perturb_last_energy(lines), em_text

    @staticmethod
    def lines_of(answer):
        return answer[2]


def _vec(rng) -> list[float]:
    return [rng.uniform(-1.0, 1.0) for _ in range(3)]


def _place(rng, points) -> list[list[float]]:
    """Random scale, rotation (unit quaternion) and translation."""
    w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    rot = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]
    scale = rng.uniform(0.5, 2.0)
    shift = [rng.uniform(-5.0, 5.0) for _ in range(3)]
    return [
        [scale * sum(rot[a][b] * p[b] for b in range(3)) + shift[a] for a in range(3)]
        for p in points
    ]


WORKLOADS = {w.name: w for w in (CliCold, AsymExactWarm, ClosedFormBatch, VerifyCold)}

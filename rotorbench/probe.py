"""Set-up of each workload, timed in a fresh interpreter.

    python3 rotorbench/probe.py {import|asym|closed} WORKDIR

prints when set-up ended (time.perf_counter, system-wide on Linux) and the
seconds from before `import rotorspec...` until the first request could be
served.  Only the standard library is imported before the
timer starts, so the figure includes the whole program import (numpy too).
The harness calls `setup` in its own process to get ready for requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from fractions import Fraction

WARMUP_MOMENTA = (Fraction(7, 3), Fraction(11, 4), Fraction(5))

_CUBE = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
# a square with two axial masses: exactly a symmetric top in floating point
_SQUARE = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1.5], [0, 0, -1.5]]
_CHAIN = [[-1.0, 0.0, 0.0], [0.25, 0.0, 0.0], [1.5, 0.0, 0.0]]
_PROBE = {"v_cen": [1, 0, 0], "omega": [0, 0, 1], "w_cen": [0, 1, 0], "psi": [1, 0, 0], "v0": 0, "w0": 0}
_CONSTANT = {"type": "constant", "E": [0, 0, 0.5], "B": [0, 0, 1]}


def _job(points, field):
    return {
        "version": 1,
        "particles": [{"mass": 1, "charge": 0.5, "position": p} for p in points],
        "field": field,
        "em_probe": _PROBE,
    }


def write_warmup_jobs(workdir) -> list[tuple[str, bool]]:
    """Job files for the closed-form warm-up: (path, fixed_point) pairs."""
    docs = [
        (_job(_CUBE, _CONSTANT), False),
        (_job(_SQUARE, _CONSTANT), False),
        (_job(_CHAIN, _CONSTANT), False),
        (_job(_SQUARE, {"type": "monopole", "nu": 0.5, "q_norm": 1.0}), True),
    ]
    out = []
    for k, (doc, fixed) in enumerate(docs):
        path = os.path.join(workdir, f"warmup-{k}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out.append((path, fixed))
    return out


def run_cli(cli, argv) -> tuple[int, str]:
    """One in-process `rotorspec` command with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def setup(kind: str, warmup_jobs=()):
    """Import the program and warm it up for one workload kind."""
    if kind == "import":
        import rotorspec.cli  # noqa: F401

        return
    if kind == "asym":
        from rotorspec.quantum_structures import BundleKind
        from rotorspec.spectra import asymmetric_spectrum

        for bundle in (BundleKind.PLUS, BundleKind.MINUS):
            asymmetric_spectrum(*WARMUP_MOMENTA, bundle, j_max=6)
        return
    if kind == "closed":
        import rotorspec.cli as cli

        for path, fixed in warmup_jobs:
            run_cli(cli, ["classify", "--config", path])
            run_cli(cli, ["spectrum", "--config", path, "--j-max", "25", "--output", "csv"]
                    + (["--fixed-point"] if fixed else []))
            if not fixed:
                run_cli(cli, ["em-split", "--config", path])
        return
    raise ValueError(f"unknown set-up kind {kind!r}")


if __name__ == "__main__":
    kind, workdir = sys.argv[1], sys.argv[2]
    jobs = write_warmup_jobs(workdir) if kind == "closed" else ()
    start = time.perf_counter()
    setup(kind, jobs)
    end = time.perf_counter()
    print(repr(end), repr(end - start))

"""Self-test of the benchmark harness at tiny sizes.

    python3 rotorbench/selftest.py

A wrapper whose target is missing must report its metrics as absent.
For every workload: a two-request untraced run with a deliberately wrong
answer injected into the gate for the first request must report that
request as failed and still print every end-to-end metric; a one- or
two-request traced run must pass and print every per-layer metric.  Last, a
copy of the benchmark without the program must exit non-zero and print no
result.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from workloads import BENCH_DIR, OUT, ROOT, WORKLOADS


def run(args, root=ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(root / BENCH_DIR.name / "run.py"), "--seed", "7", "--seconds", "600", *args],
        capture_output=True, text=True, cwd=root, timeout=600,
    )
    return proc.returncode, proc.stdout


def check_result(stdout: str, metrics: list[dict], attempted: int, failed: int) -> list[str]:
    problems = []
    doc = json.loads(stdout.strip().splitlines()[-1])
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(doc)}")
    if (doc["attempted"], doc["failed"], doc["correct"]) != (attempted, failed, failed == 0):
        problems.append(f"attempted/failed/correct {doc['attempted']}/{doc['failed']}/{doc['correct']}")
    want = {m["name"]: m["unit"] for m in metrics}
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, entry in doc["metrics"].items():
        if not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
            problems.append(f"{name} = {entry['value']!r}")
    return problems


def check_absent_target() -> list[str]:
    """A wrapper whose target no longer exists records nothing and its
    metrics come out absent (None) instead of raising."""
    sys.path.insert(0, str(ROOT / "src"))
    import rotorspec.polyalg.rational_linalg as linalg
    import spans

    saved = linalg.charpoly
    del linalg.charpoly
    try:
        inst = spans.Instrumentation(spans.SpanRecorder())
        inst.install()
        inst.uninstall()
    finally:
        linalg.charpoly = saved
    metrics = spans.layer_metrics([], {}, {}, 1, (), set(inst.absent))
    problems = []
    if inst.absent != ["polyalg.charpoly"]:
        problems.append(f"absent targets {inst.absent}, expected ['polyalg.charpoly']")
    if metrics["polyalg.charpoly.calls"] is not None or metrics["polyalg.hamiltonian_matrix.calls"] is None:
        problems.append("absent target not reported as absent")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    failures = check_absent_target()
    print(f"{'ok  ' if not failures else 'FAIL'} absent wrapper target" + "".join(f"\n     {p}" for p in failures))
    for name, cls in WORKLOADS.items():
        code, out = run(["--workload", name, "--trace", "0", "--requests", "2", "--inject-wrong"])
        problems = [f"exit code {code}"] if code else check_result(out, contract["end_to_end"], 2, 1)
        if not problems:
            doc = json.loads(out.strip().splitlines()[-1])
            problems = [f"{k} = {v['value']} is not positive" for k, v in doc["metrics"].items() if v["value"] <= 0]
        n = 1 if cls.cold else 2
        code, out = run(["--workload", name, "--trace", "1", "--requests", str(n)])
        problems += [f"traced: exit code {code}"] if code else [
            "traced: " + p for p in check_result(out, contract["per_layer"], 2 * n, 0)
        ]
        print(f"{'ok  ' if not problems else 'FAIL'} {name}" + "".join(f"\n     {p}" for p in problems))
        failures += problems

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = run(["--workload", "cli_cold", "--trace", "0"], root=bare)
    shutil.rmtree(bare, ignore_errors=True)
    bare_ok = code != 0 and not out.strip()
    print(f"{'ok  ' if bare_ok else 'FAIL'} without the program: exit code {code}, output {out.strip()[:80]!r}")
    if not bare_ok:
        failures.append("bare directory")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

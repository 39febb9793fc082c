"""rotorspec benchmark: one seeded workload per run, closed loop, one client.

    python3 rotorbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rotorbench/run.py --workload all --seconds S     # every workload

Run from a checkout with the program in ./src.  Every request is checked
against an independent oracle; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  End-to-end times are
scaled to a reference host speed (see speed.py); the raw times are printed
beside them and kept in the full results.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from a
separate traced run (an untraced half, then the same requests traced).
Full results, with the environment, go to rotorbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads
from workloads import BENCH_DIR, OUT, ROOT, SRC, WORKLOADS

SETUP_REPEATS = {"import": 9, "closed": 7, "asym": 3}
SETUP_PERIOD_S = 0.02  # an import takes 0.1-0.2 s, so sample it more often


# --- measurement ----------------------------------------------------------------


class Phase:
    """Outcome of a run of requests: latencies (s), failures, answers."""

    def __init__(self):
        self.latencies: list[float] = []
        self.windows: list[tuple[float, float]] = []  # perf_counter start, end
        self.factors: list[float] = []  # host-speed factor of each request
        self.errors: list[tuple[int, str]] = []
        self.exact_lines = 0
        self.lines = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def scaled(self) -> list[float]:
        """Latencies at the reference host speed."""
        return [t * f for t, f in zip(self.latencies, self.factors)]

    def timed(self, t0: float, t1: float) -> None:
        self.latencies.append(t1 - t0)
        self.windows.append((t0, t1))

    def scale(self, sampler: speed.Sampler) -> None:
        self.factors = [sampler.factor(t0, t1) for t0, t1 in self.windows]


def run_requests(wl, seconds, limit=None, indices=None, traced=False, rec=None, inject=False) -> Phase:
    """Closed loop: send request i+1 only after request i has been checked.

    Without `indices`, requests 0, 1, ... run until `seconds` of wall time
    have passed (ending on a multiple of wl.cycle) or `limit` is reached.
    The host's speed is sampled all along (speed.py) to scale each latency.
    """
    phase = Phase()
    with speed.Sampler() as sampler:
        _request_loop(phase, wl, seconds, limit, indices, traced, rec, inject)
    phase.scale(sampler)
    return phase


def _request_loop(phase, wl, seconds, limit, indices, traced, rec, inject) -> None:
    start = time.perf_counter()
    i = 0
    while True:
        if indices is not None:
            if i >= len(indices):
                break
            idx = indices[i]
        else:
            if limit is not None and i >= limit:
                break
            if time.perf_counter() - start >= seconds and i % wl.cycle == 0:
                break
            idx = i
        wl.prepare(idx)
        if not wl.cold:
            gc.collect()  # the harness's own garbage is not the request's
        if rec is not None:
            rec.request = idx
        t0 = time.perf_counter()
        try:
            raw = wl.request(idx, traced)
            err = None
        except Exception as exc:  # a raising request is a failed request
            raw, err = None, f"request raised {exc!r}"
        phase.timed(t0, time.perf_counter())
        if err is None:
            try:
                answer = wl.parse(idx, raw)
                if inject and idx == 0:
                    answer = wl.corrupt(answer)
                err = wl.check(idx, answer)
                _count_exact(phase, wl, answer)
            except Exception as exc:  # unparseable output fails the gate
                err = f"gate raised {exc!r}"
        if err is not None:
            phase.errors.append((idx, err))
        i += 1


def _count_exact(phase: Phase, wl, answer) -> None:
    lines = wl.lines_of(answer)
    if lines is not None:
        phase.lines += len(lines)
        phase.exact_lines += sum(not isinstance(ln[3], float) for ln in lines)


def probe_setup(kind: str, workdir: Path) -> tuple[float, float]:
    """Set-up `kind` (see probe.py) in a fresh interpreter: when it ended
    (perf_counter, which is system-wide) and how many seconds it took."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), kind, str(workdir)],
        capture_output=True, env=workloads.program_env(), cwd=ROOT, timeout=170, check=True,
    )
    end, seconds = proc.stdout.decode().split()[-2:]
    return float(end), float(seconds)


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, percentile 100 (n - 10) / n.  Up to 21 samples
    that sample is not above the median, so the median is reported."""
    n = len(latencies)
    if n <= 21:
        return statistics.median(latencies), f"p50, n={n}: fewer than 22 samples"
    return sorted(latencies)[n - 11], f"p{100 * (n - 10) / n:.1f}, n={n}"


def end_to_end(wl, phase: Phase, setup: Phase) -> tuple[dict, dict]:
    """Timings at the reference host speed; the notes give the raw ones."""
    lat_ms = [1e3 * x for x in phase.scaled]
    raw_ms = [1e3 * x for x in phase.latencies]
    tail_ms, tail_label = tail(lat_ms)
    completed = phase.attempted - phase.failed
    who = resource.RUSAGE_CHILDREN if wl.cold else resource.RUSAGE_SELF
    values = {
        "setup_s": statistics.median(setup.scaled),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "throughput_rps": completed / sum(phase.scaled),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {setup.attempted} fresh interpreters; raw {statistics.median(setup.latencies):.4g} s",
        "latency_p50_ms": f"n={phase.attempted}; raw {statistics.median(raw_ms):.6g} ms",
        "latency_tail_ms": f"{tail_label}; raw {tail(raw_ms)[0]:.6g} ms",
        "throughput_rps": f"completed requests per second busy; raw {completed / sum(phase.latencies):.6g}",
        "peak_rss_mb": "children's maxrss" if wl.cold else "maxrss of this process",
    }
    return values, notes


def traced_phase(wl, n: int) -> tuple[Phase, list, dict, dict, list, list[float]]:
    """Replay requests 0..n-1 with every layer wrapped."""
    if wl.cold:
        phase = run_requests(wl, 0, indices=range(n), traced=True)
        return (phase, *_collect_span_files(wl.workdir, n))
    rec = spans.SpanRecorder()
    inst = spans.Instrumentation(rec)
    inst.install()
    try:
        before = inst.cache_info()
        phase = run_requests(wl, 0, indices=range(n), traced=True, rec=rec)
        after = inst.cache_info()
    finally:
        inst.uninstall()
    deltas = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
    imports = [probe_setup("import", wl.workdir)[1] for _ in range(3)]
    return phase, rec.spans, dict(rec.counts), deltas, inst.absent, imports


def _collect_span_files(workdir: Path, n: int):
    all_spans, counts, cache, absent, imports = [], {}, {}, set(), []
    for i in range(n):
        path = workdir / f"spans-{i}.jsonl"
        if not path.exists():
            continue
        offset = len(all_spans)
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            record = doc.get("record")
            if record is None:
                parent = None if doc["parent"] is None else doc["parent"] + offset
                all_spans.append([doc["id"] + offset, doc["name"], doc["start"], doc["end"], parent, doc["request"]])
            elif record == "import_s":
                imports.append(doc["value"])
            elif record == "counts":
                for k, v in doc["value"].items():
                    counts[k] = counts.get(k, 0.0) + v
            elif record == "cache":
                for k, (hits, misses) in doc["value"].items():
                    h0, m0 = cache.get(k, (0, 0))
                    cache[k] = (h0 + hits, m0 + misses)
            elif record == "absent":
                absent.update(doc["value"])
    return all_spans, counts, cache, sorted(absent), imports


# --- reporting ------------------------------------------------------------------


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": None,
        "git_commit": None,
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            env["git_commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True, check=True).stdout
            env["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def contract(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, in order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, help="stop after this many requests (self-test)")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt the first answer before the gate (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "rotorspec" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'rotorspec'}; run from a rotorspec checkout", file=sys.stderr)
        return 2
    args.cpu = speed.pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run_one(args, WORKLOADS[args.workload](args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_end_to_end(args, wl, result: dict):
    """Set-up samples, then the timed closed loop; untraced."""
    setup = Phase()
    with speed.Sampler(SETUP_PERIOD_S) as sampler:
        for _ in range(SETUP_REPEATS[wl.setup_kind]):
            end, seconds = probe_setup(wl.setup_kind, wl.workdir)
            setup.timed(end - seconds, end)
    setup.scale(sampler)
    wl.setup()
    phase = run_requests(wl, args.seconds, args.requests, inject=args.inject_wrong)
    values, notes = end_to_end(wl, phase, setup)
    result.update(setup_samples_s=setup.latencies, setup_factors=setup.factors, factors=phase.factors,
                  ref_s=speed.REF_S, cpu_pinned=args.cpu)
    if phase.lines:
        exact = (f"{phase.exact_lines / phase.lines:.6g}", f"{phase.exact_lines}/{phase.lines} lines")
    else:
        exact = ("n/a", "no spectral lines")
    extra = [
        ("failure_ratio", f"{phase.failed / phase.attempted:.6g}", "ratio", f"{phase.failed}/{phase.attempted}"),
        ("exact_line_ratio", exact[0], "ratio", exact[1]),
    ]
    return values, notes, extra, phase, phase.attempted, phase.errors


def measure_layers(args, wl, result: dict):
    """An untraced half run, then the same requests with every layer wrapped."""
    wl.setup()
    half = run_requests(wl, args.seconds / 2, args.requests, inject=args.inject_wrong)
    n = half.attempted
    traced, span_list, counts, cache, absent, imports = traced_phase(wl, n)
    layer = spans.layer_metrics(span_list, counts, cache, n, workloads.VERIFY_CHECKS, set(absent))
    layer["cli.import_ms"] = 1e3 * statistics.median(imports) if imports else None
    layer["trace.overhead_ratio"] = sum(traced.scaled) / sum(half.scaled)
    layer["trace.request_ms"] = 1e3 * statistics.mean(traced.latencies)
    absent = sorted(k for k in contract("per_layer") if layer[k] is None)
    values = {k: (0.0 if layer[k] is None else layer[k]) for k in contract("per_layer")}
    notes = {k: "absent: target no longer exists" for k in absent}
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
    spans.write_jsonl(spans_path, span_list)
    result.update(spans_file=str(spans_path.relative_to(ROOT)), absent=absent,
                  latencies_untraced_s=half.latencies)
    return values, notes, [], traced, half.attempted + traced.attempted, half.errors + traced.errors


def run_one(args, wl) -> int:
    # compile the program's bytecode once so no timed process pays for it
    subprocess.run([sys.executable, "-c", "import rotorspec.cli"], env=workloads.program_env(),
                   cwd=ROOT, check=True, timeout=170)
    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    measure = measure_layers if args.trace else measure_end_to_end
    values, notes, extra, phase, attempted, errors = measure(args, wl, result)
    units = contract("per_layer" if args.trace else "end_to_end")

    print(f"rotorbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(result["env"]))
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    for name, shown, unit, note in extra:
        print(f"  {name:<48} {shown:>14} {unit:<6} {note}")
    for idx, err in errors[:5]:
        print(f"FAILED request {idx}: {err}", file=sys.stderr)
    result.update(
        metrics={k: {"value": v, "unit": units[k]} for k, v in values.items()},
        notes=notes, errors=errors, latencies_s=phase.latencies,
    )
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    summary, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.requests:
            cmd += ["--requests", str(args.requests)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        summary.update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder and the wrappers that time each rotorspec layer from outside.

Wrappers are installed at every name under which rotorspec modules look a
target function up (found by identity in the loaded modules' namespaces),
so internal callers go through them too.  The program's files are not
changed.  A target that no longer exists records nothing; its metrics are
reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter


class SpanRecorder:
    """Spans (id, name, start, end, parent id, request id) kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, perf_counter(), None, parent, self.request])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        """Name of the span enclosing the one currently closing, if any."""
        return self.spans[self._stack[-1]][1] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)


def write_jsonl(path, rows, extra=()) -> None:
    """Write span rows, then any extra records, one JSON object per line."""
    keys = ("id", "name", "start", "end", "parent", "request")
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(keys, row))) + "\n")
        for record in extra:
            fh.write(json.dumps(record) + "\n")


# --- result hooks: counters, and the timing of each verify check ------------------
#
# A hook sees each result of its target and returns the result the caller gets.


def _count_lines(rec: SpanRecorder, result):
    # only spectra returned to a caller outside the spectra layer
    parent = rec.parent_name()
    if parent is None or not parent.startswith("spectra."):
        lines = getattr(result, "lines", ())
        rec.counts["spectra.lines"] += len(lines)
        rec.counts["spectra.exact_lines"] += sum(isinstance(ln.energy, Fraction) for ln in lines)
    return result


def _count_block(rec: SpanRecorder, result):
    space = getattr(result, "space", None)
    rec.counts["polyalg.block_dim_sum"] += getattr(space, "dim", 0)
    return result


def _count_eigenvalues(rec: SpanRecorder, result):
    pairs = [item for item in result if isinstance(item, tuple) and len(item) == 2]
    rec.counts["polyalg.eigenvalues.values"] += len(pairs)
    rec.counts["polyalg.eigenvalues.exact"] += sum(bool(exact) for _, exact in pairs)
    return result


def _time_checks(rec: SpanRecorder, plan):
    """Wrap every (name, check) of the verify plan in a span of its own."""
    return tuple((name, functools.partial(rec.call, "verify.check:" + name, check)) for name, check in plan)


# (defining module, attribute, span name, result hook)
TARGETS = (
    ("rotorspec.cli", "main", "cli.main", None),
    ("rotorspec.cli", "load_job", "cli.load_job", None),
    ("rotorspec.cli", "render_spectra", "cli.render_spectra", None),
    ("rotorspec.geometry", "canonicalize", "geometry.canonicalize", None),
    ("rotorspec.inertia", "inertia_tensor", "inertia.inertia_tensor", None),
    ("rotorspec.inertia", "principal_momenta", "inertia.principal_momenta", None),
    ("rotorspec.inertia", "scalar_curvature", "inertia.scalar_curvature", None),
    ("rotorspec.inertia", "scalar_curvature_oracle", "inertia.scalar_curvature_oracle", None),
    ("rotorspec.quantum_structures", "admissible_structures", "quantum_structures.admissible_structures", None),
    ("rotorspec.spectra", "spherical_spectrum", "spectra.spherical_spectrum", _count_lines),
    ("rotorspec.spectra", "symmetric_spectrum", "spectra.symmetric_spectrum", _count_lines),
    ("rotorspec.spectra", "degenerate_spectrum", "spectra.degenerate_spectrum", _count_lines),
    ("rotorspec.spectra", "monopole_spectrum", "spectra.monopole_spectrum", _count_lines),
    ("rotorspec.spectra", "asymmetric_spectrum", "spectra.asymmetric_spectrum", _count_lines),
    ("rotorspec.spectra", "diagonalized_spectrum", "spectra.diagonalized_spectrum", _count_lines),
    ("rotorspec.spectra", "Spectrum.group_by_energy", "spectra.group_by_energy", None),
    ("rotorspec.polyalg.spaces", "harmonic_basis", "polyalg.harmonic_basis", None),
    ("rotorspec.polyalg.rational_linalg", "nullspace", "polyalg.nullspace", None),
    ("rotorspec.polyalg.operators", "pairing_weights", "polyalg.pairing_weights", None),
    ("rotorspec.polyalg.operators", "generator_matrix", "polyalg.generator_matrix", None),
    ("rotorspec.polyalg.operators", "vector_field_matrix", "polyalg.vector_field_matrix", None),
    ("rotorspec.polyalg.operators", "casimir_matrix", "polyalg.casimir_matrix", None),
    ("rotorspec.polyalg.operators", "hamiltonian_matrix", "polyalg.hamiltonian_matrix", _count_block),
    ("rotorspec.polyalg.operators", "eigenvalues", "polyalg.eigenvalues", _count_eigenvalues),
    ("rotorspec.polyalg.rational_linalg", "charpoly", "polyalg.charpoly", None),
    ("rotorspec.classical_em", "split_field", "classical_em.split_field", None),
    ("rotorspec.classical_em", "decoupling_check", "classical_em.decoupling_check", None),
    ("rotorspec.verify", "suite_plan", "verify.suite_plan", _time_checks),
)

CLOSED_FORMS = ("spherical_spectrum", "symmetric_spectrum", "degenerate_spectrum", "monopole_spectrum")


def check_metric_name(check: str) -> str:
    """verify.<check>.ms with the check name reduced to [a-z0-9_]."""
    return "verify." + re.sub(r"[^a-z0-9]+", "_", check.lower()).strip("_") + ".ms"


class Instrumentation:
    """Installs the TARGETS wrappers into the loaded rotorspec modules."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}
        self._undo: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span, hook in TARGETS:
            owner = self._resolve_owner(module_name, attr)
            name = attr.rpartition(".")[2]
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.append(span)
                continue
            self.originals[span] = original
            wrapper = self._wrapper(span, original, hook)
            if isinstance(owner, type):
                self._replace(owner, name, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "rotorspec" or mod_name.startswith("rotorspec."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def cache_info(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of every wrapped target that has an lru cache."""
        out = {}
        for span, original in self.originals.items():
            info = getattr(original, "cache_info", None)
            if info is not None:
                ci = info()
                out[span] = (ci.hits, ci.misses)
        return out

    @staticmethod
    def _resolve_owner(module_name: str, attr: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        for part in attr.split(".")[:-1]:
            owner = getattr(owner, part, None)
        return owner

    def _replace(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def _wrapper(self, span: str, fn, hook):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = rec.call(span, fn, *args, **kwargs)
            return result if hook is None else hook(rec, result)

        return wrapper


# --- aggregation ----------------------------------------------------------------


def self_times(spans) -> dict[str, float]:
    """Total self time (s) per span name: duration minus direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        out[name] += (end - start) - child_time[sid]
    return out


def layer_metrics(
    spans, counts, cache_deltas, n_requests: int, check_names, absent
) -> dict[str, float | None]:
    """Per-request layer metrics; None marks a metric whose target is gone."""
    self_s = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    for _, name, start, end, _, _ in spans:
        calls[name] += 1
        total[name] += end - start
    n = max(n_requests, 1)

    def ms(span):
        return None if span in absent else 1e3 * self_s.get(span, 0.0) / n

    def per_req(span):
        return None if span in absent else calls.get(span, 0) / n

    def hit_ratio(span):
        if span in absent:
            return None
        hits, misses = cache_deltas.get(span, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    def count(name, span):
        return None if span in absent else counts.get(name, 0.0) / n

    def ratio(num, den, span):
        if span in absent:
            return None
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    out = {
        "cli.main.self_ms": ms("cli.main"),
        "cli.load_job.self_ms": ms("cli.load_job"),
        "cli.render_spectra.self_ms": ms("cli.render_spectra"),
        "geometry.canonicalize.self_ms": ms("geometry.canonicalize"),
        "geometry.canonicalize.calls": per_req("geometry.canonicalize"),
        "inertia.inertia_tensor.self_ms": ms("inertia.inertia_tensor"),
        "inertia.principal_momenta.self_ms": ms("inertia.principal_momenta"),
        "inertia.scalar_curvature.self_ms": ms("inertia.scalar_curvature"),
        "inertia.scalar_curvature_oracle.self_ms": ms("inertia.scalar_curvature_oracle"),
        "quantum_structures.admissible_structures.self_ms": ms("quantum_structures.admissible_structures"),
        "spectra.group_by_energy.self_ms": ms("spectra.group_by_energy"),
        "spectra.asymmetric_spectrum.self_ms": ms("spectra.asymmetric_spectrum"),
        "spectra.diagonalized_spectrum.self_ms": ms("spectra.diagonalized_spectrum"),
        "spectra.lines": count("spectra.lines", "spectra.asymmetric_spectrum"),
        "spectra.exact_line_ratio": ratio("spectra.exact_lines", "spectra.lines", "spectra.asymmetric_spectrum"),
        "polyalg.nullspace.self_ms": ms("polyalg.nullspace"),
        "polyalg.pairing_weights.cache_hit_ratio": hit_ratio("polyalg.pairing_weights"),
        "polyalg.block_dim_sum": count("polyalg.block_dim_sum", "polyalg.hamiltonian_matrix"),
        "polyalg.exact_eigenvalue_ratio": ratio(
            "polyalg.eigenvalues.exact", "polyalg.eigenvalues.values", "polyalg.eigenvalues"
        ),
        "polyalg.casimir_matrix.self_ms": ms("polyalg.casimir_matrix"),
        "polyalg.vector_field_matrix.self_ms": ms("polyalg.vector_field_matrix"),
        "classical_em.split_field.self_ms": ms("classical_em.split_field"),
        "classical_em.decoupling_check.self_ms": ms("classical_em.decoupling_check"),
    }
    closed = ["spectra." + f for f in CLOSED_FORMS if "spectra." + f not in absent]
    out["spectra.closed_form.self_ms"] = (
        1e3 * sum(self_s.get(s, 0.0) for s in closed) / n if closed else None
    )
    for name in ("harmonic_basis", "generator_matrix"):
        span = "polyalg." + name
        out[span + ".self_ms"] = ms(span)
        out[span + ".calls"] = per_req(span)
        out[span + ".cache_hit_ratio"] = hit_ratio(span)
    for name in ("hamiltonian_matrix", "eigenvalues", "charpoly"):
        span = "polyalg." + name
        out[span + ".self_ms"] = ms(span)
        out[span + ".calls"] = per_req(span)
    for check in check_names:
        span = "verify.check:" + check
        out[check_metric_name(check)] = (
            None if "verify.suite_plan" in absent else 1e3 * total.get(span, 0.0) / n
        )
    return out

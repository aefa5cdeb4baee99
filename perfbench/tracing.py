"""Spans around the calls into each qme module, recorded from outside the
package, and the per-layer metrics derived from them.

``instrument`` replaces, for the duration of a ``with`` block, the names each
module looks up at call time with wrappers that open and close a span, and
restores the originals on exit.  No file of the package is touched.  Spans
live in memory (parallel lists) and are written out once, by the caller, at
the end of the benchmark.

A span's self time is its duration minus the part of its interval covered by
its direct children; over one run the self times add up to the root span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Layers, in report order: the package modules a span can belong to.
LAYERS = ("cli", "integrator", "dynamics", "operators", "fock_oracle", "analysis")

#: (module, attribute, span name) for every fixed name the traced run wraps.
#: ``qme.cli.run`` (the root span), ``qme.cli.evolve`` and ``qme.cli.rhs_*``
#: are added by ``_targets``.
FIXED_TARGETS = (
    ("qme.cli", "scenario_from_dict", "cli.parse"),
    ("qme.cli", "build_relaxation_operators", "dynamics.relax"),
    ("qme.cli", "rhs_fock_lindblad", "fock_oracle.rhs"),
    ("qme.cli", "reduce_one_particle", "fock_oracle.reduce"),
    ("qme.cli", "closure_residual_at_t0", "fock_oracle.closure"),
    ("qme.cli", "first_crossing_time", "analysis.first_crossing_time"),
    ("qme.cli", "_write_states_csv", "cli.write_states"),
    ("qme.cli", "_write_diagnostics_csv", "cli.write_diagnostics"),
    ("qme.dynamics", "build_relaxation_operators", "dynamics.relax"),
    ("qme.dynamics", "as_square_matrix", "operators.validate"),
    ("qme.fock_oracle", "as_square_matrix", "operators.validate"),
    ("qme.integrator", "hermiticity_defect", "operators.herm_defect"),
    ("numpy.linalg", "eigvalsh", "eigvalsh"),
)

ROOT = "cli.run"
EVOLVE = "integrator.evolve"
HOLE_RHS = "dynamics.hole_rhs"
#: eigvalsh belongs to the layer of its caller; under ``evolve`` it is the
#: snapshot diagnostics, reported as its own bucket.
DIAG = "integrator.diag"


class Tracer:
    """In-memory span store.  Span ids are list indices; parent -1 is none."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: dict[int, dict] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def run_spans(self, run_id: int) -> list[int]:
        return [sid for sid, r in enumerate(self.runs) if r == run_id]

    def write_csv(self, path: Path) -> None:
        lines = ["run,span,parent,name,start,end"]
        lines += [
            f"{self.runs[s]},{s},{self.parents[s]},{self.names[s]},"
            f"{self.starts[s]!r},{self.ends[s]!r}"
            for s in range(len(self.names))
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _traced_evolve(tracer: Tracer, evolve):
    """``evolve`` with its span, the hole flow's RHS wrapped as its own span
    (the closure is built inside the cli and called only through the spec),
    and the snapshot count of the returned trajectory."""

    @functools.wraps(evolve)
    def traced(spec, initial):
        sid = tracer.open(EVOLVE)
        try:
            if "_build_hole_rhs" in getattr(spec.rhs, "__qualname__", ""):
                spec = dataclasses.replace(spec, rhs=tracer.wrap(spec.rhs, HOLE_RHS))
            traj = evolve(spec, initial)
        finally:
            tracer.close(sid)
        tracer.attrs[sid] = {"snapshots": len(traj.times)}
        return traj

    return traced


def _traced_writer(tracer: Tracer, writer, name: str):
    @functools.wraps(writer)
    def traced(path, *args, **kwargs):
        sid = tracer.open(name)
        try:
            writer(path, *args, **kwargs)
        finally:
            tracer.close(sid)
        tracer.attrs[sid] = {"bytes": Path(path).stat().st_size}

    return traced


def _targets() -> list[tuple[str, str, str]]:
    cli = importlib.import_module("qme.cli")
    rhs = [("qme.cli", name, f"dynamics.rhs.{name[4:]}")
           for name in sorted(vars(cli)) if name.startswith("rhs_") and name != "rhs_fock_lindblad"]
    return [("qme.cli", "run", ROOT), ("qme.cli", "evolve", EVOLVE)] + rhs + list(FIXED_TARGETS)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target name for the duration of the block, then restore
    the original objects, also when the block raises."""
    saved = []
    try:
        for module_name, attr, span in _targets():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if span == EVOLVE:
                wrapper = _traced_evolve(tracer, original)
            elif span.startswith("cli.write_"):
                wrapper = _traced_writer(tracer, original, span)
            else:
                wrapper = tracer.wrap(original, span)
            saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(tracer: Tracer, spans: list[int]) -> dict[int, float]:
    """Duration minus the union of the direct children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for sid in spans:
        children[tracer.parents[sid]].append(sid)
    out = {}
    for sid in spans:
        covered, reach = 0.0, float("-inf")
        for c in sorted(children.get(sid, ()), key=lambda c: tracer.starts[c]):
            lo, hi = max(tracer.starts[c], reach), tracer.ends[c]
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = tracer.ends[sid] - tracer.starts[sid] - covered
    return out


def _bucket(tracer: Tracer, sid: int) -> str:
    name = tracer.names[sid]
    if name != "eigvalsh":
        return name.split(".", 1)[0]
    parent = tracer.parents[sid]
    if parent < 0:
        return "cli"
    return DIAG if tracer.names[parent] == EVOLVE else _bucket(tracer, parent)


def layer_metrics(tracer: Tracer, run_id: int, fock_shape: tuple[int, int] | None) -> dict:
    """Per-layer metrics of one traced run.

    ``fock_shape`` is (Fock dimension D, number of rates R) for oracle runs;
    the computed flop count assumes (2 + 4R) dense complex D x D products
    per many-body RHS call at 8 D^3 real flops each.
    """
    spans = tracer.run_spans(run_id)
    self_s = self_times(tracer, spans)
    names, parents = tracer.names, tracer.parents

    def dur(sid):
        return tracer.ends[sid] - tracer.starts[sid]

    durations = defaultdict(list)
    for s in spans:
        durations[names[s]].append(dur(s))

    def calls(name):
        return len(durations[name])

    def busy(name):
        return sum(durations[name])

    roots = [s for s in spans if parents[s] < 0]
    if len(roots) != 1 or names[roots[0]] != ROOT:
        raise ValueError(f"expected one {ROOT} root span per run, got {[names[s] for s in roots]}")
    buckets = defaultdict(float)
    for s in spans:
        buckets[_bucket(tracer, s)] += self_s[s]

    def under_evolve(s):
        return parents[s] >= 0 and names[parents[s]] == EVOLVE

    # RK-stage evaluations of the particle and hole flows
    stages = [s for s in spans if names[s].startswith("dynamics.") and under_evolve(s)]
    rhs_s = sum(dur(s) for s in stages)
    evolves = [s for s in spans if names[s] == EVOLVE]
    writes = [s for s in spans if names[s].startswith("cli.write_")]
    gflop = 0.0
    if fock_shape is not None:
        d, r = fock_shape
        gflop = calls("fock_oracle.rhs") * (2 + 4 * r) * 8.0 * d**3 / 1e9

    m = {
        "cli.parse_s": busy("cli.parse"),
        "cli.write_s": sum(dur(s) for s in writes),
        "cli.bytes_written": sum(tracer.attrs[s]["bytes"] for s in writes),
        "integrator.evolve_s": busy(EVOLVE),
        "integrator.steps": sum(1 for s in spans if names[s] == "operators.herm_defect"
                                and under_evolve(s)) - len(evolves),
        "integrator.snapshots": sum(tracer.attrs[s]["snapshots"] for s in evolves),
        "integrator.diag_s": buckets[DIAG],
        "dynamics.rhs_calls": len(stages),
        "dynamics.rhs_s": rhs_s,
        "dynamics.rhs_us_per_call": 1e6 * rhs_s / len(stages) if stages else 0.0,
        "dynamics.relax_calls": calls("dynamics.relax"),
        "dynamics.relax_s": busy("dynamics.relax"),
        "dynamics.hole_rhs_s": busy(HOLE_RHS),
        "operators.validate_calls": calls("operators.validate"),
        "operators.validate_s": busy("operators.validate"),
        "operators.herm_defect_s": busy("operators.herm_defect"),
        "fock_oracle.rhs_calls": calls("fock_oracle.rhs"),
        "fock_oracle.rhs_s": busy("fock_oracle.rhs"),
        "fock_oracle.gflop": gflop,
        "fock_oracle.gflops": gflop / busy("fock_oracle.rhs") if gflop else 0.0,
        "fock_oracle.reduce_calls": calls("fock_oracle.reduce"),
        "fock_oracle.reduce_s": busy("fock_oracle.reduce"),
        "fock_oracle.closure_s": busy("fock_oracle.closure"),
        "trace.root_s": dur(roots[0]),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = buckets[layer]
    unknown = set(buckets) - set(LAYERS) - {DIAG}
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")
    m["trace.self_sum_error_s"] = abs(sum(buckets.values()) - dur(roots[0]))
    return m

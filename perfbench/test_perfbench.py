"""Self-tests of the benchmark itself (not of qme).

    python3 -m pytest -q perfbench

They check that the generated inputs are reproducible and valid, that a
run's cost does not depend on the seed, that the output checks can fail,
and that tracing computes self time correctly and leaves qme as it found it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qme.cli  # noqa: E402
from run import Bench  # noqa: E402
from tracing import Tracer, _targets, instrument, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, scenario_bytes  # noqa: E402

#: Counts that fix a run's cost; they must not depend on the seed.
COST_COUNTS = ("integrator.steps", "integrator.snapshots", "dynamics.rhs_calls",
               "fock_oracle.rhs_calls", "operators.validate_calls")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_scenario_bytes(workload):
    assert scenario_bytes(workload, 7) == scenario_bytes(workload, 7)
    assert scenario_bytes(workload, 7) != scenario_bytes(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 12345])
def test_generated_scenarios_parse(workload, seed, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(scenario_bytes(workload, seed))
    assert qme.cli.parse_scenario(path).name == f"bench_{workload}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cost_counts_do_not_depend_on_the_seed(workload, tmp_path):
    counts = []
    for seed in (1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        bench = Bench(workload, seed, work)
        metrics = bench.traced_run(Tracer())
        assert bench.failed == 0, bench.errors
        counts.append({name: metrics[name] for name in COST_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["integrator.steps"] > 0


def test_output_check_rejects_a_perturbed_state(tmp_path):
    bench = Bench("chain", 3, tmp_path)
    bench.run_in_process()
    assert bench.failed == 0, bench.errors
    states = bench.out / "states.csv"
    header, *rows = states.read_text().splitlines()
    fields = rows[-1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)  # re_0_0 of the last snapshot
    states.write_text("\n".join([header, *rows[:-1], ",".join(fields)]) + "\n")
    errors = bench.workload.check(bench.raw, bench.reference, bench.out)
    assert any("deviates" in e for e in errors)


def test_setup_run_is_a_checked_single_step(tmp_path):
    bench = Bench("oracle_boson", 1, tmp_path)
    assert min(bench.setup_once()) > 0.0
    assert (bench.attempted, bench.failed) == (1, 0), bench.errors


def _synthetic(tracer: Tracer, spans):
    """Append (name, parent, start, end) spans to run 1 of ``tracer``."""
    for name, parent, start, end in spans:
        tracer.names.append(name)
        tracer.parents.append(parent)
        tracer.runs.append(1)
        tracer.starts.append(start)
        tracer.ends.append(end)


def test_self_time_on_a_synthetic_tree():
    tracer = Tracer()
    _synthetic(tracer, [
        ("cli.run", -1, 0.0, 10.0),           # 0
        ("integrator.evolve", 0, 1.0, 8.0),   # 1
        ("dynamics.rhs.x", 1, 2.0, 4.0),      # 2
        ("operators.validate", 2, 2.5, 3.0),  # 3
        ("eigvalsh", 1, 5.0, 6.0),            # 4: diagnostics under evolve
        ("eigvalsh", 0, 8.5, 9.0),            # 5: final spectrum in the cli
        ("dynamics.relax", 1, 3.5, 4.5),      # 6: overlaps 2 by 0.5 (union counted once)
    ])
    got = self_times(tracer, tracer.run_spans(1))
    assert got == pytest.approx({0: 2.5, 1: 3.5, 2: 1.5, 3: 0.5, 4: 1.0, 5: 0.5, 6: 1.0})


def test_layer_self_times_add_up_to_the_root():
    tracer = Tracer()
    _synthetic(tracer, [
        ("cli.run", -1, 0.0, 10.0),
        ("cli.parse", 0, 0.0, 1.0),
        ("integrator.evolve", 0, 1.0, 8.0),
        ("dynamics.rhs.x", 2, 2.0, 4.0),
        ("operators.validate", 3, 2.5, 3.0),
        ("eigvalsh", 2, 5.0, 6.0),
        ("operators.herm_defect", 2, 6.0, 6.5),
        ("eigvalsh", 0, 8.5, 9.0),
    ])
    tracer.attrs[2] = {"snapshots": 1}
    m = layer_metrics(tracer, 1, None)
    assert m["integrator.diag_s"] == pytest.approx(1.0)
    assert m["integrator.self_s"] == pytest.approx(3.5)
    assert m["cli.self_s"] == pytest.approx(1.5 + 1.0 + 0.5)
    assert m["dynamics.rhs_calls"] == 1
    assert m["integrator.steps"] == 0
    assert m["trace.self_sum_error_s"] == pytest.approx(0.0, abs=1e-12)


def _current_targets():
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _ in _targets()}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _current_targets()
    bench = Bench("oracle_boson", 1, tmp_path)
    metrics = bench.traced_run(Tracer())
    assert metrics["fock_oracle.rhs_calls"] > 0
    assert _current_targets() == before
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            assert qme.cli.evolve is not before[("qme.cli", "evolve")]
            raise RuntimeError("boom")
    assert _current_targets() == before
    assert np.linalg.eigvalsh is before[("numpy.linalg", "eigvalsh")]

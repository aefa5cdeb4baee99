"""The benchmark's tracer wraps qme names by (module, attribute); each must
still exist, or a traced benchmark run fails before it starts.  It counts
steps by the calls of one of them, which must stay one a step."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qme import integrator
from qme.dynamics import NetworkFlow, OccupationFlow, Statistics, TransitionNetwork
from qme.operators import DensityMatrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _fixed_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIXED_TARGETS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in _fixed_targets()])
def test_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("equation, record_every, defects", [
    # 23 steps, whatever the snapshots, and the start
    ("nonlinear_master", 1, 23 + 1),
    ("nonlinear_master", 5, 23 + 1),
    # the benchmark's chain workload: a fermion network's occupations and
    # their holes, stepped as one paired occupation flow
    ("paired_occupation", 1, 23 + 1),
    ("paired_occupation", 5, 23 + 1),
    # a mapped run crosses its 5 intervals by one map each
    ("markoff", 5, 5 + 1),
])
def test_the_step_count_is_one_defect_a_step_or_mapped_interval(monkeypatch, equation, record_every,
                                                                  defects):
    """The tracer counts ``integrator.steps`` by the calls of
    ``qme.integrator.hermiticity_defect``: one for the start, then one per RK4
    step, recorded or not, or per mapped interval."""
    calls = []
    defect = integrator.hermiticity_defect
    monkeypatch.setattr(integrator, "hermiticity_defect", lambda m: calls.append(1) or defect(m))
    net = TransitionNetwork.computational(3, {(1, 0): 0.8, (2, 1): 0.5, (0, 2): 0.3})
    stats = None if equation == "markoff" else Statistics.FERMION
    flow = NetworkFlow(np.diag([0.0, 0.7, 1.3]).astype(complex), net, stats)
    start = DensityMatrix(np.diag([0.6, 0.3, 0.1]), Statistics.FERMION)
    if equation == "paired_occupation":
        flow, start = flow.occupation_flow().paired(), np.array([0.6, 0.3, 0.1])
        assert isinstance(flow, OccupationFlow) and flow.pair
    assert flow.affine == (stats is None)
    spec = integrator.EvolutionSpec(rhs=flow, t0=0.0, t1=0.23, dt=0.01, record_every=record_every)
    integrator.evolve(spec, start)
    assert len(calls) == defects

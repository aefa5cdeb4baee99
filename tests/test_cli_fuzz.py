"""Fuzzing ``qme run`` with Hypothesis (MacIver et al., JOSS 4, 1891 (2019)).

Each example is a bundled scenario with one or two mutations, run
in-process: a field (a key's value or a list entry, at any depth) replaced by
a hostile JSON value, or a 5000-character key added to an object.  Whatever
the input, the run exits 0, 1 or 2; exit 1 comes with exactly one ``error:``
line of under 200 characters, and nothing raises or warns.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from qme import integrator
from qme.dynamics import NetworkFlow
from qme.cli import bundled_scenarios, main, resolve_scenario_path

HOSTILE = [
    None, True, "x", [], {},  # wrong types
    float("nan"), float("inf"), float("-inf"),
    1e308, -1e308, [1e308, 1e308], [[1e308, -1e308], [-1e308, 1e308]],
    -1, 0, 7, 2**31,  # out-of-range indices, dimensions and counts
    2**63, 10**400, 10**2999,  # huge integers, the last with 3000 digits
    "k" * 5000,  # a long string
    [[1.0, 0.0], [0.0]], [[1.0]],  # ragged and wrong-sized matrices
    # a start or a Hamiltonian whose checks overflow (for the two-orbital scenarios)
    {"diagonal": [1.0, 1e308]}, {"matrix": [[0.0, 1e308], [-1e308, 0.0]]},
]


def _short(raw: dict) -> dict:
    # five steps, so that a mutated t0, t1 or dt of moderate size stays cheap
    raw["integrator"] = {**raw["integrator"], "t0": 0.0, "t1": 1.0, "dt": 0.2}
    return raw


SCENARIOS = {
    name: _short(json.loads(resolve_scenario_path(name).read_text(encoding="utf-8")))
    for name in bundled_scenarios()
}


#: A key no scenario object accepts, too long to echo whole.
LONG_KEY = "k" * 5000


def _paths(node, prefix=()):
    """Every key or index path below ``node``."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


@st.composite
def mutated_scenarios(draw) -> dict:
    raw = copy.deepcopy(SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))])
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.integers(0, 4)) == 0:
            objects = [()] + [p for p in _paths(raw) if isinstance(_at(raw, p), dict)]
            _at(raw, draw(st.sampled_from(objects)))[LONG_KEY] = 1
        else:
            *parents, last = draw(st.sampled_from(list(_paths(raw))))
            _at(raw, parents)[last] = copy.deepcopy(draw(st.sampled_from(HOSTILE)))
    return raw


def _run(raw: dict) -> tuple[int, str, list]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["run", str(path), "--out-dir", str(Path(tmp) / "out"), "--quiet"]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    return code, err.getvalue(), caught


@settings(max_examples=1000, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_scenarios())
def test_hostile_fields_exit_cleanly(raw):
    code, err, caught = _run(raw)
    event(f"exit {code}")
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert len(err) < 200, err[:300]
    else:
        assert err == ""


#: The two bundled scenarios whose flows are affine, and where each keeps its rate.
MAPPED = {"appendix_d": ("dephasing", 0, "rate"), "fock_closure_2mode": ("network", "rates", 0, "rate")}


def test_the_linear_scenarios_step_by_their_rk4_map(monkeypatch):
    # the scenarios fuzzed above reach the mapped path
    built, rk4_map = [], integrator._rk4_map

    def spying(*args):
        built.append(rk4_map(*args))
        return built[-1]

    monkeypatch.setattr(integrator, "_rk4_map", spying)
    for name in MAPPED:
        built.clear()
        code, err, caught = _run(SCENARIOS[name])
        assert (code, err, caught) == (0, "", [])
        assert built and all(m is not None for m in built), name


@pytest.mark.parametrize("rate", [1e308, 1e300, 1e154, 1e100, 1e60, 1e20])
@pytest.mark.parametrize("name", sorted(MAPPED))
def test_huge_rates_exit_as_the_plain_rk4_steps_do(name, rate, monkeypatch):
    """Rates at which the RK4 map overflows, and is not used, or at which a
    finite map's steps overflow: one error line, the one the plain RK4 steps
    give, and no warning."""
    raw = copy.deepcopy(SCENARIOS[name])
    *parents, last = MAPPED[name]
    _at(raw, parents)[last] = rate
    code, err, caught = _run(raw)
    assert not caught, [str(w.message) for w in caught]
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    monkeypatch.setattr(integrator, "AFFINE_MAX_ENTRIES", 0)
    assert _run(raw) == (code, err, [])


@pytest.mark.parametrize("rate", [1e308, 1e200, 1e154, 1e100, 1e60, 1e20])
@pytest.mark.parametrize("name", ["homogeneous_chain", "two_state_boson", "two_state_fermion"])
def test_huge_rates_on_the_occupation_path_exit_as_the_matrix_run_does(name, rate, monkeypatch):
    """A diagonal start under a huge rate runs on its occupations and exits
    with one error line, the one the matrix run gives, and no warning."""
    raw = copy.deepcopy(SCENARIOS[name])
    raw["network"]["rates"][0]["rate"] = rate
    built = []
    occupation_flow = NetworkFlow.occupation_flow
    monkeypatch.setattr(NetworkFlow, "occupation_flow",
                        lambda self: built.append(occupation_flow(self)) or built[-1])
    code, err, caught = _run(raw)
    assert built and built[0] is not None
    assert not caught, [str(w.message) for w in caught]
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    monkeypatch.setattr(NetworkFlow, "occupation_flow", lambda self: None)
    assert _run(raw) == (code, err, [])

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
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from qme import cli, integrator
from qme.dynamics import NetworkFlow
from qme.cli import bundled_scenarios, main, resolve_scenario_path
from test_integrator import exact, generator

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


def _spying(monkeypatch):
    """Patch ``integrator._increment_map`` and ``cli.evolve`` to note every map
    built and every (spec, start, trajectory) run."""
    maps, runs = [], []
    increment_map, evolve = integrator._increment_map, cli.evolve
    monkeypatch.setattr(integrator, "_increment_map",
                        lambda gen, tau: maps.append(increment_map(gen, tau)) or maps[-1])
    monkeypatch.setattr(cli, "evolve",
                        lambda spec, x: runs.append((spec, x, evolve(spec, x))) or runs[-1][2])
    return maps, runs


def test_the_linear_scenarios_take_their_exact_map(monkeypatch):
    # the scenarios fuzzed above reach the mapped path
    maps, _ = _spying(monkeypatch)
    for name in MAPPED:
        maps.clear()
        code, err, caught = _run(SCENARIOS[name])
        assert (code, err, caught) == (0, "", [])
        assert maps and all(m is not None for m in maps), name


@pytest.mark.parametrize("rate", [1e308, 1e300, 1e154, 1e100, 1e60, 1e20])
@pytest.mark.parametrize("name", sorted(MAPPED))
def test_huge_rates_are_integrated_exactly(name, rate, monkeypatch):
    """The exact map of a huge rate is finite, so the stiff decay is
    integrated exactly: the run exits 0, prints nothing, does not warn and
    ends on expm's state.  At 1e308 the oracle's many-body rates overflow
    and the parse refuses them, with one error line, whatever the
    integrator."""
    raw = copy.deepcopy(SCENARIOS[name])
    *parents, last = MAPPED[name]
    _at(raw, parents)[last] = rate
    maps, runs = _spying(monkeypatch)
    code, err, caught = _run(raw)
    assert not caught, [str(w.message) for w in caught]
    if (name, rate) == ("fock_closure_2mode", 1e308):
        assert maps == [] and code == 1 and err.startswith("error: network.rates: "), err
        assert err.count("\n") == 1
        monkeypatch.setattr(integrator, "AFFINE_MAX_ENTRIES", 0)
        assert _run(raw) == (code, err, [])
        return
    assert (code, err) == (0, "") and maps and all(m is not None for m in maps)
    (spec, x, traj), = runs
    want, size = exact(generator(spec.rhs, x), x, spec.t1 - spec.t0)
    assert np.abs(traj.final_state - want).max() <= 1e-12 * size


def test_a_map_whose_norm_overflows_exits_as_the_rk4_steps_do(monkeypatch):
    """appendix_d at rate 1e308 over one interval of 2: ||tau M||_1 = 2e308
    overflows, so the map is not used and the window takes RK4 steps, which
    overflow: one error line, the one the plain RK4 steps give, and no
    warning."""
    raw = copy.deepcopy(SCENARIOS["appendix_d"])
    raw["dephasing"][0]["rate"] = 1e308
    raw["integrator"]["t1"] = 2.0
    maps, _ = _spying(monkeypatch)
    code, err, caught = _run(raw)
    assert maps == [None] and not caught, [str(w.message) for w in caught]
    assert code == 1 and err.startswith("error: integration diverged") and err.count("\n") == 1, err
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


def _oracle(statistics, occupations):
    """The bundled oracle scenario with this start, on as many modes."""
    raw = copy.deepcopy(SCENARIOS["fock_closure_2mode"])
    modes = len(occupations)
    raw.update(statistics=statistics, dimension=modes, initial={"occupations": occupations})
    raw["fock"] = {"energies": [0.0] * modes}
    return raw


@pytest.mark.parametrize(
    "statistics,occupations,message",
    [
        # sized with math.comb before any table is built: C(10^6 + 2, 2) states
        ("boson", [1e6, 0, 0], "initial.occupations: the basis of these particle numbers over 3 modes "
                               "exceeds the limit of 131072 states"),
        ("boson", [1e30, 0, 0], "initial.occupations: the basis of these particle numbers"),
        # 64 modes at N = 1 are 64 states, but the key N * 2^64 + ... leaves int64
        ("fermion", [1.0] + [0.0] * 63, "initial.occupations: the basis key of these particle "
                                        "numbers over 64 modes does not fit in int64"),
        ("boson", [1] + [0] * 63, "initial.occupations: the basis key"),
        ("boson", [1.5, 0, 0], "initial.occupations[0]: boson occupancy must be a nonnegative "
                               "integer, got 1.5"),
    ],
    ids=["boson_1e6", "boson_1e30", "fermion_64_modes", "boson_64_modes", "boson_fraction"],
)
def test_oracle_starts_past_the_bounds_exit_one(statistics, occupations, message):
    """A start whose sectors would not fit is refused by one line naming the
    field, at once: no table of its states is built."""
    start = time.process_time()
    code, err, caught = _run(_oracle(statistics, occupations))
    assert time.process_time() - start < 2.0
    assert (code, caught) == (1, [])
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

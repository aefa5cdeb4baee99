"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and asserting at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Everything here finishes in well under a minute on one core.
"""

import json

import numpy as np
import pytest

from fock_reference import hop_operator, level_count, mode_operators
from test_fock_oracle import table_operator
from qme.analysis import (
    appendix_d_scenario,
    bounds_monitor,
    dephasing_limit_spectrum,
    first_crossing_time,
    low_density_slope,
)
from qme.cli import (
    _EQUATIONS,
    parse_scenario,
    resolve_scenario_path,
    scenario_from_dict,
)
from qme.dynamics import (
    JumpFlow,
    NetworkFlow,
    OperatorFlow,
    Statistics,
    TransitionNetwork,
    build_relaxation_operators,
    rank_one_jumps,
    rhs_quasiclassical,
)
from qme.fock_oracle import (
    FockModel,
    closure_residual_at_t0,
    product_populations,
)
from qme.integrator import EvolutionSpec, evolve
from qme.operators import DensityMatrix, positivity_report

FERMION = Statistics.FERMION
BOSON = Statistics.BOSON


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def rand_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def rand_state(rng, n, stats):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    top = 1.0 if stats is FERMION else 3.0
    return (q * rng.uniform(0.0, top, n)) @ q.conj().T


def rand_network(rng, n):
    rates = {}
    for dest in range(n):
        for src in range(n):
            if dest != src and rng.uniform() < 0.6:
                rates[(dest, src)] = float(rng.uniform(0.1, 2.0))
    return TransitionNetwork.computational(n, rates)


def gain_rhs(stats, gamma=1.0):
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    gain = -0.5 * gamma * p
    z = np.zeros((2, 2))
    return OperatorFlow(z, z, gain, stats)


def _flow(scenario):
    """The scenario's flow, built by its equation's entry in the CLI table."""
    return _EQUATIONS[scenario.equation].build(scenario)


# -- criterion 1: exponential gain/loss laws ---------------------------------


def test_criterion_1_exponential_laws():
    dt = 1e-3

    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    loss = OperatorFlow(np.zeros((2, 2)), -0.5 * p, np.zeros((2, 2)), None)
    traj = evolve(
        EvolutionSpec(rhs=loss, t0=0.0, t1=5.0, dt=dt, record_every=250),
        DensityMatrix(np.diag([1.0, 0.0]), FERMION),
    )
    got = np.array([m[0, 0].real for m in traj.states[1:]])
    exact = np.exp(-traj.times[1:])
    err_loss = (np.abs(got - exact) / exact).max()

    traj = evolve(
        EvolutionSpec(rhs=gain_rhs(FERMION), t0=0.0, t1=5.0, dt=dt, record_every=250),
        DensityMatrix(np.zeros((2, 2)), FERMION),
    )
    got = np.array([m[0, 0].real for m in traj.states[1:]])
    exact = 1.0 - np.exp(-traj.times[1:])
    err_fgain = (np.abs(got - exact) / exact).max()

    traj = evolve(
        EvolutionSpec(rhs=gain_rhs(BOSON), t0=0.0, t1=5.0, dt=dt, record_every=250),
        DensityMatrix(np.zeros((2, 2)), BOSON),
    )
    got = np.array([m[0, 0].real for m in traj.states[1:]])
    exact = np.exp(traj.times[1:]) - 1.0
    err_bgain = (np.abs(got - exact) / exact).max()

    worst = max(err_loss, err_fgain, err_bgain)
    ok = report(
        "1",
        worst <= 1e-8,
        f"loss {err_loss:.2e}, fermion gain {err_fgain:.2e}, "
        f"boson gain {err_bgain:.2e}, tol 1e-8",
    )
    assert ok


# -- criterion 2: two-state transfer and Pauli blocking ----------------------


def test_criterion_2_two_state_dynamics():
    net = TransitionNetwork.computational(2, {(1, 0): 1.0})
    h = np.zeros((2, 2))
    errs = {}
    for stats, closed_form in ((FERMION, lambda t: 1 - 1 / (1 + t)), (BOSON, np.tanh)):
        traj = evolve(
            EvolutionSpec(
                rhs=NetworkFlow(h, net, stats),
                t0=0.0, t1=3.0, dt=1e-3, record_every=100,
            ),
            DensityMatrix(np.diag([1.0, 0.0]), stats),
        )
        got = np.array([m[1, 1].real for m in traj.states])
        errs[stats] = np.abs(got - closed_form(traj.times)).max()

    blocked = NetworkFlow(h, net, FERMION).evaluate(np.diag([0.7, 1.0]).astype(complex))
    blocking = abs(blocked[1, 1])

    ok = report(
        "2",
        errs[FERMION] <= 1e-8 and errs[BOSON] <= 1e-8 and blocking <= 1e-13,
        f"fermion {errs[FERMION]:.2e}, boson {errs[BOSON]:.2e} (tol 1e-8); "
        f"blocked rate {blocking:.1e} (tol 1e-13)",
    )
    assert ok


# -- criterion 3: dephasing counterexample -----------------------------------


# Criterion 3 runs the counterexample at coupling b = 8/27.  The start is a
# density matrix only for b <= sqrt(5/54) ~ 0.304, and the dephased limit
# {1/3 - b*sqrt(2), 1/3, 1/3 + b*sqrt(2)} is indefinite only for
# b > 1/(3*sqrt(2)) ~ 0.236; 8/27 lies inside that window, so the run starts
# positive and is driven out of the cone.  The canonical b = 10/27 exceeds the
# diagonal 1/3 and starts indefinite (min eigenvalue -0.0910); that start and
# its limit spectrum are pinned in test_analysis.TestCounterexampleScenario.
_COUPLING = 8.0 / 27.0
_COUPLING_LABEL = "b = 8/27"
# Positivity is lost when the dephasing (1,2) coherence (2/9) exp(-gamma t)
# falls to 6 b^2 - 1/3 = 47/243, where the symmetric block
# [[1/3, b sqrt(2)], [b sqrt(2), 1/3 + c]] becomes singular (gamma = 1).
_CROSSING_TIME = np.log(54.0 / 47.0)
_COUNTEREXAMPLE_CACHE = []


def _counterexample_trajectory():
    if not _COUNTEREXAMPLE_CACHE:
        sc = appendix_d_scenario(gamma=1.0, coupling=_COUPLING)
        spec = EvolutionSpec(rhs=sc.rhs, t0=0.0, t1=50.0, dt=5e-3, record_every=20)
        _COUNTEREXAMPLE_CACHE.append(evolve(spec, sc.initial))
    return _COUNTEREXAMPLE_CACHE[0]


def test_criterion_3a_initial_matrix_is_psd():
    matrix = appendix_d_scenario(coupling=_COUPLING).initial.matrix
    min_eig, psd = positivity_report(matrix)
    ok = report(
        "3a", psd,
        f"{_COUPLING_LABEL}: initial min eigenvalue {min_eig:.6f}, required >= -1e-10",
    )
    assert ok
    DensityMatrix(matrix, FERMION)  # strict validation at the default tolerance


def test_criterion_3b_positivity_lost_at_finite_time():
    traj = _counterexample_trajectory()
    crossing = first_crossing_time(traj.times, traj.min_eig, 0.0)
    final_min = traj.min_eig[-1]
    violations = bounds_monitor(traj, FERMION)
    crossing_text = "none" if crossing is None else f"{crossing:.5f}"
    ok = report(
        "3b",
        traj.min_eig[0] >= -1e-10
        and crossing is not None
        and abs(crossing - _CROSSING_TIME) <= 2e-3
        and final_min < 0
        and bool(violations),
        f"{_COUPLING_LABEL}: initial min eigenvalue {traj.min_eig[0]:.6f}, "
        f"crossing at t = {crossing_text} "
        f"(closed form {_CROSSING_TIME:.5f}, tol 2e-3), "
        f"min eigenvalue {final_min:.5f} at t = {traj.times[-1]:g}, "
        f"{len(violations)} flagged snapshots",
    )
    assert ok


def test_criterion_3c_limiting_spectrum():
    traj = _counterexample_trajectory()
    got = np.linalg.eigvalsh(traj.final_state)
    err = np.abs(got - dephasing_limit_spectrum(_COUPLING)).max()
    ok = report(
        "3c", err <= 1e-6,
        f"{_COUPLING_LABEL}: spectrum error {err:.2e} at t = 50/gamma, tol 1e-6",
    )
    assert ok


# -- criterion 4: reduction identities over random instances -----------------


def test_criterion_4_reduction_identities():
    rng = np.random.default_rng(2024)
    n_instances = 100
    worst_nonlinear = worst_linear = worst_merged = 0.0
    for k in range(n_instances):
        n = 2 + k % 7  # dims 2..8
        stats = FERMION if k % 2 == 0 else BOSON
        h = rand_hermitian(rng, n)
        net = rand_network(rng, n)
        rho = rand_state(rng, n, stats)
        jumps = rank_one_jumps(net)

        a = JumpFlow(h, jumps, stats).evaluate(rho)
        b = NetworkFlow(h, net, stats).evaluate(rho)
        worst_nonlinear = max(worst_nonlinear, np.abs(a - b).max())

        c = JumpFlow(h, jumps, None).evaluate(rho)
        d = NetworkFlow(h, net, None).evaluate(rho)
        worst_linear = max(worst_linear, np.abs(c - d).max())

        loss, gain = build_relaxation_operators(net, rho, stats)
        merged = loss - stats.sign * gain
        via = -1j * (h @ rho - rho @ h) + (rho @ merged + merged @ rho) - 2 * gain
        general = OperatorFlow(h, loss, gain, stats).evaluate(rho)
        worst_merged = max(worst_merged, np.abs(via - general).max())

    ok = report(
        "4",
        max(worst_nonlinear, worst_linear, worst_merged) <= 1e-12,
        f"{n_instances} instances, dims 2-8: jump/network {worst_nonlinear:.1e}, "
        f"linear {worst_linear:.1e}, merged-operator {worst_merged:.1e}, tol 1e-12",
    )
    assert ok


# -- criterion 5: limit behavior ----------------------------------------------


def test_criterion_5_low_density_and_homogeneous_limits():
    rng = np.random.default_rng(77)
    n = 4
    h = rand_hermitian(rng, n)
    net = rand_network(rng, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    sigma = (q * rng.uniform(0.1, 1.0, n)) @ q.conj().T
    sigma /= np.trace(sigma).real
    fit = low_density_slope(h, net, sigma, [1e-1, 1e-2, 1e-3, 1e-4])
    slope_ok = fit.slope is not None and abs(fit.slope - 2.0) <= 0.05

    chain = parse_scenario(resolve_scenario_path("homogeneous_chain"))
    initial = chain.start
    spec = EvolutionSpec(
        rhs=_flow(chain), t0=chain.t0, t1=chain.t1, dt=chain.dt,
        record_every=chain.record_every,
    )
    matrix_traj = evolve(spec, initial)

    w = chain.network.rate_matrix()
    occ_rhs = lambda t, rho: np.diag(
        rhs_quasiclassical(np.clip(rho.diagonal().real, 0.0, 1.0), w, FERMION)
    ).astype(complex)
    occ_traj = evolve(
        EvolutionSpec(rhs=occ_rhs, t0=chain.t0, t1=chain.t1, dt=chain.dt,
                      record_every=chain.record_every),
        initial,
    )
    diag_err = max(
        np.abs(np.diag(a).real - np.diag(b).real).max()
        for a, b in zip(matrix_traj.states, occ_traj.states)
    )

    ok = report(
        "5",
        slope_ok and diag_err <= 1e-9,
        f"low-density slope {fit.slope:.4f} (2.00 +/- 0.05); "
        f"homogeneous diagonal error {diag_err:.2e} (tol 1e-9)",
    )
    assert ok


# -- criterion 6: structural invariants along bundled trajectories -----------


def _jump_twin(name, network):
    """The bundled scenario ``name``, whose parsed network is ``network``,
    rewritten on its JSON with the network's rank-one jump operators."""
    raw = json.loads(resolve_scenario_path(name).read_text(encoding="utf-8"))
    raw["equation"] = "generalized_jumps"
    raw["name"] = name + "_jumps"
    del raw["network"]
    raw["jump_operators"] = [[[[z.real, z.imag] for z in row] for row in w.tolist()]
                             for w in rank_one_jumps(network)]
    return scenario_from_dict(raw)


def test_criterion_6_bundled_trajectory_invariants():
    names = ["two_state_fermion", "two_state_boson", "homogeneous_chain", "low_density_sweep"]
    worst = {"trace": 0.0, "herm": 0.0, "min_eig": 0.0, "max_eig": 0.0, "duality": 0.0}
    runs = 0
    for name in names:
        base = parse_scenario(resolve_scenario_path(name))
        for scenario in (base, _jump_twin(name, base.network)):
            initial = scenario.start
            spec = EvolutionSpec(
                rhs=_flow(scenario), t0=scenario.t0, t1=scenario.t1,
                dt=scenario.dt, record_every=scenario.record_every,
            )
            traj = evolve(spec, initial)
            runs += 1
            worst["trace"] = max(worst["trace"], np.abs(traj.trace - traj.trace[0]).max())
            worst["herm"] = max(worst["herm"], traj.herm_defect.max())
            worst["min_eig"] = min(worst["min_eig"], traj.min_eig.min())
            if scenario.statistics is FERMION:
                worst["max_eig"] = max(worst["max_eig"], traj.max_eig.max() - 1.0)
                hole_rhs = _flow(scenario).hole()
                eye = np.eye(scenario.dimension, dtype=complex)
                hole_traj = evolve(
                    EvolutionSpec(rhs=hole_rhs, t0=scenario.t0, t1=scenario.t1,
                                  dt=scenario.dt, record_every=scenario.record_every),
                    DensityMatrix(eye - initial.matrix, FERMION),
                )
                residual = max(
                    np.abs(a + b - eye).max()
                    for a, b in zip(traj.states, hole_traj.states)
                )
                worst["duality"] = max(worst["duality"], residual)

    ok = report(
        "6",
        worst["trace"] <= 1e-10
        and worst["herm"] <= 1e-12
        and worst["min_eig"] >= -1e-8
        and worst["max_eig"] <= 1e-8
        and worst["duality"] <= 1e-10,
        f"{runs} trajectories: trace drift {worst['trace']:.1e} (1e-10), "
        f"herm defect {worst['herm']:.1e} (1e-12), min eig {worst['min_eig']:.1e} (-1e-8), "
        f"fermion excess {worst['max_eig']:.1e} (1e-8), duality {worst['duality']:.1e} (1e-10)",
    )
    assert ok


# -- criterion 7: no gain of an empty orbital under the decay-only flow ------


def test_criterion_7_empty_orbital_diagonal_is_pinned():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g[0, :] = 0.0
        rho = g @ g.conj().T
        h = rand_hermitian(rng, n)
        a = rand_hermitian(rng, n)
        out = OperatorFlow(h, a, np.zeros_like(a), None).evaluate(rho)
        worst = max(worst, abs(out[0, 0]))
    ok = report("7", worst <= 1e-13, f"200 random states: max |d n_phi/dt| = {worst:.1e}, tol 1e-13")
    assert ok


# -- criterion 8: exact Fock oracle closure -----------------------------------


def _algebra_defect(model):
    """The canonical (anti)commutation defect of the reference mode operators
    on the full Fock space, and the largest deviation of the package's hop
    table from c_d^dag c_s restricted to the model's sectors."""
    cs = mode_operators(model)
    levels = level_count(model)
    dim = levels**model.modes
    table = max(
        np.abs(table_operator(model, d, s) - hop_operator(model, d, s)).max()
        for d in range(model.modes) for s in range(model.modes)
    )
    if model.statistics is FERMION:
        worst = 0.0
        for i in range(model.modes):
            for j in range(model.modes):
                worst = max(worst, np.abs(cs[i] @ cs[j] + cs[j] @ cs[i]).max())
                mixed = cs[i] @ cs[j].conj().T + cs[j].conj().T @ cs[i]
                expected = np.eye(dim) if i == j else 0.0
                worst = max(worst, np.abs(mixed - expected).max())
        return worst, table
    occupations = np.arange(dim)[:, None] // levels ** np.arange(model.modes) % levels
    below = np.flatnonzero(occupations.max(axis=1) < levels - 1)
    sub = np.ix_(below, below)
    worst = 0.0
    for i in range(model.modes):
        for j in range(model.modes):
            comm = cs[i] @ cs[j].conj().T - cs[j].conj().T @ cs[i]
            expected = np.eye(dim) if i == j else np.zeros((dim, dim))
            worst = max(worst, np.abs((comm - expected)[sub]).max())
    return worst, table


def test_criterion_8_fock_oracle_closure():
    cases = [
        (
            FockModel(FERMION, (0.0, 1.0), {(1, 0): 1.0, (0, 1): 0.4}),
            [0.8, 0.3],
        ),
        (
            FockModel(FERMION, (0.0, 0.6, 1.3), {(1, 0): 0.8, (2, 1): 0.5, (0, 2): 0.3}),
            [0.9, 0.4, 0.2],
        ),
        (
            FockModel(BOSON, (0.0, 1.0), {(1, 0): 0.6, (0, 1): 0.9}, sectors=(3,)),
            [2, 1],
        ),
    ]
    worst_closure = 0.0
    worst_algebra = 0.0
    worst_table = 0.0
    for model, occupations in cases:
        rho = np.diag(product_populations(model, occupations))
        worst_closure = max(worst_closure, closure_residual_at_t0(model, rho))
        algebra, table = _algebra_defect(model)
        worst_algebra = max(worst_algebra, algebra)
        worst_table = max(worst_table, table)
    ok = report(
        "8",
        worst_closure <= 1e-10 and worst_algebra <= 1e-12 and worst_table <= 1e-15,
        f"closure residual {worst_closure:.1e} (tol 1e-10), "
        f"mode-operator algebra defect {worst_algebra:.1e} (tol 1e-12), "
        f"hop table vs reference {worst_table:.1e} (tol 1e-15)",
    )
    assert ok

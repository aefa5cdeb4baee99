"""Seeded scenario generators, independent reference solutions and output
checks for the three benchmark workloads.

Each workload fixes the shape of its scenario (equation, statistics,
dimension, number of rates or jumps, dt, record cadence and window), so the
cost of a run does not depend on the seed; the seed only draws the numbers.
qme receives nothing but the generated JSON.

The references are written here from the equations, not taken from qme, and
are computed once per seed outside the timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Tolerances sit far above the RK4 error at each workload's dt (below 1e-11
#: for all three) and far below any physical change over the window (> 1e-2).
STATE_TOL = 1e-8
ROUNDOFF_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[np.random.Generator], dict]
    reference: Callable[[dict], dict]
    check: Callable[[dict, dict, Path], list[str]]


# ---------------------------------------------------------------------------
# chain: nonlinear_master on a 5-orbital nearest-neighbour fermion chain
# ---------------------------------------------------------------------------

CHAIN_DIM = 5
CHAIN_DT = 1e-3
CHAIN_T1 = 0.5
CHAIN_RECORD_EVERY = 25


def generate_chain(rng: np.random.Generator) -> dict:
    rates = []
    for i in range(CHAIN_DIM - 1):
        rates.append({"from": i, "to": i + 1, "rate": float(rng.uniform(0.2, 1.0))})
        rates.append({"from": i + 1, "to": i, "rate": float(rng.uniform(0.2, 1.0))})
    return {
        "name": "bench_chain",
        "equation": "nonlinear_master",
        "statistics": "fermion",
        "dimension": CHAIN_DIM,
        "initial": {"diagonal": [float(v) for v in rng.uniform(0.1, 0.9, CHAIN_DIM)]},
        "hamiltonian": {"diagonal": [float(v) for v in np.sort(rng.uniform(0.0, 3.0, CHAIN_DIM))]},
        "network": {"rates": rates},
        "integrator": {"t0": 0.0, "t1": CHAIN_T1, "dt": CHAIN_DT,
                       "record_every": CHAIN_RECORD_EVERY},
    }


def _fermion_kinetics(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    # df_p/dt = sum_q w[p,q] f_q (1 - f_p) - w[q,p] f_p (1 - f_q)
    gain = (1.0 - f) * (w @ f)
    loss = f * (w.T @ (1.0 - f))
    return gain - loss


def reference_chain(raw: dict) -> dict:
    from scipy.integrate import solve_ivp

    w = np.zeros((CHAIN_DIM, CHAIN_DIM))
    for item in raw["network"]["rates"]:
        w[item["to"], item["from"]] = item["rate"]
    times = _snapshot_times(raw["integrator"])
    sol = solve_ivp(lambda t, f: _fermion_kinetics(f, w), (times[0], times[-1]),
                    np.array(raw["initial"]["diagonal"]), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    return {"times": times, "diagonals": sol.y.T}


def check_chain(raw: dict, ref: dict, folder: Path) -> list[str]:
    errors = []
    summary = json.loads((folder / "summary.json").read_text())
    times, states = _read_states(folder / "states.csv", CHAIN_DIM)
    if not np.allclose(times, ref["times"], rtol=0.0, atol=1e-12):
        return [f"chain: snapshot times {len(times)} differ from the expected grid"]
    diagonals = np.einsum("kii->ki", states)
    off = np.abs(states - diagonals[:, :, None] * np.eye(CHAIN_DIM)).max()
    if off > ROUNDOFF_TOL:
        errors.append(f"chain: state left the diagonal by {off:.3e}")
    diag_err = np.abs(diagonals.real - ref["diagonals"]).max()
    if diag_err > STATE_TOL:
        errors.append(f"chain: diagonal deviates from the kinetics by {diag_err:.3e}")
    errors += _check_roundoff(summary, ("trace_drift_max", "duality_residual_max"), "chain")
    return errors


# ---------------------------------------------------------------------------
# jumps_dense: generalized_jumps with dense operators at d = 32
# ---------------------------------------------------------------------------

JUMPS_DIM = 32
JUMPS_COUNT = 4
JUMPS_DT = 2e-3
JUMPS_T1 = 0.15


def _random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _matrix_json(m: np.ndarray) -> list:
    return [[float(z.real) if z.imag == 0.0 else [float(z.real), float(z.imag)] for z in row]
            for row in m]


def generate_jumps_dense(rng: np.random.Generator) -> dict:
    d = JUMPS_DIM
    x = _random_complex(rng, (d, d))
    h = (x + x.conj().T) / (2.0 * np.sqrt(d))
    # E|W_ij|^2 = 1/d, so each W W^dag has diagonal ~1: decay rates of order one
    jumps = [_random_complex(rng, (d, d)) * np.sqrt(0.5 / d) for _ in range(JUMPS_COUNT)]
    q, _ = np.linalg.qr(_random_complex(rng, (d, d)))
    rho = (q * rng.uniform(0.2, 0.8, d)) @ q.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return {
        "name": "bench_jumps_dense",
        "equation": "generalized_jumps",
        "statistics": "fermion",
        "dimension": d,
        "initial": {"matrix": _matrix_json(rho)},
        "hamiltonian": {"matrix": _matrix_json(h)},
        "jump_operators": [_matrix_json(w) for w in jumps],
        "integrator": {"t0": 0.0, "t1": JUMPS_T1, "dt": JUMPS_DT, "record_every": 1},
    }


def _complex_matrix(rows) -> np.ndarray:
    return np.array([[complex(*v) if isinstance(v, list) else complex(v) for v in row]
                     for row in rows])


def _fermion_jumps_flow(h: np.ndarray, jumps: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    # -i[H, rho] - 1/2 sum {rho, W (I - rho) W^dag} + 1/2 sum {I - rho, W^dag rho W}
    vac = np.eye(rho.shape[0]) - rho
    out = -1j * (h @ rho - rho @ h)
    for w in jumps:
        drain = w @ vac @ w.conj().T
        feed = w.conj().T @ rho @ w
        out += -0.5 * (rho @ drain + drain @ rho) + 0.5 * (vac @ feed + feed @ vac)
    return out


def reference_jumps_dense(raw: dict) -> dict:
    from scipy.integrate import solve_ivp

    d = JUMPS_DIM
    h = _complex_matrix(raw["hamiltonian"]["matrix"])
    jumps = [_complex_matrix(w) for w in raw["jump_operators"]]
    rho0 = _complex_matrix(raw["initial"]["matrix"])
    times = _snapshot_times(raw["integrator"])
    sol = solve_ivp(lambda t, y: _fermion_jumps_flow(h, jumps, y.reshape(d, d)).ravel(),
                    (times[0], times[-1]), rho0.ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    return {"times": times, "final": sol.y[:, -1].reshape(d, d)}


def check_jumps_dense(raw: dict, ref: dict, folder: Path) -> list[str]:
    errors = []
    summary = json.loads((folder / "summary.json").read_text())
    n_rows = _count_rows(folder / "states.csv")
    if n_rows != len(ref["times"]):
        errors.append(f"jumps_dense: {n_rows} snapshots, expected {len(ref['times'])}")
    t, final = _read_last_state(folder / "states.csv", JUMPS_DIM)
    if abs(t - ref["times"][-1]) > 1e-12:
        errors.append(f"jumps_dense: last snapshot at t={t}, expected {ref['times'][-1]}")
    err = np.abs(final - ref["final"]).max()
    if err > STATE_TOL:
        errors.append(f"jumps_dense: final state deviates from the reference by {err:.3e}")
    if summary["violations"]:
        errors.append(f"jumps_dense: {len(summary['violations'])} bound violations")
    errors += _check_roundoff(summary, ("trace_drift_max", "duality_residual_max"), "jumps_dense")
    return errors


# ---------------------------------------------------------------------------
# oracle_boson: exact Fock oracle, 3 boson modes, cutoff 3 (D = 64)
# ---------------------------------------------------------------------------

ORACLE_MODES = 3
ORACLE_CUTOFF = 3
ORACLE_PARTICLES = 3
ORACLE_DT = 2e-3
ORACLE_T1 = 0.16
ORACLE_RECORD_EVERY = 10


def generate_oracle_boson(rng: np.random.Generator) -> dict:
    occupations = rng.multinomial(ORACLE_PARTICLES, [1.0 / ORACLE_MODES] * ORACLE_MODES)
    rates = [
        {"from": src, "to": dest, "rate": float(rng.uniform(0.2, 1.0))}
        for src in range(ORACLE_MODES) for dest in range(ORACLE_MODES) if src != dest
    ]
    return {
        "name": "bench_oracle_boson",
        "equation": "fock_oracle",
        "statistics": "boson",
        "dimension": ORACLE_MODES,
        "initial": {"occupations": [float(n) for n in occupations]},
        "fock": {"energies": [float(e) for e in rng.uniform(0.0, 2.0, ORACLE_MODES)],
                 "boson_cutoff": ORACLE_CUTOFF},
        "network": {"rates": rates},
        "integrator": {"t0": 0.0, "t1": ORACLE_T1, "dt": ORACLE_DT,
                       "record_every": ORACLE_RECORD_EVERY},
    }


def reference_oracle_boson(raw: dict) -> dict:
    """Classical master equation on the occupation configurations: a jump
    src -> dest moves a configuration with n_src >= 1 at rate
    w n_src (n_dest + 1).  Total number 3 never exceeds the cutoff, so the
    truncated Fock space loses nothing."""
    from scipy.linalg import expm

    level = ORACLE_CUTOFF + 1
    configs = [tuple((k // level**m) % level for m in range(ORACLE_MODES))
               for k in range(level**ORACLE_MODES)]
    index = {c: k for k, c in enumerate(configs)}
    gen = np.zeros((len(configs), len(configs)))
    for item in raw["network"]["rates"]:
        src, dest, w = item["from"], item["to"], item["rate"]
        for k, c in enumerate(configs):
            if c[src] == 0 or c[dest] == ORACLE_CUTOFF:
                continue
            moved = list(c)
            moved[src] -= 1
            moved[dest] += 1
            rate = w * c[src] * (c[dest] + 1)
            gen[index[tuple(moved)], k] += rate
            gen[k, k] -= rate
    p0 = np.zeros(len(configs))
    p0[index[tuple(int(n) for n in raw["initial"]["occupations"])]] = 1.0
    times = _snapshot_times(raw["integrator"])
    p1 = expm(gen * (times[-1] - times[0])) @ p0
    occupations = np.array(configs, dtype=float).T @ p1
    return {"times": times, "occupations": occupations}


def check_oracle_boson(raw: dict, ref: dict, folder: Path) -> list[str]:
    errors = []
    summary = json.loads((folder / "summary.json").read_text())
    n_rows = _count_rows(folder / "states.csv")
    if n_rows != len(ref["times"]):
        errors.append(f"oracle_boson: {n_rows} snapshots, expected {len(ref['times'])}")
    t, final = _read_last_state(folder / "states.csv", ORACLE_MODES)
    if abs(t - ref["times"][-1]) > 1e-12:
        errors.append(f"oracle_boson: last snapshot at t={t}, expected {ref['times'][-1]}")
    err = np.abs(np.diag(final).real - ref["occupations"]).max()
    if err > STATE_TOL:
        errors.append(f"oracle_boson: final occupations deviate from the reference by {err:.3e}")
    errors += _check_roundoff(summary, ("closure_residual_t0", "many_body_trace_drift"),
                              "oracle_boson")
    return errors


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _snapshot_times(integ: dict) -> np.ndarray:
    """Recorded times of the fixed-step integrator for windows that are a
    whole number of record intervals."""
    t0, t1, dt, every = integ["t0"], integ["t1"], integ["dt"], integ["record_every"]
    n_steps = int(np.floor((t1 - t0) / dt + 1e-9))
    return t0 + dt * np.arange(0, n_steps + 1, every)


def _check_roundoff(summary: dict, keys, label: str) -> list[str]:
    errors = []
    for key in keys:
        if key not in summary:
            errors.append(f"{label}: summary.json lacks {key}")
        elif not summary[key] <= ROUNDOFF_TOL:
            errors.append(f"{label}: {key} = {summary[key]:.3e} exceeds {ROUNDOFF_TOL:g}")
    return errors


def _parse_row(line: str, dim: int) -> tuple[float, np.ndarray]:
    values = np.array(line.split(","), dtype=float)
    pairs = values[1:].reshape(dim, dim, 2)
    return float(values[0]), pairs[..., 0] + 1j * pairs[..., 1]


def _read_states(path: Path, dim: int) -> tuple[np.ndarray, np.ndarray]:
    rows = [_parse_row(line, dim) for line in path.read_text().splitlines()[1:]]
    return np.array([t for t, _ in rows]), np.array([m for _, m in rows])


def _read_last_state(path: Path, dim: int) -> tuple[float, np.ndarray]:
    return _parse_row(path.read_text().rstrip("\n").rsplit("\n", 1)[-1], dim)


def _count_rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1


#: Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain", generate_chain, reference_chain, check_chain),
        Workload("jumps_dense", generate_jumps_dense, reference_jumps_dense, check_jumps_dense),
        Workload("oracle_boson", generate_oracle_boson, reference_oracle_boson,
                 check_oracle_boson),
    )
}


def scenario_bytes(workload: str, seed: int) -> bytes:
    """The generated scenario file of ``workload`` at ``seed``."""
    raw = WORKLOADS[workload].generate(np.random.default_rng(seed))
    return (json.dumps(raw) + "\n").encode("utf-8")

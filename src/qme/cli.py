"""Scenario-file-driven runner.

A scenario is a JSON document naming one evolution equation, its parameter
groups, an initial state and an integration window.  ``run`` integrates it and
writes three artifacts into the output directory:

* ``states.csv``       - t, then row-major Re/Im pairs of every state entry;
* ``diagnostics.csv``  - t, trace, min_eig, max_eig, herm_defect and, for
  fermionic particle/hole-symmetric runs, duality_residual;
* ``summary.json``     - final spectrum, bound violations, wall time.

Exit codes: 0 success, 1 operational error (bad file, divergence), 2 when a
bound violation shows up in a scenario that did not declare
``expect_violations``.  Numbers are serialized with 17 significant digits so
identical inputs give byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import (
    _duality_residuals,
    bounds_monitor,
    dephasing_counterexample_matrix,
    first_crossing_time,
)
from .dynamics import (
    DephasingRates,
    JumpFlow,
    NetworkFlow,
    OperatorFlow,
    QuasiclassicalFlow,
    Statistics,
    TransitionNetwork,
    hole_transform,
)
# Not called here: the benchmark's tracer (perfbench/tracing.py) wraps this
# name in this module and fails if it is missing.  Keep it until the
# benchmark's list of traced names drops it.
from .dynamics import build_relaxation_operators  # noqa: F401
from .fock_oracle import (
    FockModel,
    closure_residual_at_t0,
    cutoff_contamination,
    product_diagonal_state,
    reduce_one_particle,
    rhs_fock_lindblad,
)
from .integrator import EvolutionSpec, IntegrationDivergedError, Trajectory, evolve
from .operators import DensityMatrix, hermiticity_defect, require_hermitian

OUT_DIR_ENV = "QME_OUT_DIR"
#: Most steps (t1 - t0)/dt a window may take: 1000x the largest bundled run
#: (appendix_d, 10^4 steps), so a tiny dt cannot hang a run.
MAX_STEPS = 10**7

_COMMON_KEYS = {
    "name",
    "equation",
    "statistics",
    "dimension",
    "initial",
    "hamiltonian",
    "integrator",
    "output",
    "expect_violations",
}

#: Parameter groups each equation requires / additionally accepts.  The
#: occupation-vector equations build their own Hamiltonian-free flow, so a
#: "hamiltonian" key there is an extra and gets rejected.
_EQUATIONS: dict[str, dict] = {
    "meanfield_nonhermitian": {"required": {"a_operator"}, "optional": set()},
    "general": {"required": {"loss_operator", "gain_operator"}, "optional": set()},
    "nonlinear_master": {"required": {"network"}, "optional": set()},
    "generalized_jumps": {"required": {"jump_operators"}, "optional": set()},
    "markoff": {"required": {"network"}, "optional": {"dephasing"}},
    "lindblad": {"required": {"jump_operators"}, "optional": set()},
    "quasiclassical": {"required": {"network"}, "optional": set(), "hamiltonian": False},
    "fock_oracle": {"required": {"fock", "network"}, "optional": set(), "hamiltonian": False},
}


class ScenarioError(ValueError):
    """A scenario file violates the schema; the message names the field."""


def _scalar(value, where: str, integer: bool = False):
    """A finite number (a float), or with ``integer`` an int, from scenario
    JSON; bools and strings are rejected, integers are never truncated."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a finite number"
        raise ScenarioError(f"{where}: expected {kind}, got {value!r}")
    if integer:
        return value
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
    return x


def _real_list(values, n: int, where: str) -> list[float]:
    if not isinstance(values, list) or len(values) != n:
        raise ScenarioError(f"{where}: expected {n} real entries")
    return [_scalar(v, f"{where}[{k}]") for k, v in enumerate(values)]


def _entry_to_complex(value, where: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(_scalar(value[0], where), _scalar(value[1], where))
    if isinstance(value, list):
        raise ScenarioError(f"{where}: expected a number or [re, im] pair, got {value!r}")
    return complex(_scalar(value, where))


def _parse_matrix(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise ScenarioError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioError(f"{where}[{i}]: expected {dim} entries")
        for j, value in enumerate(row):
            out[i, j] = _entry_to_complex(value, f"{where}[{i}][{j}]")
    return out


def _entry_from_complex(z: complex):
    return float(z.real) if z.imag == 0.0 else [float(z.real), float(z.imag)]


def _serialize_matrix(m: np.ndarray):
    return [[_entry_from_complex(z) for z in row] for row in np.asarray(m, dtype=complex)]


@dataclass(eq=False)
class Scenario:
    """A parsed, validated scenario; compares equal through its canonical
    serialized form."""

    name: str
    equation: str
    statistics: Statistics
    dimension: int
    initial_kind: str  # "matrix" | "preset" | "occupations"
    initial_value: object
    hamiltonian: np.ndarray | None = None
    network: TransitionNetwork | None = None
    dephasing: DephasingRates | None = None
    jump_operators: tuple[np.ndarray, ...] | None = None
    a_operator: np.ndarray | None = None
    loss_operator: np.ndarray | None = None
    gain_operator: np.ndarray | None = None
    fock_energies: tuple[float, ...] | None = None
    boson_cutoff: int = 4
    t0: float = 0.0
    t1: float = 1.0
    dt: float = 1e-3
    record_every: int = 1
    out_dir: str | None = None
    duality: bool | None = None
    expect_violations: bool = False

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return scenario_to_dict(self) == scenario_to_dict(other)

    def initial_matrix(self) -> np.ndarray:
        """Dense initial density matrix (occupation vectors embed as diagonals)."""
        if self.initial_kind == "matrix":
            return np.array(self.initial_value, dtype=complex)
        if self.initial_kind == "preset":
            if self.initial_value == "empty":
                return np.zeros((self.dimension, self.dimension), dtype=complex)
            if self.initial_value == "appendix_d":
                return dephasing_counterexample_matrix()
            raise ScenarioError(f"initial.preset: unknown preset {self.initial_value!r}")
        return np.diag(np.asarray(self.initial_value, dtype=float)).astype(complex)

    def initial_state(self) -> DensityMatrix:
        # the bundled counterexample matrix is slightly indefinite by design;
        # everything else gets the strict tolerance
        tol = 0.1 if (self.initial_kind, self.initial_value) == ("preset", "appendix_d") else 1e-10
        return DensityMatrix(self.initial_matrix(), self.statistics, tolerance=tol)


def _parse_network(group, dim: int) -> TransitionNetwork:
    if not isinstance(group, dict):
        raise ScenarioError("network: expected an object")
    unknown = set(group) - {"rates", "basis"}
    if unknown:
        raise ScenarioError(f"network: unknown keys {sorted(unknown)}")
    items = group.get("rates", [])
    if not isinstance(items, list):
        raise ScenarioError("network.rates: expected a list")
    rates: dict[tuple[int, int], float] = {}
    for k, item in enumerate(items):
        if not isinstance(item, dict) or set(item) != {"from", "to", "rate"}:
            raise ScenarioError(
                f"network.rates[{k}]: expected an object with keys from, to, rate"
            )
        src = _scalar(item["from"], f"network.rates[{k}].from", integer=True)
        dest = _scalar(item["to"], f"network.rates[{k}].to", integer=True)
        if (dest, src) in rates:
            raise ScenarioError(f"network.rates[{k}]: duplicate transition {src} -> {dest}")
        rates[(dest, src)] = _scalar(item["rate"], f"network.rates[{k}].rate")
    if "basis" in group:
        basis = group["basis"]
        if not isinstance(basis, list) or not basis:
            raise ScenarioError("network.basis: expected a nonempty list of kets")
        for i, col in enumerate(basis):
            if not isinstance(col, list) or len(col) != dim:
                raise ScenarioError(f"network.basis[{i}]: expected a ket of {dim} entries")
        kets = np.array(
            [[_entry_to_complex(v, f"network.basis[{i}][{j}]") for j, v in enumerate(col)]
             for i, col in enumerate(basis)],
            dtype=complex,
        ).T
        try:
            return TransitionNetwork(kets=kets, rates=rates)
        except ValueError as exc:
            raise ScenarioError(f"network: {exc}") from None
    try:
        return TransitionNetwork.computational(dim, rates)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _parse_dephasing(items) -> DephasingRates:
    if not isinstance(items, list):
        raise ScenarioError("dephasing: expected a list")
    gamma: dict[tuple[int, int], float] = {}
    for k, item in enumerate(items):
        if not isinstance(item, dict) or set(item) != {"pair", "rate"}:
            raise ScenarioError(f"dephasing[{k}]: expected an object with keys pair, rate")
        pair = item["pair"]
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(p, int) and not isinstance(p, bool) for p in pair)
        ):
            raise ScenarioError(f"dephasing[{k}].pair: expected two integer orbital indices")
        gamma[(pair[0], pair[1])] = _scalar(item["rate"], f"dephasing[{k}].rate")
    try:
        return DephasingRates(gamma)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _parse_operator(value, dim: int, where: str, hermitian: bool) -> np.ndarray:
    m = _parse_matrix(value, dim, where)
    if hermitian:
        try:
            require_hermitian(m, name=where)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    return m


def scenario_from_dict(raw: dict, source: str = "<dict>") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: scenario must be a JSON object")
    equation = raw.get("equation")
    if equation not in _EQUATIONS:
        raise ScenarioError(
            f"equation: unknown equation {equation!r}; expected one of {sorted(_EQUATIONS)}"
        )
    rules = _EQUATIONS[equation]
    allowed = _COMMON_KEYS | rules["required"] | rules["optional"]
    if not rules.get("hamiltonian", True):
        allowed -= {"hamiltonian"}
    unknown = set(raw) - allowed
    if unknown:
        raise ScenarioError(
            f"{sorted(unknown)}: parameter group(s) not accepted by equation {equation!r}"
        )
    missing = (rules["required"] | {"name", "statistics", "dimension", "initial", "integrator"}) - set(raw)
    if missing:
        raise ScenarioError(f"{sorted(missing)}: required by equation {equation!r} but missing")

    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("name: expected a nonempty string")
    if not isinstance(raw["statistics"], str):
        raise ScenarioError(f"statistics: expected a string, got {raw['statistics']!r}")
    try:
        statistics = Statistics.parse(raw["statistics"])
    except ValueError as exc:
        raise ScenarioError(f"statistics: {exc}") from None
    dimension = _scalar(raw["dimension"], "dimension", integer=True)
    if dimension < 1:
        raise ScenarioError(f"dimension: expected a positive integer, got {dimension!r}")

    # initial state
    initial = raw["initial"]
    if not isinstance(initial, dict) or len(initial) != 1:
        raise ScenarioError(
            "initial: expected exactly one of keys matrix, diagonal, preset, occupations"
        )
    vector_initial = equation in ("quasiclassical", "fock_oracle")
    (ikind, ivalue), = initial.items()
    if ikind == "matrix" and not vector_initial:
        initial_kind, initial_value = "matrix", _parse_matrix(ivalue, dimension, "initial.matrix")
    elif ikind == "diagonal" and not vector_initial:
        initial_kind = "matrix"
        initial_value = np.diag(_real_list(ivalue, dimension, "initial.diagonal")).astype(complex)
    elif ikind == "preset" and not vector_initial:
        if ivalue == "appendix_d" and dimension != 3:
            raise ScenarioError("initial.preset: preset 'appendix_d' requires dimension 3")
        if ivalue not in ("empty", "appendix_d"):
            raise ScenarioError(f"initial.preset: unknown preset {ivalue!r}")
        initial_kind, initial_value = "preset", ivalue
    elif ikind == "occupations" and vector_initial:
        initial_kind = "occupations"
        initial_value = tuple(_real_list(ivalue, dimension, "initial.occupations"))
    else:
        raise ScenarioError(
            f"initial.{ikind}: not a valid initial-state form for equation {equation!r}"
        )

    # hamiltonian
    hamiltonian = None
    if rules.get("hamiltonian", True):
        h_raw = raw.get("hamiltonian", "zero")
        if h_raw == "zero":
            hamiltonian = np.zeros((dimension, dimension), dtype=complex)
        elif isinstance(h_raw, dict) and set(h_raw) == {"diagonal"}:
            diagonal = _real_list(h_raw["diagonal"], dimension, "hamiltonian.diagonal")
            hamiltonian = np.diag(diagonal).astype(complex)
        elif isinstance(h_raw, dict) and set(h_raw) == {"matrix"}:
            hamiltonian = _parse_operator(h_raw["matrix"], dimension, "hamiltonian.matrix", True)
        else:
            raise ScenarioError('hamiltonian: expected "zero", {"diagonal": ...} or {"matrix": ...}')

    network = _parse_network(raw["network"], dimension) if "network" in raw else None
    dephasing = _parse_dephasing(raw["dephasing"]) if "dephasing" in raw else None
    if dephasing is not None:
        for (a, b) in dephasing.gamma:
            if not (0 <= a < dimension and 0 <= b < dimension):
                raise ScenarioError(f"dephasing[({a},{b})]: orbital index out of range")
    jump_operators = None
    if "jump_operators" in raw:
        items = raw["jump_operators"]
        if not isinstance(items, list):
            raise ScenarioError("jump_operators: expected a list of matrices")
        jump_operators = tuple(
            _parse_matrix(m, dimension, f"jump_operators[{k}]") for k, m in enumerate(items)
        )
    a_operator = (
        _parse_operator(raw["a_operator"], dimension, "a_operator", True)
        if "a_operator" in raw
        else None
    )
    loss_operator = (
        _parse_operator(raw["loss_operator"], dimension, "loss_operator", True)
        if "loss_operator" in raw
        else None
    )
    gain_operator = (
        _parse_operator(raw["gain_operator"], dimension, "gain_operator", True)
        if "gain_operator" in raw
        else None
    )

    fock_energies = None
    boson_cutoff = 4
    if "fock" in raw:
        fock = raw["fock"]
        if not isinstance(fock, dict) or not {"energies"} <= set(fock) <= {"energies", "boson_cutoff"}:
            raise ScenarioError("fock: expected an object with key energies (and optional boson_cutoff)")
        fock_energies = tuple(_real_list(fock["energies"], dimension, "fock.energies"))
        boson_cutoff = _scalar(fock.get("boson_cutoff", 4), "fock.boson_cutoff", integer=True)

    integ = raw["integrator"]
    if not isinstance(integ, dict) or not {"t1"} <= set(integ) <= {"t0", "t1", "dt", "record_every"}:
        raise ScenarioError("integrator: expected an object with keys t0, t1, dt, record_every")
    t0 = _scalar(integ.get("t0", 0.0), "integrator.t0")
    t1 = _scalar(integ["t1"], "integrator.t1")
    dt = _scalar(integ.get("dt", 1e-3), "integrator.dt")
    record_every = _scalar(integ.get("record_every", 1), "integrator.record_every", integer=True)
    if dt <= 0:
        raise ScenarioError(f"integrator.dt: must be positive, got {dt}")
    if t1 <= t0:
        raise ScenarioError(f"integrator.t1: must exceed t0, got t0={t0}, t1={t1}")
    if record_every < 1:
        raise ScenarioError(f"integrator.record_every: must be a positive integer, got {record_every}")
    steps = (t1 - t0) / dt
    if not steps <= MAX_STEPS:
        raise ScenarioError(
            f"integrator.dt: the window takes {steps:.3g} steps of dt={dt}, more than {MAX_STEPS}"
        )

    out_dir = None
    duality = None
    if "output" in raw:
        output = raw["output"]
        if not isinstance(output, dict) or not set(output) <= {"dir", "duality"}:
            raise ScenarioError("output: expected an object with optional keys dir, duality")
        out_dir = output.get("dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ScenarioError("output.dir: expected a string")
        duality = output.get("duality")
        if duality is not None and not isinstance(duality, bool):
            raise ScenarioError("output.duality: expected a boolean")

    expect_violations = raw.get("expect_violations", False)
    if not isinstance(expect_violations, bool):
        raise ScenarioError("expect_violations: expected a boolean")

    scenario = Scenario(
        name=name,
        equation=equation,
        statistics=statistics,
        dimension=dimension,
        initial_kind=initial_kind,
        initial_value=initial_value,
        hamiltonian=hamiltonian,
        network=network,
        dephasing=dephasing,
        jump_operators=jump_operators,
        a_operator=a_operator,
        loss_operator=loss_operator,
        gain_operator=gain_operator,
        fock_energies=fock_energies,
        boson_cutoff=boson_cutoff,
        t0=t0,
        t1=t1,
        dt=dt,
        record_every=record_every,
        out_dir=out_dir,
        duality=duality,
        expect_violations=expect_violations,
    )
    # fail fast on an invalid initial state (dimension/PSD/occupation bounds)
    if equation == "fock_oracle":
        _fock_model(scenario)  # validates modes/rates/cutoff
        _fock_initial(scenario)
    elif equation == "quasiclassical":
        _quasiclassical_initial(scenario)
    else:
        try:
            scenario.initial_state()
        except ValueError as exc:
            raise ScenarioError(f"initial: {exc}") from None
    return scenario


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file (UTF-8 JSON)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    return scenario_from_dict(raw, source=str(path))


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical JSON-compatible form; parsing it back yields an equal Scenario."""
    out: dict = {
        "name": s.name,
        "equation": s.equation,
        "statistics": s.statistics.value,
        "dimension": s.dimension,
    }
    if s.initial_kind == "matrix":
        out["initial"] = {"matrix": _serialize_matrix(s.initial_value)}
    elif s.initial_kind == "preset":
        out["initial"] = {"preset": s.initial_value}
    else:
        out["initial"] = {"occupations": [float(v) for v in s.initial_value]}
    if s.equation not in ("quasiclassical", "fock_oracle"):
        out["hamiltonian"] = (
            "zero" if not np.any(s.hamiltonian) else {"matrix": _serialize_matrix(s.hamiltonian)}
        )
    if s.network is not None:
        net: dict = {
            "rates": [
                {"from": src, "to": dest, "rate": float(w)}
                for (dest, src), w in sorted(s.network.rates.items())
            ]
        }
        if not np.array_equal(s.network.kets, np.eye(s.network.dim)):
            net["basis"] = [
                [_entry_from_complex(z) for z in s.network.kets[:, k]]
                for k in range(s.network.n_orbitals)
            ]
        out["network"] = net
    if s.dephasing is not None:
        out["dephasing"] = [
            {"pair": [a, b], "rate": float(g)}
            for (a, b), g in sorted(s.dephasing.gamma.items())
            if a < b
        ]
    if s.jump_operators is not None:
        out["jump_operators"] = [_serialize_matrix(w) for w in s.jump_operators]
    for key in ("a_operator", "loss_operator", "gain_operator"):
        value = getattr(s, key)
        if value is not None:
            out[key] = _serialize_matrix(value)
    if s.fock_energies is not None:
        out["fock"] = {"energies": [float(e) for e in s.fock_energies], "boson_cutoff": s.boson_cutoff}
    out["integrator"] = {"t0": s.t0, "t1": s.t1, "dt": s.dt, "record_every": s.record_every}
    output: dict = {}
    if s.out_dir is not None:
        output["dir"] = s.out_dir
    if s.duality is not None:
        output["duality"] = s.duality
    if output:
        out["output"] = output
    if s.expect_violations:
        out["expect_violations"] = True
    return out


# ---------------------------------------------------------------------------
# Dispatch and execution
# ---------------------------------------------------------------------------


def _fock_model(s: Scenario) -> FockModel:
    try:
        return FockModel(
            statistics=s.statistics,
            energies=s.fock_energies,
            rates=dict(s.network.rates),
            boson_cutoff=s.boson_cutoff,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _fock_initial(s: Scenario) -> np.ndarray:
    try:
        return product_diagonal_state(_fock_model(s), s.initial_value)
    except ValueError as exc:
        raise ScenarioError(f"initial: {exc}") from None


def _quasiclassical_initial(s: Scenario) -> np.ndarray:
    occ = np.asarray(s.initial_value, dtype=float)
    if np.any(occ < 0):
        raise ScenarioError("initial.occupations: negative occupation")
    if s.statistics is Statistics.FERMION and np.any(occ > 1):
        raise ScenarioError("initial.occupations: fermion occupation exceeds 1")
    return occ


def _build_rhs(s: Scenario):
    """The scenario's flow (matrix-valued states), built and validated once."""
    h = s.hamiltonian
    stats = s.statistics
    if s.equation == "meanfield_nonhermitian":
        return OperatorFlow(h, s.a_operator, np.zeros_like(s.a_operator), None)
    if s.equation == "general":
        return OperatorFlow(h, s.loss_operator, s.gain_operator, stats)
    if s.equation == "nonlinear_master":
        return NetworkFlow(h, s.network, stats)
    if s.equation == "generalized_jumps":
        return JumpFlow(h, s.jump_operators, stats)
    if s.equation == "markoff":
        return NetworkFlow(h, s.network, None, s.dephasing)
    if s.equation == "lindblad":
        return JumpFlow(h, s.jump_operators, None)
    if s.equation == "quasiclassical":
        return QuasiclassicalFlow(s.network, stats)
    raise ScenarioError(f"equation: no runner for {s.equation!r}")


_DUALITY_EQUATIONS = {"general", "nonlinear_master", "generalized_jumps"}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_states_csv(path: Path, traj: Trajectory) -> None:
    dim = traj.states[0].shape[0]
    header = ["t"]
    for i in range(dim):
        for j in range(dim):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    lines = [",".join(header)]
    for t, m in zip(traj.times, traj.states):
        row = [_fmt(t)]
        for i in range(dim):
            for j in range(dim):
                row += [_fmt(m[i, j].real), _fmt(m[i, j].imag)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_diagnostics_csv(path: Path, traj: Trajectory, duality=None) -> None:
    header = "t,trace,min_eig,max_eig,herm_defect"
    if duality is not None:
        header += ",duality_residual"
    lines = [header]
    for k in range(len(traj)):
        row = [
            _fmt(traj.times[k]),
            _fmt(traj.trace[k]),
            _fmt(traj.min_eig[k]),
            _fmt(traj.max_eig[k]),
            _fmt(traj.herm_defect[k]),
        ]
        if duality is not None:
            row.append(_fmt(duality[k]))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _resolve_out_dir(s: Scenario, out_dir: str | None) -> Path:
    if out_dir is not None:
        return Path(out_dir)
    if s.out_dir is not None:
        return Path(s.out_dir)
    root = os.environ.get(OUT_DIR_ENV, ".")
    return Path(root) / s.name


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply ``key=value`` items to a raw scenario dict.  Keys are dot paths
    (``integrator.dt``); the bare integrator fields t0, t1, dt, record_every
    are accepted as shorthand.  Values parse as JSON, falling back to string.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"override {item!r}: expected key=value")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        parts = key.split(".")
        if len(parts) == 1 and parts[0] in ("t0", "t1", "dt", "record_every"):
            parts = ["integrator", parts[0]]
        node = raw
        for p in parts[:-1]:
            if not isinstance(node.get(p), dict):
                node[p] = {}
            node = node[p]
        node[parts[-1]] = value
    return raw


def resolve_scenario_path(name) -> Path:
    """A filesystem path as-is, or a bundled scenario by (base)name."""
    p = Path(name)
    if p.exists():
        return p
    base = p.name if p.name.endswith(".json") else p.name + ".json"
    bundled = resources.files("qme").joinpath("scenarios", base)
    if bundled.is_file():
        return Path(str(bundled))
    raise FileNotFoundError(f"scenario file not found: {name}")


def bundled_scenarios() -> list[str]:
    folder = resources.files("qme").joinpath("scenarios")
    return sorted(f.name[:-5] for f in folder.iterdir() if f.name.endswith(".json"))


def run(path, overrides=(), out_dir: str | None = None, quiet: bool = False) -> int:
    """Integrate a scenario file and write states/diagnostics/summary.

    Returns the process exit code: 0 on success, 1 on operational failure,
    2 when bounds were violated but the scenario did not expect it.
    """
    wall_start = time.perf_counter()
    try:
        file = resolve_scenario_path(path)
        raw = json.loads(file.read_text(encoding="utf-8"))
        raw = apply_overrides(raw, overrides)
        scenario = scenario_from_dict(raw, source=str(file))
    except (ScenarioError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    folder = _resolve_out_dir(scenario, out_dir)
    folder.mkdir(parents=True, exist_ok=True)

    try:
        if scenario.equation == "fock_oracle":
            result = _run_fock(scenario)
        else:
            result = _run_matrix(scenario)
    except IntegrationDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    traj, duality, extra = result
    _write_states_csv(folder / "states.csv", traj)
    _write_diagnostics_csv(folder / "diagnostics.csv", traj, duality)

    violations = bounds_monitor(traj, scenario.statistics)
    final = traj.final_state
    final_spectrum = np.linalg.eigvalsh(0.5 * (final + final.conj().T))
    summary = {
        "name": scenario.name,
        "equation": scenario.equation,
        "statistics": scenario.statistics.value,
        "t_final": float(traj.times[-1]),
        "final_spectrum": [float(v) for v in final_spectrum],
        "min_eig_final": float(traj.min_eig[-1]),
        "max_eig_final": float(traj.max_eig[-1]),
        "trace_drift_max": float(np.abs(traj.trace - traj.trace[0]).max()),
        "herm_defect_max": float(np.max(traj.herm_defect)),
        "violations": violations,
        "min_eig_crossing_time": first_crossing_time(traj.times, traj.min_eig, 0.0),
        "wall_time_s": time.perf_counter() - wall_start,
    }
    if duality is not None:
        summary["duality_residual_max"] = float(np.max(duality))
    summary.update(extra)
    (folder / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    unexpected = bool(violations) and not scenario.expect_violations
    if not quiet:
        status = "violations" if violations else "ok"
        print(
            f"{scenario.name}: {scenario.equation}, t in [{scenario.t0:g}, {traj.times[-1]:g}], "
            f"{len(traj)} snapshots, {status} -> {folder}"
        )
    return 2 if unexpected else 0


def _spec(s: Scenario, rhs) -> EvolutionSpec:
    return EvolutionSpec(rhs=rhs, t0=s.t0, t1=s.t1, dt=s.dt, record_every=s.record_every)


def _run_matrix(scenario: Scenario):
    """(trajectory, duality residuals or None, extra summary fields)."""
    if scenario.equation == "quasiclassical":
        occ = _quasiclassical_initial(scenario)
        initial = DensityMatrix(np.diag(occ).astype(complex), scenario.statistics)
    else:
        initial = scenario.initial_state()
    flow = _build_rhs(scenario)
    traj = evolve(_spec(scenario, flow), initial)

    duality = None
    wants_duality = scenario.duality if scenario.duality is not None else True
    if (
        wants_duality
        and scenario.statistics is Statistics.FERMION
        and scenario.equation in _DUALITY_EQUATIONS
    ):
        hole_traj = evolve(_spec(scenario, flow.hole()), hole_transform(initial))
        duality = list(_duality_residuals(traj, hole_traj))
    return traj, duality, {}


def _run_fock(scenario: Scenario):
    """(reduced one-particle trajectory, None, extra summary fields)."""
    model = _fock_model(scenario)
    rho_s0 = _fock_initial(scenario)
    closure = closure_residual_at_t0(model, rho_s0)
    initial = DensityMatrix(rho_s0, scenario.statistics)
    traj = evolve(_spec(scenario, lambda t, rho: rhs_fock_lindblad(model, rho)), initial)

    reduced = [reduce_one_particle(model, m) for m in traj.states]
    extra = {
        "closure_residual_t0": closure,
        "many_body_trace_drift": float(np.abs(traj.trace - traj.trace[0]).max()),
        "cutoff_contamination_final": cutoff_contamination(model, traj.states[-1]),
    }
    reduced_traj = Trajectory.from_states(
        traj.times, reduced, [hermiticity_defect(m) for m in reduced], scenario.statistics
    )
    return reduced_traj, None, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qme",
        description="Run density-matrix evolution scenarios and emit CSV/JSON results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="integrate a scenario file")
    runp.add_argument("scenario", help="scenario file path, or the name of a bundled scenario")
    runp.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario field by dot path (e.g. integrator.dt=1e-4 or dt=1e-4)",
    )
    runp.add_argument("--out-dir", default=None, help="directory for output files")
    runp.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.scenario, overrides=args.override, out_dir=args.out_dir, quiet=args.quiet)
    parser.error(f"unknown command {args.command!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())

"""Scenario-file-driven runner.

A scenario is a JSON document naming one evolution equation, its parameter
groups, an initial state and an integration window.  ``run`` integrates it and
writes three artifacts into the output directory:

* ``states.csv``       - t, then row-major Re/Im pairs of every state entry
  (a 1-D state of occupations as its diagonal matrix);
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
import reprlib
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import (
    APPENDIX_D_TOLERANCE,
    VIOLATION_TOL,
    bounds_monitor,
    dephasing_counterexample_matrix,
    first_crossing_time,
)
from .dynamics import (
    DephasingRates,
    JumpFlow,
    NetworkFlow,
    OccupationFlow,
    OperatorFlow,
    Statistics,
    TransitionNetwork,
    _index_pair,
)
# Not called here: the benchmark's tracer (perfbench/tracing.py) wraps this
# name in this module and fails if it is missing.  Keep it until the
# benchmark's list of traced names drops it.
from .dynamics import build_relaxation_operators  # noqa: F401
from .fock_oracle import (
    FockModel,
    closure_residual_at_t0,
    product_populations,
    reduce_one_particle,
    rhs_fock_lindblad,
    start_sectors,
)
from .integrator import (EvolutionSpec, IntegrationDivergedError, Trajectory,
                         check_snapshot_budget, check_window, evolve, float_cells)
from .operators import DEFAULT_TOL, DensityMatrix, require_hermitian

OUT_DIR_ENV = "QME_OUT_DIR"
#: Largest scenario dimension: 30x the d=32 of the dense-jump benchmark, one
#: 16 MB state; a larger value is refused before anything is allocated.
MAX_DIMENSION = 1024

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

#: The keys of the integrator group, each also an override shorthand.
_INTEGRATOR_KEYS = ("t0", "t1", "dt", "record_every")


@dataclass(frozen=True)
class _Equation:
    """Everything the runner knows about one equation."""

    #: parameter groups the equation requires / additionally accepts
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    #: starts from an occupation vector and builds a Hamiltonian-free flow
    #: that reads only the network's rates, so a "hamiltonian" key and a
    #: "network.basis" are extras and get rejected
    occupations: bool = False
    #: fermion runs co-evolve the hole flow ``flow.hole()`` for the duality
    #: residual, in one state with the particle flow: the pair
    #: ``flow.paired()``, whose members keep the bits of lone particle and
    #: hole runs, on matrices or occupations alike
    dual: bool = False
    #: scenario -> flow on matrix states; None for the Fock oracle (``_run_fock``)
    build: Callable | None = None


#: The one record of every equation: parsing, flow building, dispatch and
#: hole co-evolution all read it.
_EQUATIONS: dict[str, _Equation] = {
    "meanfield_nonhermitian": _Equation(("a_operator",), build=lambda s: OperatorFlow(
        s.hamiltonian, s.a_operator, np.zeros_like(s.a_operator), None)),
    "general": _Equation(("loss_operator", "gain_operator"), dual=True, build=lambda s: (
        OperatorFlow(s.hamiltonian, s.loss_operator, s.gain_operator, s.statistics))),
    "nonlinear_master": _Equation(("network",), dual=True, build=lambda s: NetworkFlow(
        s.hamiltonian, s.network, s.statistics)),
    "generalized_jumps": _Equation(("jump_operators",), dual=True, build=lambda s: JumpFlow(
        s.hamiltonian, s.jump_operators, s.statistics)),
    "markoff": _Equation(("network",), ("dephasing",), build=lambda s: NetworkFlow(
        s.hamiltonian, s.network, None, s.dephasing)),
    "lindblad": _Equation(("jump_operators",), build=lambda s: JumpFlow(
        s.hamiltonian, s.jump_operators, None)),
    # the nonlinear_master flow with no Hamiltonian, which runs on the occupations
    "quasiclassical": _Equation(("network",), occupations=True, build=lambda s: NetworkFlow(
        np.zeros((s.dimension, s.dimension)), s.network, s.statistics)),
    "fock_oracle": _Equation(("fock", "network"), occupations=True),
}

#: The hermitian-matrix parameter groups, each stored on the Scenario field of
#: the same name.
_OPERATOR_GROUPS = ("a_operator", "loss_operator", "gain_operator")


class ScenarioError(ValueError):
    """A scenario file violates the schema; the message names the field."""


def _echo(value) -> str:
    """``value`` as an error message shows it: its ``reprlib`` form, cut to at
    most 40 characters, so that one error line stays short whatever the input."""
    text = reprlib.repr(value)
    return text if len(text) <= 40 else f"{text[:18]}...{text[-19:]}"


def _scalar(value, where: str, integer: bool = False):
    """A finite number (a float), or with ``integer`` an int, from scenario
    JSON; bools and strings are rejected, integers are never truncated."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a finite number"
        raise ScenarioError(f"{where}: expected {kind}, got {_echo(value)}")
    if integer:
        return value
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"{where}: expected a finite number, got {_echo(value)}")
    return x


def _real_list(values, n: int, where: str) -> list[float]:
    if not isinstance(values, list) or len(values) != n:
        raise ScenarioError(f"{where}: expected {n} real entries")
    return [_scalar(v, f"{where}[{k}]") for k, v in enumerate(values)]


def _entry_to_complex(value, where: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(_scalar(value[0], where), _scalar(value[1], where))
    if isinstance(value, list):
        raise ScenarioError(f"{where}: expected a number or [re, im] pair, got {_echo(value)}")
    return complex(_scalar(value, where))


#: Exact types of the numbers JSON decodes to (bool is not among them).
_PLAIN = (int, float)


def _plain_matrix(rows, dim: int) -> np.ndarray | None:
    """The matrix of ``dim`` rows of ``dim`` plain numbers or [re, im] pairs,
    typed inline and checked for finiteness once; None for anything else."""
    if type(rows) is not list or len(rows) != dim:
        return None
    re, im = [], []
    for row in rows:
        if type(row) is not list or len(row) != dim:
            return None
        for v in row:
            kind = type(v)
            if kind is float or kind is int:  # not bool: type() is exact
                re.append(v)
                im.append(0.0)
            elif kind is list and len(v) == 2 and type(v[0]) in _PLAIN and type(v[1]) in _PLAIN:
                re.append(v[0])
                im.append(v[1])
            else:
                return None
    try:
        parts = np.array([re, im], dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(parts).all():
        return None
    out = np.empty((dim, dim), dtype=complex)
    out.real = parts[0].reshape(dim, dim)
    out.imag = parts[1].reshape(dim, dim)
    return out


def _parse_matrix(rows, dim: int, where: str) -> np.ndarray:
    out = _plain_matrix(rows, dim)
    if out is not None:
        return out
    # the per-entry path accepts what remains valid and names the first bad entry
    if not isinstance(rows, list) or len(rows) != dim:
        raise ScenarioError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioError(f"{where}[{i}]: expected {dim} entries")
        for j, value in enumerate(row):
            out[i, j] = _entry_to_complex(value, f"{where}[{i}][{j}]")
    return out


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed, validated scenario: the immutable result of one parse,
    whose arrays are read-only.  Variants are made on the raw JSON, with
    :func:`apply_overrides`.

    ``start`` is the run's start state, built and validated once, by the
    parse: a :class:`DensityMatrix`, or for the Fock oracle the populations
    of its product start, on the states of ``model``, the oracle's many-body
    model (None for every other equation)."""

    name: str
    equation: str
    statistics: Statistics
    dimension: int
    start: DensityMatrix | np.ndarray
    model: FockModel | None = None
    hamiltonian: np.ndarray | None = None
    network: TransitionNetwork | None = None
    dephasing: DephasingRates | None = None
    jump_operators: tuple[np.ndarray, ...] | None = None
    a_operator: np.ndarray | None = None
    loss_operator: np.ndarray | None = None
    gain_operator: np.ndarray | None = None
    t0: float = 0.0
    t1: float = 1.0
    dt: float = 1e-3
    record_every: int = 1
    out_dir: str | None = None
    expect_violations: bool = False

    @property
    def dual(self) -> bool:
        """Whether the run co-evolves the hole flow for the duality residual."""
        return _EQUATIONS[self.equation].dual and self.statistics is Statistics.FERMION

    @cached_property
    def occupation_run(self) -> tuple[OccupationFlow, np.ndarray] | None:
        """(flow, start vector) of a run on occupations, or None when the
        matrix is integrated: decided once, for the parse budget and the run.

        An exactly diagonal start (the complex diagonal matrix of its real
        diagonal has its bytes) under a flow that keeps diagonal states
        diagonal runs as its d occupations (``flow.occupation_flow``), which
        a :attr:`dual` run pairs with its d hole occupations, as it pairs a
        matrix with its hole matrix (:func:`_run_matrix`).  Only for such a start under a
        network equation, the one flow that can keep it diagonal
        (:meth:`~qme.dynamics.Flow.occupation_flow`), is the equation's flow
        built here, and only its occupation flow is kept."""
        m = self.start.matrix
        n = m.diagonal().real
        if self.network is None or np.diag(n).astype(complex).tobytes() != m.tobytes():
            return None
        occupations = _EQUATIONS[self.equation].build(self).occupation_flow()
        if occupations is None:
            return None
        return occupations, n


#: Fields that FockModel and TransitionNetwork errors name -> their scenario
#: keys; the oracle's sectors are those of its start.
_FIELDS = {"modes": "dimension", "energies": "fock.energies", "rates": "network.rates",
           "network kets": "network.basis", "occupations": "initial.occupations",
           "sectors": "initial.occupations"}


def _field_error(exc: ValueError) -> ScenarioError:
    """``exc`` with its leading field (before any ``[index]``) renamed by _FIELDS."""
    field, sep, rest = str(exc).partition(": ")
    name, bracket, index = field.partition("[")
    return ScenarioError(_FIELDS.get(name, name) + bracket + index + sep + rest)


def _parse_network(group, dim: int) -> TransitionNetwork:
    if not isinstance(group, dict):
        raise ScenarioError("network: expected an object")
    unknown = set(group) - {"rates", "basis"}
    if unknown:
        raise ScenarioError(f"network: unknown keys {_echo(sorted(unknown))}")
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
            raise ScenarioError(f"network.rates[{k}]: duplicate transition "
                                f"{_echo(src)} -> {_echo(dest)}")
        rates[(dest, src)] = _scalar(item["rate"], f"network.rates[{k}].rate")
    kets = np.eye(dim, dtype=complex)
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
        raise _field_error(exc) from None


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


def _parse_hermitian(value, dim: int, where: str) -> np.ndarray:
    m = _parse_matrix(value, dim, where)
    try:
        require_hermitian(m, name=where)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return m


def scenario_from_dict(raw: dict, source: str = "<dict>") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: scenario must be a JSON object")
    equation = raw.get("equation")
    if not isinstance(equation, str) or equation not in _EQUATIONS:
        raise ScenarioError(
            f"equation: expected one of {', '.join(sorted(_EQUATIONS))}, got {_echo(equation)}"
        )
    rules = _EQUATIONS[equation]
    allowed = _COMMON_KEYS.union(rules.required, rules.optional)
    if rules.occupations:
        allowed.remove("hamiltonian")
    unknown = set(raw) - allowed
    if unknown:
        raise ScenarioError(
            f"{_echo(sorted(unknown))}: parameter group(s) not accepted by equation {equation!r}"
        )
    missing = {"name", "statistics", "dimension", "initial", "integrator", *rules.required} - set(raw)
    if missing:
        raise ScenarioError(f"{sorted(missing)}: required by equation {equation!r} but missing")

    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("name: expected a nonempty string")
    # the name is a directory under $QME_OUT_DIR: it must not step out of it
    if name in (".", "..") or any(c in name for c in "/\\\0"):
        raise ScenarioError(f"name: expected a single path component, got {_echo(name)}")
    if not isinstance(raw["statistics"], str):
        raise ScenarioError(f"statistics: expected a string, got {_echo(raw['statistics'])}")
    try:
        statistics = Statistics.parse(raw["statistics"])
    except ValueError as exc:
        raise ScenarioError(f"statistics: {exc}") from None
    dimension = _scalar(raw["dimension"], "dimension", integer=True)
    if dimension < 1:
        raise ScenarioError(f"dimension: expected a positive integer, got {_echo(dimension)}")
    if dimension > MAX_DIMENSION:
        raise ScenarioError(f"dimension: {_echo(dimension)} exceeds the limit of {MAX_DIMENSION}")

    # initial state
    initial = raw["initial"]
    if not isinstance(initial, dict) or len(initial) != 1:
        raise ScenarioError(
            "initial: expected exactly one of keys matrix, diagonal, preset, occupations"
        )
    # the start matrix and its tolerance, or the occupations of an occupation equation
    (ikind, ivalue), = initial.items()
    tolerance, occupations = DEFAULT_TOL, None
    if ikind == "matrix" and not rules.occupations:
        matrix = _parse_matrix(ivalue, dimension, "initial.matrix")
    elif ikind == "diagonal" and not rules.occupations:
        matrix = np.diag(_real_list(ivalue, dimension, "initial.diagonal")).astype(complex)
    elif ikind == "preset" and not rules.occupations:
        if ivalue == "appendix_d" and dimension != 3:
            raise ScenarioError("initial.preset: preset 'appendix_d' requires dimension 3")
        if ivalue == "empty":
            matrix = np.zeros((dimension, dimension), dtype=complex)
        elif ivalue == "appendix_d":
            # the bundled counterexample matrix is slightly indefinite by
            # design, and takes the loose tolerance
            matrix, tolerance = dephasing_counterexample_matrix(), APPENDIX_D_TOLERANCE
        else:
            raise ScenarioError(f"initial.preset: unknown preset {_echo(ivalue)}")
    elif ikind == "occupations" and rules.occupations:
        occupations = tuple(_real_list(ivalue, dimension, "initial.occupations"))
    else:
        raise ScenarioError(
            f"initial: {_echo(ikind)} is not a valid initial-state form for equation {equation!r}"
        )

    # hamiltonian
    hamiltonian = None
    if not rules.occupations:
        h_raw = raw.get("hamiltonian", "zero")
        if h_raw == "zero":
            hamiltonian = np.zeros((dimension, dimension), dtype=complex)
        elif isinstance(h_raw, dict) and set(h_raw) == {"diagonal"}:
            diagonal = _real_list(h_raw["diagonal"], dimension, "hamiltonian.diagonal")
            hamiltonian = np.diag(diagonal).astype(complex)
        elif isinstance(h_raw, dict) and set(h_raw) == {"matrix"}:
            hamiltonian = _parse_hermitian(h_raw["matrix"], dimension, "hamiltonian.matrix")
        else:
            raise ScenarioError('hamiltonian: expected "zero", {"diagonal": ...} or {"matrix": ...}')

    network = _parse_network(raw["network"], dimension) if "network" in raw else None
    # both occupation equations require the network, so it is a parsed object here
    if rules.occupations and "basis" in raw["network"]:
        raise ScenarioError(f"network.basis: not accepted by equation {equation!r}, "
                            "which reads only the rates")
    dephasing = _parse_dephasing(raw["dephasing"]) if "dephasing" in raw else None
    if dephasing is not None:
        # only markoff takes dephasing, and it requires the network, whose
        # orbitals bound the pairs as its flow does
        n = network.n_orbitals
        for (a, b) in dephasing.gamma:
            if not (0 <= a < n and 0 <= b < n):
                raise ScenarioError(f"dephasing[{_index_pair(a, b)}]: orbital index out of range "
                                    f"for {n} orbitals")
    jump_operators = None
    if "jump_operators" in raw:
        items = raw["jump_operators"]
        if not isinstance(items, list):
            raise ScenarioError("jump_operators: expected a list of matrices")
        jump_operators = tuple(
            _parse_matrix(m, dimension, f"jump_operators[{k}]") for k, m in enumerate(items)
        )
    operators = {k: _parse_hermitian(raw[k], dimension, k) for k in _OPERATOR_GROUPS if k in raw}

    fock_energies = None
    if "fock" in raw:
        fock = raw["fock"]
        if not isinstance(fock, dict) or not {"energies"} <= set(fock) <= {"energies", "boson_cutoff"}:
            raise ScenarioError("fock: expected an object with key energies (and optional boson_cutoff)")
        fock_energies = tuple(_real_list(fock["energies"], dimension, "fock.energies"))
        # accepted for older files, and checked, but a boson sector is complete: nothing is cut off
        if "boson_cutoff" in fock and _scalar(fock["boson_cutoff"], "fock.boson_cutoff", integer=True) < 1:
            raise ScenarioError("fock.boson_cutoff: must be a positive integer")

    integ = raw["integrator"]
    if not isinstance(integ, dict) or not {"t1"} <= set(integ) <= set(_INTEGRATOR_KEYS):
        raise ScenarioError(f"integrator: expected an object with keys {', '.join(_INTEGRATOR_KEYS)}")
    t0 = _scalar(integ.get("t0", 0.0), "integrator.t0")
    t1 = _scalar(integ["t1"], "integrator.t1")
    dt = _scalar(integ.get("dt", 1e-3), "integrator.dt")
    record_every = _scalar(integ.get("record_every", 1), "integrator.record_every", integer=True)
    try:
        steps = check_window(t0, t1, dt, record_every)
    except ValueError as exc:
        raise ScenarioError(f"integrator.{exc}") from None

    out_dir = None
    if "output" in raw:
        output = raw["output"]
        if not isinstance(output, dict) or not set(output) <= {"dir"}:
            raise ScenarioError("output: expected an object with optional key dir")
        out_dir = output.get("dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ScenarioError("output.dir: expected a string")

    expect_violations = raw.get("expect_violations", False)
    if not isinstance(expect_violations, bool):
        raise ScenarioError("expect_violations: expected a boolean")

    # fail fast on an invalid start state: it is built here, once
    model = None
    if fock_energies is not None:
        # the oracle holds the particle-number sectors of its start, and no other
        try:
            model = FockModel(statistics=statistics, energies=fock_energies, rates=network.rates,
                              sectors=start_sectors(statistics, occupations))
            start = product_populations(model, occupations)
        except ValueError as exc:
            raise _field_error(exc) from None
        start.flags.writeable = False
    else:
        if occupations is not None:  # embedded as the diagonal
            occ = np.asarray(occupations, dtype=float)
            if np.any(occ < 0):
                raise ScenarioError("initial.occupations: negative occupation")
            if statistics is Statistics.FERMION and np.any(occ > 1):
                raise ScenarioError("initial.occupations: fermion occupation exceeds 1")
            matrix = np.diag(occ).astype(complex)
        try:
            start = DensityMatrix(matrix, statistics, tolerance=tolerance)
        except ValueError as exc:
            raise ScenarioError(f"initial: {exc}") from None

    # a parsed scenario is never written to, its arrays included (a
    # DensityMatrix keeps its own read-only copy)
    arrays = [hamiltonian, *(jump_operators or ()), *operators.values()]
    if network is not None:
        arrays.append(network.kets)
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    scenario = Scenario(
        name=name,
        equation=equation,
        statistics=statistics,
        dimension=dimension,
        start=start,
        model=model,
        hamiltonian=hamiltonian,
        network=network,
        dephasing=dephasing,
        jump_operators=jump_operators,
        t0=t0,
        t1=t1,
        dt=dt,
        record_every=record_every,
        out_dir=out_dir,
        expect_violations=expect_violations,
        **operators,
    )
    # fail fast on snapshots that would not fit in memory, counted at the lone
    # state the run integrates (populations, occupations or the matrix)
    integrated = start
    if model is None:
        occupation_run = scenario.occupation_run
        integrated = start.matrix if occupation_run is None else occupation_run[1]
    try:
        check_snapshot_budget(steps, record_every, integrated.nbytes)
    except ValueError as exc:
        raise ScenarioError(f"integrator.record_every: {exc}") from None
    return scenario


def _read_json(path: Path):
    text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed, or an integer past Python's digit limit
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file (UTF-8 JSON)."""
    path = Path(path)
    return scenario_from_dict(_read_json(path), source=str(path))


# ---------------------------------------------------------------------------
# Dispatch and execution
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: str, lines) -> None:
    """Write ``header`` and then each of ``lines``, bytes-like pieces of
    the file's text, streamed to a buffered binary handle: a piece need not
    be a whole line, and only the current one is held, never the text."""
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(lines)


#: Columns of a text slot: a sign, the longest ``%.17g`` text of a magnitude
#: (23 characters, as in 2.2250738585072014e-308) and a comma.
_SLOT = 25
_SLOT_COLUMNS = np.arange(_SLOT, dtype=np.uint8)
#: Veltkamp's splitter for doubles, 2^27 + 1.
_SPLITTER = 134217729.0


class _TextTables(NamedTuple):
    """The lookup tables of :func:`_texts`.  All but ``digits`` and
    ``masks`` are indexed by a magnitude's bucket r, the count of ``bounds``
    at or below it: 0 for zero, 1 for (0, 1e-4), 6 + e for a decimal
    exponent e in [-4, 15] and 22 from 1e16 on, inf and NaN included.  A
    bound is the least double at or above its power of ten, so the bucket
    of a double is its exact decimal exponent."""

    bounds: np.ndarray
    #: 10^(16-e), an exact double, and its two halves by Veltkamp's split
    scale: np.ndarray
    scale_high: np.ndarray
    scale_low: np.ndarray
    #: the slot columns of the decimal point and of the text's first digit
    point: np.ndarray
    first: np.ndarray
    #: whether Python formats the bucket
    python: np.ndarray
    #: the ASCII digits of each 4-digit group, as one uint32
    digits: np.ndarray
    #: the mask of a slot's columns start to comma, at start * _SLOT + comma
    masks: np.ndarray


@lru_cache(maxsize=1)
def _text_tables() -> _TextTables:
    """The tables of :func:`_texts`, built with numpy on first use."""
    bounds = [5e-324]
    for e in range(-4, 17):
        c = 10.0 ** e
        num, den = c.as_integer_ratio()
        if e < 0 and num * 10 ** -e < den:
            c = math.nextafter(c, math.inf)
        bounds.append(c)
    scale = np.ones(23)
    scale[2:22] = 10.0 ** np.arange(20, 0, -1)
    split = _SPLITTER * scale
    high = split - (split - scale)
    r = np.arange(23)
    point = np.where((r >= 2) & (r <= 21), r, 6)
    group = np.arange(10000, dtype=np.uint16)
    digits = np.stack((group // 1000, group // 100 % 10, group // 10 % 10, group % 10), axis=1)
    start, comma = np.divmod(np.arange(6 * _SLOT), _SLOT)
    masks = (_SLOT_COLUMNS >= start[:, np.newaxis]) & (_SLOT_COLUMNS <= comma[:, np.newaxis])
    return _TextTables(
        bounds=np.array(bounds), scale=scale, scale_high=high, scale_low=scale - high,
        point=point, first=np.minimum(point - 1, 5),
        python=(r == 1) | (r == 22),
        digits=(digits.astype(np.uint8) + 48).view(np.uint32).ravel(),
        masks=masks.view(f"V{_SLOT}").ravel())


def _mantissas(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The 17-digit mantissa, an int64, of each magnitude ``a`` in the
    fixed-notation range, of bucket ``r`` (:func:`_text_tables`): the exact
    product p + q of ``a`` and its scale, with p rounded by q, ties to even.
    A value of another bucket gets a meaningless one."""
    tables = _text_tables()
    # the values Python formats may overflow or be invalid here
    with np.errstate(over="ignore", invalid="ignore"):
        p = a * tables.scale[r]
        a_high = _SPLITTER * a
        a_high -= a_high - a
        a_low = a - a_high
        s_high, s_low = tables.scale_high[r], tables.scale_low[r]
        # ((a_high s_high - p) + a_high s_low + a_low s_high) + a_low s_low
        q = a_high * s_high
        q -= p
        q += a_high * s_low
        q += a_low * s_high
        q += a_low * s_low
        mantissa = p.astype(np.int64)
        mantissa += np.rint(q, out=q).astype(np.int64)
    return mantissa


def _digit_rows(mantissa: np.ndarray) -> np.ndarray:
    """The ASCII digits of each 17-digit ``mantissa`` down a (24, n) array,
    one digit a row: three rows of ``0``, the five 4-digit groups of
    ``000`` and the mantissa, and one more row of ``0``.  So row i is the
    digit left of column i of a slot once the point is placed, and row
    i - 1 the one right of it (:func:`_texts`)."""
    n = len(mantissa)
    upper, lower = np.divmod(mantissa, 10**8)
    groups = np.empty((5, n), np.int64)
    np.divmod(lower, 10**4, out=(groups[3], groups[4]))
    np.divmod(upper, 10**4, out=(groups[1], groups[2]))
    np.divmod(groups[1], 10**4, out=(groups[0], groups[1]))
    # a group index out of the table is a meaningless mantissa's
    chars = _text_tables().digits.take(groups, mode="clip").view(np.uint8).reshape(5, n, 4)
    pad = np.empty((24, n), np.uint8)
    pad[:3] = pad[23] = 48
    pad[3:23].reshape(5, 4, n)[...] = chars.transpose(0, 2, 1)
    return pad


def _texts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``%.17g`` text of each magnitude of the 1-D float array ``x``, as
    (chars, first, end): ``chars`` is (len(x), _SLOT) uint8, and row k holds
    the text of |x[k]| in columns first[k] to end[k] - 1, a ``-`` just
    before it and a ``,`` at end[k].  So the text of x[k] itself, or of
    0.0 - x[k], is the text of the magnitude with or without the ``-``.

    A magnitude in [1e-4, 1e16), where ``%g`` writes fixed notation, is
    formatted here.  With e its decimal exponent, |v| 10^(16-e) is the exact
    sum p + q of a double and its rounding error (Dekker's product with a
    Veltkamp split, Numer. Math. 18, 224 (1971)): 10^(16-e) is an exact
    double, and p, at least 1e16 > 2^53, is an even integer.  So the
    17-digit mantissa, correctly rounded with ties to even as Python rounds,
    is the integer p + round(q).  No double in the range rounds up to 10^17:
    the one nearest below each power of ten is too far from it.  The digits
    are placed with the point after the integer part, or after ``0`` and
    -e - 1 zeros, and trailing zeros of the fraction are dropped with its
    point.  Zero is written ``0``.  Python formats every other magnitude
    (below 1e-4 or from 1e16 on, inf and NaN), at one call a row."""
    tables = _text_tables()
    n = len(x)
    a = np.abs(x)
    r = tables.bounds.searchsorted(a, "right")
    pad = _digit_rows(_mantissas(a, r))
    point, first = tables.point[r], tables.first[r]
    point8 = point.astype(np.uint8)
    last = ((pad[6:23] != 48) * _SLOT_COLUMNS[6:23, np.newaxis]).max(axis=0)
    # built column by column, one row a value, then transposed
    chars = np.empty((_SLOT, n), np.uint8)
    chars[:23] = pad[1:]
    np.copyto(chars[:23], pad[:23], where=_SLOT_COLUMNS[:23, np.newaxis] > point8)
    at = np.arange(n)
    flat = chars.reshape(-1)
    flat[point * n + at] = 46  # '.'
    end = np.where(last > point8, last + 1, point)
    rows = np.flatnonzero(tables.python[r])
    if rows.size:
        text = np.array(("%.17g," * rows.size % tuple(a[rows].tolist())).split(",")[:-1],
                        dtype="S23").view(np.uint8).reshape(rows.size, 23)
        chars[1:24, rows] = text.T
        first[rows] = 1
        end[rows] = 1 + np.count_nonzero(text, axis=1)
    flat[(first - 1) * n + at] = 45  # '-'
    flat[end * n + at] = 44  # ','
    return np.ascontiguousarray(chars.T), first, end


def _csv_row(x: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The ``states.csv`` row of the texts ``cells`` of the 1-D float array
    ``x``, as uint8 bytes ending in a newline.  Cell c holds the text
    cells[c] of the 2 len(x) texts: those of x, then those of 0.0 - x; the
    cells of a matrix (:func:`~qme.integrator.float_cells`) are read row by
    row.

    Each cell is cut from its value's slot (:func:`_texts`), with the ``-``
    when its text is signed and the ``,`` after it."""
    chars, first, end = _texts(x)
    unsigned = first * _SLOT + end
    # the cells' slots and masks are the row's largest arrays: the texts are
    # freed once gathered, and the masks' patterns once looked up
    slots = chars.view(f"V{_SLOT}").ravel().take(cells % len(x)).view(np.uint8)
    del chars, first, end
    row = slots[_cell_masks(x, unsigned, cells)]
    row[-1] = 10  # the last comma
    return row


def _cell_masks(x: np.ndarray, unsigned: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The flat boolean mask over the slots of :func:`_csv_row`'s cells,
    looked up by each cell's pattern, its first column times _SLOT plus its
    comma's: ``unsigned`` holds those of the unsigned texts."""
    nan, sign = np.isnan(x), np.signbit(x)
    # Python writes a NaN unsigned, and 0.0 - x of a zero as +0.0
    pattern = np.concatenate((unsigned - _SLOT * (sign & ~nan),
                              unsigned - _SLOT * ~(sign | nan | (x == 0.0))))
    return _text_tables().masks.take(pattern.take(cells)).view(bool)


#: From this dimension on, a ``states.csv`` row of a matrix state is built
#: by :func:`_csv_row`.  Below it, one ``%`` call over all of the row's
#: numbers is faster than its fixed cost of about sixty numpy calls.  On
#: packed hermitian rows the two break even near d = 9: 59 against 67 us a
#: row at d = 8, 75 against 70 at d = 9, 925 against 227 at d = 32 (best of
#: 90 rows, a shared 2-core x86-64 host, Python 3.11, numpy 2.4).
_VECTOR_MIN_DIM = 9


def _diagonal_row(dim: int) -> str:
    """The ``states.csv`` row template of a 1-D state of ``dim`` occupations,
    the diagonal of a diagonal matrix: ``%.17g`` in the real part of each
    diagonal entry and ``0``, the text of +0.0, in every other cell."""
    cells = ["0"] * (2 * dim * dim)
    cells[:: 2 * (dim + 1)] = ["%.17g"] * dim
    return ",".join(cells)


def _write_states_csv(path: Path, traj: Trajectory) -> None:
    stored = traj.stored
    dim = stored[0].shape[-1]
    # the list of 2 d^2 column names is freed once joined, before any row
    header = ",".join(
        ["t", *(f"{part}_{i}_{j}" for i in range(dim) for j in range(dim) for part in ("re", "im"))]
    )
    times = np.asarray(traj.times, dtype=float).tolist()
    if stored[0].ndim == 1:
        # d numbers to format a row, where the diagonal matrix has 2 d^2
        row = "%.17g," + _diagonal_row(dim) + "\n"
        lines = ((row % (t, *z.tolist())).encode() for t, z in zip(times, stored))
    elif dim >= _VECTOR_MIN_DIM:
        # the text of t, then the rest of its row
        lines = (piece for t, state in zip(times, stored)
                 for piece in (b"%.17g," % t, _csv_row(*float_cells(state))))
    else:
        row = ",".join(["%.17g"] * (2 * dim * dim + 1)) + "\n"
        floats = (np.concatenate((x, 0.0 - x))[cells] for x, cells in map(float_cells, stored))
        lines = ((row % (t, *x.ravel().tolist())).encode() for t, x in zip(times, floats))
    _write_csv(path, header, lines)


def _write_diagnostics_csv(path: Path, traj: Trajectory) -> None:
    columns = ["t", "trace", "min_eig", "max_eig", "herm_defect"]
    series = [traj.times, traj.trace, traj.min_eig, traj.max_eig, traj.herm_defect]
    if traj.duality is not None:
        columns.append("duality_residual")
        series.append(traj.duality)
    # a handful of unrelated numbers: one format call per row, no deduplication
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(x, dtype=float).tolist() for x in series))
    _write_csv(path, ",".join(columns), ((line % row).encode() for row in rows))


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
            raise ScenarioError(f"override {_echo(item)}: expected key=value")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except ValueError:  # not JSON, or an integer past Python's digit limit
            value = text
        parts = key.split(".")
        if len(parts) == 1 and parts[0] in _INTEGRATOR_KEYS:
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


def _output_error(exc: OSError) -> int:
    print(f"error: output.dir: {exc}", file=sys.stderr)
    return 1


def run(path, overrides=(), out_dir: str | None = None, quiet: bool = False) -> int:
    """Integrate a scenario file and write states/diagnostics/summary.

    Returns the process exit code: 0 on success, 1 on operational failure,
    2 when bounds were violated but the scenario did not expect it.
    """
    wall_start = time.perf_counter()
    try:
        file = resolve_scenario_path(path)
        # the parsed JSON is not bound here, so it is freed before the run starts
        scenario = scenario_from_dict(apply_overrides(_read_json(file), overrides), source=str(file))
    except (ScenarioError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    folder = _resolve_out_dir(scenario, out_dir)
    try:
        folder.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _output_error(exc)

    run_equation = _run_fock if _EQUATIONS[scenario.equation].build is None else _run_matrix
    try:
        traj, extra = run_equation(scenario)
    except (IntegrationDivergedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    violations = bounds_monitor(traj, scenario.statistics)
    summary = {
        "name": scenario.name,
        "equation": scenario.equation,
        "statistics": scenario.statistics.value,
        "t_final": float(traj.times[-1]),
        "final_spectrum": [float(v) for v in traj.final_spectrum],
        "min_eig_final": float(traj.min_eig[-1]),
        "max_eig_final": float(traj.max_eig[-1]),
        "trace_drift_max": float(np.abs(traj.trace - traj.trace[0]).max()),
        "herm_defect_max": float(np.max(traj.herm_defect)),
        "violations": violations,
        # the violation threshold, not 0: a rank-deficient start may sit a
        # rounding error below 0 and still cross it later
        "min_eig_crossing_time": first_crossing_time(traj.times, traj.min_eig, -VIOLATION_TOL),
    }
    if traj.duality is not None:
        summary["duality_residual_max"] = float(np.max(traj.duality))
    summary.update(extra)
    try:
        _write_states_csv(folder / "states.csv", traj)
        _write_diagnostics_csv(folder / "diagnostics.csv", traj)
        summary["wall_time_s"] = time.perf_counter() - wall_start
        (folder / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        return _output_error(exc)

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
    """(trajectory, extra summary fields).

    A run on occupations (:attr:`Scenario.occupation_run`) records the d
    particle occupations of each snapshot, the diagonal of its diagonal
    state.  The matrix run from the same start agrees to rounding (1e-14).
    A :attr:`~Scenario.dual` run steps the particle and hole states as one
    pair (``flow.paired()``), whose members have the bits of lone particle
    and hole runs but where :func:`~qme.integrator.snapshots` says
    otherwise; its trajectory keeps the particle state and the duality
    residual of each snapshot (``traj.duality``)."""
    occupations = scenario.occupation_run
    flow, start = occupations or (_EQUATIONS[scenario.equation].build(scenario), scenario.start)
    traj = evolve(_spec(scenario, flow.paired() if scenario.dual else flow), start)
    return traj, {}


def _run_fock(scenario: Scenario):
    """(reduced one-particle trajectory, extra summary fields): the start
    populations integrated under ``model.populations``.  The coherent flow's
    diagonal is evaluated once, on the populations themselves, with no S x S
    object and no ``model.flow``; the population flow must equal it up to
    roundoff."""
    p0, model = scenario.start, scenario.model
    closure = closure_residual_at_t0(model, p0)
    flow = model.populations
    coherent = rhs_fock_lindblad(model, p0)
    gap = float(np.abs(flow(scenario.t0, p0) - coherent).max())
    if gap > 1e-12 * flow.rate.sum():
        raise ValueError(
            f"fock oracle: the population flow departs from the many-body flow by {gap:.3e} at t0"
        )
    traj = evolve(_spec(scenario, flow), p0)

    # the many-body trace is the plain float sum of the populations
    totals = np.array([p.sum() for p in traj.stored])
    extra = {
        "closure_residual_t0": closure,
        "many_body_trace_drift": float(np.abs(totals - totals[0]).max()),
    }
    # the d occupations of each snapshot, the diagonal of its diagonal
    # one-particle state; a real diagonal is hermitian, so the population
    # run's defects, all 0.0, hold
    reduced = ((t, reduce_one_particle(model, p), defect)
               for t, p, defect in zip(traj.times, traj.stored, traj.herm_defect))
    return Trajectory(reduced), extra


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

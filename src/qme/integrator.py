"""Fixed-step RK4 time stepping for density matrices, with per-step hygiene
and spectral diagnostics.

Positivity is never projected: a state drifting out of the positive cone is a
signal the diagnostics must show, not an artifact to erase.  The only per-step
correction is symmetric hermitization, which on well-conditioned problems
moves the state by less than 1e-12 per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .operators import DEFAULT_TOL, DensityMatrix, Statistics, hermiticity_defect

#: Signature of a right-hand side: (t, rho) -> drho/dt.
RHSCallable = Callable[[float, np.ndarray], np.ndarray]

#: Most steps (t1 - t0)/dt a window may take: 1000x the largest bundled run
#: (appendix_d, 10^4 steps), so a tiny dt cannot hang a run.
MAX_STEPS = 10**7

#: Most bytes the recorded states of one run may take (1 GiB): 64 snapshots
#: at the largest CLI dimension of 1024, 10^5 at d=32.
MAX_SNAPSHOT_BYTES = 2**30


def check_snapshot_budget(steps: float, record_every: int, dim: int) -> None:
    """Refuse a window whose recorded states would exceed MAX_SNAPSHOT_BYTES:
    the start plus every ``record_every``-th of ``steps`` steps (the last one
    always), each a ``dim x dim`` complex matrix of 16-byte entries."""
    stored = (1 + math.ceil(steps / record_every)) * dim * dim * 16
    if stored > MAX_SNAPSHOT_BYTES:
        raise ValueError(
            f"{steps:.3g} steps recorded every {record_every} would store {stored:.3g} bytes "
            f"of {dim}x{dim} states, more than {MAX_SNAPSHOT_BYTES}"
        )


class IntegrationDivergedError(RuntimeError):
    """Raised when any RK stage produces a NaN or Inf."""

    def __init__(self, t: float):
        super().__init__(f"integration diverged at t = {t:.6g} (NaN/Inf in an RK stage)")
        self.t = t


@dataclass
class EvolutionSpec:
    """A frozen integration plan: which RHS, over which window, at which step.

    ``error_tol`` enables optional step halving: each step is compared against
    two half steps and halved until the difference falls below the tolerance.
    """

    rhs: RHSCallable
    t0: float
    t1: float
    dt: float = 1e-3
    record_every: int = 1
    error_tol: float | None = None

    def __post_init__(self):
        for name, value in (("t0", self.t0), ("t1", self.t1), ("dt", self.dt)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t1 <= self.t0:
            raise ValueError(f"t1 ({self.t1}) must exceed t0 ({self.t0})")
        steps = (self.t1 - self.t0) / self.dt
        if not steps <= MAX_STEPS:
            raise ValueError(f"dt ({self.dt}) gives {steps:.3g} steps, more than {MAX_STEPS}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every}")


class Trajectory:
    """Recorded snapshots with per-snapshot diagnostics.

    ``trace``, ``min_eig`` and ``max_eig`` are derived from the states on
    first read unless given to the constructor, so a trajectory whose
    diagnostics nobody reads costs no ``eigvalsh``.  A 1-D state is the
    diagonal of a diagonal density matrix: its eigenvalues are its entries
    and its trace is their sum.
    """

    def __init__(self, times, states, *, herm_defect, statistics: Statistics | None = None,
                 trace=None, min_eig=None, max_eig=None):
        self.times = times
        self.states = states
        self.herm_defect = herm_defect
        self.statistics = statistics
        # given values shadow the cached properties of the same name
        for name, value in (("trace", trace), ("min_eig", min_eig), ("max_eig", max_eig)):
            if value is not None:
                setattr(self, name, value)

    @classmethod
    def from_states(cls, times, states, herm_defect, statistics: Statistics | None) -> "Trajectory":
        """Snapshots whose diagnostics are derived here, on first read: the one
        place a trajectory's diagnostics come from its states."""
        return cls(times=np.array(times), states=list(states), herm_defect=np.array(herm_defect),
                   statistics=statistics)

    @cached_property
    def trace(self) -> np.ndarray:
        return np.array([float(m.sum() if m.ndim == 1 else np.trace(m).real) for m in self.states])

    @cached_property
    def _extremes(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = [], []
        for m in self.states:
            if m.ndim == 1:
                lo.append(m.min())
                hi.append(m.max())
            else:
                e = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
                lo.append(e[0])
                hi.append(e[-1])
        return np.array(lo), np.array(hi)

    @cached_property
    def min_eig(self) -> np.ndarray:
        return self._extremes[0]

    @cached_property
    def max_eig(self) -> np.ndarray:
        return self._extremes[1]

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _rk4_raw(rho: np.ndarray, rhs: RHSCallable, t: float, dt: float) -> np.ndarray:
    # each stage state is checked before it reaches the RHS, so a blow-up
    # surfaces as a diverged error naming t rather than a validation error
    def stage(t_stage: float, state: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(state.view(float))):
            raise IntegrationDivergedError(t)
        return rhs(t_stage, state)

    with np.errstate(over="ignore", invalid="ignore"):
        k1 = stage(t, rho)
        k2 = stage(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = stage(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = stage(t + dt, rho + dt * k3)
        out = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out.view(float))):
        raise IntegrationDivergedError(t)
    return out


def _controlled_step(rho, rhs, t, dt, error_tol, min_dt):
    """Step-halving control: accept dt once one full step agrees with two half
    steps within error_tol; returns (state, dt actually used, raw defect)."""
    while True:
        full = _rk4_raw(rho, rhs, t, dt)
        half = _rk4_raw(rho, rhs, t, 0.5 * dt)
        half = _rk4_raw(half, rhs, t + 0.5 * dt, 0.5 * dt)
        err = float(np.abs(full - half).max())
        if err <= error_tol or dt <= min_dt:
            return half, dt, hermiticity_defect(half)
        dt *= 0.5


def _checked_populations(p: np.ndarray) -> np.ndarray:
    """A float copy of a 1-D population vector: finite and nonnegative
    within DEFAULT_TOL, as the eigenvalues of a density matrix are."""
    if np.iscomplexobj(p):
        raise TypeError("populations: expected a real array")
    p = p.astype(float)
    if not np.isfinite(p).all():
        raise ValueError("populations: entries must be finite (no NaN/Inf)")
    if p.size and p.min() < -DEFAULT_TOL:
        raise ValueError(f"populations: negative entry {p.min():.3e}")
    return p


def evolve(spec: EvolutionSpec, initial: DensityMatrix | np.ndarray) -> Trajectory:
    """Integrate ``initial`` under ``spec`` and record snapshots.

    ``initial`` is a :class:`DensityMatrix`, or a 1-D array of populations:
    the diagonal of a diagonal density matrix, for a flow that keeps it
    diagonal (hermitization leaves such a state unchanged).  The loop lands
    exactly on ``spec.t1`` (a final partial step is taken when the window is
    not a multiple of dt).  Every recorded snapshot carries the hermiticity
    defect of the raw RK4 update before hygiene; its trace and extremal
    eigenvalues are derived when first read.
    """
    populations = isinstance(initial, np.ndarray) and initial.ndim == 1
    if not (populations or isinstance(initial, DensityMatrix)):
        raise TypeError("initial state must be a DensityMatrix or a 1-D array of populations")
    span = spec.t1 - spec.t0
    # a 1-D state is budgeted as the density matrix it is the diagonal of
    dim = len(initial) if populations else initial.dim
    check_snapshot_budget(span / spec.dt, spec.record_every, dim)
    if populations:
        rho, statistics = _checked_populations(initial), None
    else:
        initial.validate()
        rho, statistics = initial.matrix.copy(), initial.statistics

    times = [spec.t0]
    states = [rho.copy()]
    defects = [hermiticity_defect(rho)]

    if spec.error_tol is None:
        # full steps land on t0 + k*dt; a partial step of at least 1e-12*dt
        # closes the window on t1
        n_full = int(np.floor(span / spec.dt + 1e-9))
        remainder = span - n_full * spec.dt
        n_steps = n_full + (remainder >= 1e-12 * spec.dt)
        more = n_steps > 0
    else:
        end = spec.t1 - 1e-12 * max(1.0, abs(spec.t1))
        min_dt = 1e-12 * span
        more = spec.t0 < end
    t = spec.t0
    steps = 0
    while more:
        steps += 1
        if spec.error_tol is None:
            full = steps <= n_full
            raw = _rk4_raw(rho, spec.rhs, t, spec.dt if full else remainder)
            defect = hermiticity_defect(raw)
            t = spec.t0 + steps * spec.dt if full else spec.t1
            more = steps < n_steps
        else:
            raw, used, defect = _controlled_step(rho, spec.rhs, t, min(spec.dt, spec.t1 - t),
                                                 spec.error_tol, min_dt)
            # t stays below t1 while steps remain, so clipping only touches the last
            t = min(t + used, spec.t1)
            more = t < end
        rho = 0.5 * (raw + raw.conj().T)
        if steps % spec.record_every == 0 or not more:
            times.append(t)
            states.append(rho.copy())
            defects.append(defect)
    return Trajectory.from_states(times, states, defects, statistics)

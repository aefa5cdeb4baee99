"""Fixed-step RK4 time stepping for density matrices, with per-step hygiene
and spectral diagnostics.

A flow whose ``affine`` attribute is true is affine in its state and
independent of time, f(x) = L x + c.  One classical RK4 step under it is
exactly x <- x + K x + b, with K = R(hL) - I, R(z) = sum_{k<=4} z^k/k! and
b = h phi(hL) c, phi(z) = 1 + z/2 + z^2/6 + z^3/24 (Hairer & Wanner,
*Solving ODEs II*, sec. IV.2), so such a flow on a small state is stepped by
that map, built for each step size (:func:`_rk4_map`) from one probe of the
flow (:func:`_affine_parts`).

Positivity is never projected: a state drifting out of the positive cone is a
signal the diagnostics must show, not an artifact to erase.  The only per-step
correction is symmetric hermitization, which on well-conditioned problems
moves the state by less than 1e-12 per step.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .operators import DEFAULT_TOL, DensityMatrix, Statistics, hermiticity_defect

#: Signature of a right-hand side: (t, rho) -> drho/dt.
RHSCallable = Callable[[float, np.ndarray], np.ndarray]

#: Most steps (t1 - t0)/dt a window may take: 1000x the largest bundled run
#: (appendix_d, 10^4 steps), so a tiny dt cannot hang a run.
MAX_STEPS = 10**7

#: Most bytes the recorded states of one run may take (1 GiB): 64 matrices at
#: the largest CLI dimension of 1024, 10^5 at d=32, 2^17 populations at D=1024.
MAX_SNAPSHOT_BYTES = 2**30

#: Most float-view entries (2d^2 for a d x d matrix, D for D populations) a
#: state may have for an affine flow to be stepped by its RK4 map.  At 256 a
#: mapped step still costs a third or less of four flow calls, and its build
#: (n + 1 calls, three n x n products) is repaid within 300 steps; at 512 the
#: n^2 product costs as much as the calls it replaces.
AFFINE_MAX_ENTRIES = 256


def check_snapshot_budget(steps: float, record_every: int, state_bytes: int) -> None:
    """Refuse a window whose recorded states would exceed MAX_SNAPSHOT_BYTES:
    the start plus every ``record_every``-th of ``steps`` steps (the last one
    always), each a copy of the stored state of ``state_bytes`` bytes."""
    snapshots = 1 + math.ceil(steps / record_every)
    if snapshots * state_bytes > MAX_SNAPSHOT_BYTES:
        raise ValueError(f"{steps:.3g} steps recorded every {record_every} would store {snapshots} "
                         f"states of {state_bytes} bytes, more than {MAX_SNAPSHOT_BYTES} bytes")


class IntegrationDivergedError(RuntimeError):
    """Raised when a step's result holds a NaN or Inf; ``t`` is the start of
    that step."""

    def __init__(self, t: float):
        super().__init__(f"integration diverged at t = {t:.6g} (NaN/Inf in the step's result)")
        self.t = t


def check_window(t0: float, t1: float, dt: float, record_every: int) -> float:
    """Refuse a window that is not finite, runs backwards, records nothing or
    takes more than MAX_STEPS steps; return its step count ``(t1 - t0)/dt``.
    Each message starts with the name of the field it is about."""
    for name, value in (("t0", t0), ("t1", t1), ("dt", dt)):
        if not np.isfinite(value):
            raise ValueError(f"{name}: must be finite, got {value}")
    if dt <= 0:
        raise ValueError(f"dt: must be positive, got {dt}")
    if t1 <= t0:
        raise ValueError(f"t1: must exceed t0, got t0={t0}, t1={t1}")
    if record_every < 1:
        raise ValueError(f"record_every: must be a positive integer, got {reprlib.repr(record_every)}")
    # no window takes more steps, so a larger value would change nothing
    if record_every > MAX_STEPS:
        raise ValueError(f"record_every: must be at most {MAX_STEPS}")
    steps = (t1 - t0) / dt
    if not steps <= MAX_STEPS:
        raise ValueError(f"dt: the window takes {steps:.3g} steps of dt={dt}, more than {MAX_STEPS}")
    return steps


@dataclass(frozen=True)
class EvolutionSpec:
    """A frozen integration plan: which RHS, over which window, at which step."""

    rhs: RHSCallable
    t0: float
    t1: float
    dt: float = 1e-3
    record_every: int = 1

    def __post_init__(self):
        check_window(self.t0, self.t1, self.dt, self.record_every)


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
    """One classical RK4 step from ``rho`` at ``t``, before hermitization."""
    k1 = rhs(t, rho)
    k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
    k4 = rhs(t + dt, rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _affine_parts(rhs: RHSCallable, t: float,
                  like: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(L, c)`` with rhs(t, x) = L x + c on the float view of states shaped
    like ``like``, from n + 1 flow calls; None unless ``rhs.affine`` is true
    and the state has at most AFFINE_MAX_ENTRIES float-view entries.

    The flow is probed on the float-view unit vectors e_k: c = f(0) and
    L e_k = f(e_k) - c.  This needs the flow to be affine over the reals in
    the real and imaginary parts of its state, not complex-linear, so a flow
    that reads the real part of a diagonal is covered.  Call inside the
    step's ``np.errstate``."""
    n = like.size * (2 if np.iscomplexobj(like) else 1)
    if not getattr(rhs, "affine", False) or n > AFFINE_MAX_ENTRIES:
        return None

    def flow(v: np.ndarray) -> np.ndarray:
        return rhs(t, v.view(like.dtype).reshape(like.shape)).reshape(-1).view(float)

    unit = np.eye(n)
    c = flow(np.zeros(n))
    lin = np.empty((n, n))
    for k in range(n):
        lin[:, k] = flow(unit[k]) - c
    return lin, c


def _rk4_map(lin: np.ndarray, c: np.ndarray,
             dt: float) -> Callable[[np.ndarray], np.ndarray] | None:
    """One RK4 step of size ``dt`` under the affine flow ``(L, c)`` of
    :func:`_affine_parts` as a precomputed map on states, before
    hermitization; None unless every entry of the map is finite.

    The map is built by Horner's rule and applied as the increment
    v + (K v + b), which keeps the rounding of the step's update small
    against the state.  Call inside the step's ``np.errstate``."""
    unit = np.eye(len(c))
    a = dt * lin
    phi = unit + a / 4.0
    phi = unit + (a @ phi) / 3.0
    phi = unit + (a @ phi) / 2.0
    k_map, b = a @ phi, dt * (phi @ c)
    if not (np.isfinite(k_map).all() and np.isfinite(b).all()):
        return None

    def step(rho: np.ndarray) -> np.ndarray:
        v = rho.reshape(-1).view(float)
        inc = k_map @ v
        inc += b
        inc += v
        return inc.view(rho.dtype).reshape(rho.shape)

    return step


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


def snapshots(spec: EvolutionSpec,
              initial: DensityMatrix | np.ndarray) -> Iterator[tuple[float, np.ndarray, float]]:
    """Integrate ``initial`` under ``spec``, yielding ``(t, state, herm_defect)``
    for each recorded step, the start first.

    ``initial`` is a :class:`DensityMatrix`, or a 1-D array of populations:
    the diagonal of a diagonal density matrix, for a flow that keeps it
    diagonal (hermitization leaves such a state unchanged).  The loop lands
    exactly on ``spec.t1`` (a final partial step is taken when the window is
    not a multiple of dt).  ``herm_defect`` is the hermiticity defect of the
    raw RK4 update before hygiene.  The start state and the snapshot budget
    are checked here, at the call, not at the first ``next()``; a consumer
    that keeps no state holds one step's arrays at a time.
    """
    populations = isinstance(initial, np.ndarray) and initial.ndim == 1
    if not (populations or isinstance(initial, DensityMatrix)):
        raise TypeError("initial state must be a DensityMatrix or a 1-D array of populations")
    if populations:
        rho = _checked_populations(initial)
    else:
        initial.validate()
        rho = initial.matrix.copy()
    check_snapshot_budget((spec.t1 - spec.t0) / spec.dt, spec.record_every, rho.nbytes)
    return _steps(spec, rho)


def _steps(spec: EvolutionSpec, rho: np.ndarray) -> Iterator[tuple[float, np.ndarray, float]]:
    """The loop of :func:`snapshots`, from a checked start state ``rho``."""
    yield spec.t0, rho, hermiticity_defect(rho)
    # full steps land on t0 + k*dt; a partial step of at least 1e-12*dt
    # closes the window on t1
    span = spec.t1 - spec.t0
    n_full = int(np.floor(span / spec.dt + 1e-9))
    remainder = span - n_full * spec.dt
    n_steps = n_full + (remainder >= 1e-12 * spec.dt)
    t = spec.t0
    parts = mapped = None
    step = 0
    while step < n_steps:
        # no flow checks its input, so a NaN or Inf in any stage reaches the
        # step's result, which is checked once; overflow on the way is
        # expected.  The error state is set for the steps between two
        # yields, not around the loop: a generator suspended inside it would
        # impose it on its consumer.
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                step += 1
                full = step <= n_full
                dt = spec.dt if full else remainder
                # probed once; a map is built on the first step of each
                # size: the full steps, then the final partial one
                if step == 1:
                    parts = _affine_parts(spec.rhs, spec.t0, rho)
                if parts is not None and (step == 1 or step == n_full + 1):
                    mapped = _rk4_map(*parts, dt)
                raw = _rk4_raw(rho, spec.rhs, t, dt) if mapped is None else mapped(rho)
                # taken on every step, recorded or not: the benchmark's tracer
                # (perfbench/tracing.py) counts steps by these calls
                defect = hermiticity_defect(raw)
                if raw.ndim == 1 and raw.dtype.kind == "f":
                    # a real vector is its own hermitization, which overflows
                    # (a divergence) only past DBL_MAX/2
                    rho = raw
                    finite = np.abs(raw).max(initial=0.0) < 2.0**1023
                else:
                    rho = 0.5 * (raw + raw.conj().T)
                    finite = np.isfinite(rho.view(float)).all()
                if not finite:
                    raise IntegrationDivergedError(t)
                t = spec.t0 + step * spec.dt if full else spec.t1
                if step % spec.record_every == 0 or step == n_steps:
                    break
        yield t, rho, defect


def evolve(spec: EvolutionSpec, initial: DensityMatrix | np.ndarray) -> Trajectory:
    """Integrate ``initial`` under ``spec`` and keep every snapshot of
    :func:`snapshots` in a :class:`Trajectory`, whose trace and extremal
    eigenvalues are derived when first read."""
    times, states, defects = zip(*snapshots(spec, initial))
    statistics = initial.statistics if isinstance(initial, DensityMatrix) else None
    return Trajectory.from_states(times, states, defects, statistics)

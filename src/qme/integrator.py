"""Time stepping for density matrices: an exact map per snapshot interval for
affine flows, fixed-step RK4 for the rest, with hygiene on every result and
spectral diagnostics.

A flow whose ``affine`` attribute is true is affine in its state and
independent of time, f(x) = L x + c.  Its solution over an interval tau is
exp(tau M) applied to (x, 1), with the augmented generator
M = [[L, c], [0, 0]] (Van Loan, IEEE TAC 23, 395 (1978)).  Such a flow on a
small state crosses each snapshot interval by that map, built from one probe
of the flow (:func:`_affine_parts`) once for the full intervals and once for
a shorter last one (:func:`_increment_map`).  Its run has no time-step
error: dt only sets its snapshot grid.  Every other flow takes classical RK4
steps of dt.

:func:`evolve` keeps a run's snapshots in a :class:`Trajectory`, which reads
each state once, as it arrives, for its diagnostics.

Positivity is never projected: a state drifting out of the positive cone is a
signal the diagnostics must show, not an artifact to erase.  The only
correction, after each RK4 step or mapped interval, is symmetric
hermitization, which on well-conditioned problems moves the state by less
than 1e-12 each time.
"""

from __future__ import annotations

import math
import reprlib
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .operators import DEFAULT_TOL, DensityMatrix, hermiticity_defect

#: Signature of a right-hand side: (t, rho) -> drho/dt.
RHSCallable = Callable[[float, np.ndarray], np.ndarray]

#: Most steps (t1 - t0)/dt a window may take: 1000x the largest bundled run
#: (appendix_d, 10^4 steps), so a tiny dt cannot hang a run.
MAX_STEPS = 10**7

#: Most bytes the recorded states of one run may take (1 GiB): 64 matrices at
#: the largest CLI dimension of 1024, 10^5 at d=32, 2^17 populations at D=1024.
#: It counts 16 d^2 bytes a d x d state, the size of the start, while a
#: Trajectory stores each hermitian snapshot packed into 8 d^2: for a
#: hermitian run the budget is conservative by 2x.  A 1-D state is counted
#: and stored at its own 8 bytes an entry.
MAX_SNAPSHOT_BYTES = 2**30

#: Fewest bytes a recorded snapshot is counted at: a stored state is a numpy
#: array of about 100 bytes besides its data, so millions of tiny snapshots
#: are bounded by the objects that hold them, not by their data.
SNAPSHOT_MIN_BYTES = 512

#: Most float-view entries (2d^2 for a d x d matrix, D for D populations) a
#: state may have for an affine flow to cross each snapshot interval by its
#: exact map.  Measured on markoff flows at ||tau M||_1 = 0.5 to 5 (a 2-core
#: x86-64 host, one BLAS thread): at n = 242 the probe and the build (about
#: ten (n+1)^2 products) take 10 and 12 ms, repaid within 140 RK4 steps of
#: 0.16 ms; at n = 512 they take 15 and 54-74 ms, repaid only within 400
#: steps, and the build holds four 2 MB arrays.
AFFINE_MAX_ENTRIES = 256

#: theta_q for Taylor degrees q = 2, 3, ...: the largest ||A||_1 at which
#: e^theta sum_{k>q} theta^(k-1)/k!, a bound on the relative backward error
#: of the degree-q series for exp(A) - I, is at most 2^-53, rounded down.
#: They agree with table 3.1 of Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
#: 488 (2011).  No norm makes a higher degree the cheapest, counting
#: q - 1 + s products.
TAYLOR_THETA = (2.58e-8, 1.38e-5, 3.39e-4, 2.40e-3, 9.06e-3, 2.38e-2, 4.98e-2, 8.94e-2, 0.143,
                0.213)


def check_snapshot_budget(steps: float, record_every: int, state_bytes: int) -> None:
    """Refuse a window whose recorded states would exceed MAX_SNAPSHOT_BYTES:
    the start plus every ``record_every``-th of ``steps`` steps (the last one
    always), each a copy of the stored state of ``state_bytes`` bytes, counted
    at no less than SNAPSHOT_MIN_BYTES."""
    snapshots = 1 + math.ceil(steps / record_every)
    if snapshots * max(state_bytes, SNAPSHOT_MIN_BYTES) > MAX_SNAPSHOT_BYTES:
        counted = "" if state_bytes >= SNAPSHOT_MIN_BYTES else f" (counted as {SNAPSHOT_MIN_BYTES})"
        raise ValueError(f"{steps:.3g} steps recorded every {record_every} would store {snapshots} "
                         f"states of {state_bytes} bytes{counted}, more than {MAX_SNAPSHOT_BYTES} bytes")


class IntegrationDivergedError(RuntimeError):
    """Raised when a step's result, or a mapped interval's, holds a NaN or
    Inf; ``t`` is the start of that step or interval."""

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
    """Recorded snapshots with their diagnostics, built from the
    ``(t, state, herm_defect)`` triples that :func:`snapshots` yields and a
    trajectory iterates as.  Each state is read once, as it arrives, for its
    trace and extremal eigenvalues (:func:`spectrum`), then stored: a
    hermitian matrix as its d^2 independent reals (:func:`_packed`), 8 d^2
    bytes where it takes 16 d^2, and a 1-D state, the diagonal of a diagonal
    density matrix, as given.  ``states`` returns a fresh array on every
    read: each packed state rebuilt bit for bit, each other one a copy."""

    def __init__(self, snapshots):
        # the diagnostics of each snapshot as five doubles, not five objects
        rows, self._stored = array("d"), []
        for t, state, defect in snapshots:
            if state.ndim == 1:
                # summed as the complex diagonal of its matrix, for the bits of
                # np.trace: a float sum moves it by an ulp in 40% of cases
                rows.extend((t, state.astype(complex).sum().real, state.min(), state.max(), defect))
            else:
                e = spectrum(state)
                rows.extend((t, np.trace(state).real, e[0], e[-1], defect))
            self._stored.append(_packed(state))
        self.times, self.trace, self.min_eig, self.max_eig, self.herm_defect = (
            np.frombuffer(rows).reshape(-1, 5).T.copy())

    @property
    def states(self) -> _States:
        """The recorded states, each rebuilt when read."""
        return _States(self._stored)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        """``(t, state, herm_defect)`` per snapshot, as :func:`snapshots` yields."""
        return zip(self.times, self.states, self.herm_defect)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


class _States(Sequence):
    """The states of a trajectory, each rebuilt from its stored form when read."""

    def __init__(self, stored: list):
        self._stored = stored

    def __len__(self) -> int:
        return len(self._stored)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _States(self._stored[index])
        return _unpacked(self._stored[index])

    def __iter__(self) -> Iterator[np.ndarray]:
        return map(_unpacked, self._stored)


@lru_cache(maxsize=8)
def _layout(d: int) -> tuple[np.ndarray, np.ndarray]:
    """How a d x d hermitian matrix is packed: the (1, d, d) mask of the
    entries whose real part is kept (on and above the diagonal; below it the
    imaginary part is), and the (d, 2d) index that gathers the matrix's
    float view, re and im of each entry in turn, from the d^2 packed reals
    followed by 0.0 minus each of them and one +0.0."""
    i, j = np.indices((d, d))
    upper = i <= j
    own, mirror, n = i * d + j, j * d + i, d * d
    real = np.where(upper, own, mirror)
    imag = np.where(upper, np.where(i < j, n + mirror, 2 * n), own)
    index = np.stack((real, imag), axis=-1).reshape(d, 2 * d)
    upper = upper[np.newaxis]
    upper.flags.writeable = index.flags.writeable = False
    return upper, index


def spectrum(state: np.ndarray) -> np.ndarray:
    """The eigenvalues of a recorded state, ascending: of a matrix, those of
    its hermitian part; of a 1-D state, the diagonal of a diagonal matrix,
    its sorted entries."""
    if state.ndim == 1:
        return np.sort(state)
    return np.linalg.eigvalsh(0.5 * (state + state.conj().T))


_PLUS_ZERO = np.zeros(1)
_PLUS_ZERO.flags.writeable = False


def _packed(state: np.ndarray) -> np.ndarray:
    """``state`` as a :class:`Trajectory` stores it: packed when it is a
    complex d x d matrix m that is hermitian by bit pattern, as hygiene
    leaves every state after t0, and otherwise ``state`` itself.

    The packed form is one real array of shape (1, d, d): the real part of m
    on and above the diagonal, its imaginary part below it.  No state has
    three axes, so the shape marks it, and packing it again keeps it.  m is
    hermitian by bit pattern when the packed reals rebuild it byte for byte
    (:func:`_unpacked`): its real part is symmetric in its bits, its
    imaginary diagonal is +0.0, and each imaginary entry above the diagonal
    is 0.0 minus its mirror below it, which is the negation of a nonzero
    value and +0.0 for a zero of either sign, as hermitization makes it.
    The test is that rebuild, so signed zeros, NaN payloads and subnormals
    decide it; a matrix that fails it (a start that is hermitian only within
    tolerance) is kept whole."""
    if state.ndim != 2 or state.dtype != complex:
        return state
    packed = np.where(_layout(len(state))[0], state.real, state.imag)
    return packed if _unpacked(packed).tobytes() == state.tobytes() else state


def _unpacked(stored: np.ndarray) -> np.ndarray:
    """A fresh array of the state ``stored`` holds: a packed matrix
    (:func:`_packed`) rebuilt by one gather, or a copy of a state kept as
    given.  The rebuild only copies and subtracts from 0.0, so every bit of
    a packed state comes back."""
    if stored.ndim != 3:
        return stored.copy()
    reals = stored.reshape(-1)
    source = np.concatenate((reals, 0.0 - reals, _PLUS_ZERO))
    return source[_layout(stored.shape[-1])[1]].view(complex)


def _rk4_raw(rho: np.ndarray, rhs: RHSCallable, t: float, dt: float) -> np.ndarray:
    """One classical RK4 step from ``rho`` at ``t``, before hermitization."""
    k1 = rhs(t, rho)
    k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
    k4 = rhs(t + dt, rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _affine_parts(rhs: RHSCallable, t: float, like: np.ndarray) -> np.ndarray | None:
    """The augmented generator M = [[L, c], [0, 0]] of rhs(t, x) = L x + c on
    the float view of states shaped like ``like``, from n + 1 flow calls; None
    unless ``rhs.affine`` is true and the state has at most
    AFFINE_MAX_ENTRIES float-view entries.

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

    gen = np.zeros((n + 1, n + 1))
    unit = np.zeros(n)
    c = gen[:n, n] = flow(unit)
    for k in range(n):
        unit[k] = 1.0
        gen[:n, k] = flow(unit) - c
        unit[k] = 0.0
    return gen


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(degree q, squarings s) of the cheapest truncated Taylor series for
    exp(A) - I, at ||A||_1 = ``norm`` scaled by 2^-s, that keeps the relative
    backward error of the truncation below the unit roundoff: q - 1 + s
    products, ties to the higher degree and fewer squarings."""
    best = (math.inf, 0, 0)
    for q, theta in enumerate(TAYLOR_THETA, start=2):
        s = math.ceil(math.log2(norm) - math.log2(theta)) if norm > theta else 0
        if q - 1 + s <= best[0]:
            best = (q - 1 + s, q, s)
    return best[1], best[2]


def _increment_map(gen: np.ndarray, tau: float) -> Callable[[np.ndarray], np.ndarray] | None:
    """The exact propagation over ``tau`` under the augmented generator ``gen``
    of :func:`_affine_parts`, as a map on states before hermitization; None
    when ||tau M||_1 overflows or the map has a non-finite entry.

    The increment K = exp(tau M) - I is built directly, so it carries no
    cancellation against I: a Taylor series of degree q in A = 2^-s tau M,
    by Horner's rule K = A (I + A/2 (I + ... (I + A/q))), then s squarings
    K <- K K + 2K (Van Loan, IEEE TAC 23, 395 (1978) for the augmented form;
    scaling and degree chosen by the norm as in Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)).  It is built in place: three (n+1) x (n+1)
    arrays are live besides ``gen``.  With K = [[E - I, b], [0, 0]] a state v
    maps to v + ((E - I) v + b), which keeps the rounding of the update small
    against the state.  Call inside the step's ``np.errstate``."""
    norm = tau * np.abs(gen).sum(axis=0).max()
    if not norm < np.inf:
        return None
    q, s = _taylor_plan(norm)
    n = len(gen)
    # tau M is finite, as its norm is; scaling it afterwards keeps a tiny
    # 2^-s tau out of the subnormal range
    a = gen * tau
    np.ldexp(a, -s, out=a)
    p = a / q
    p.reshape(-1)[:: n + 1] += 1.0
    k_map = np.empty_like(a)
    for k in range(q - 1, 1, -1):
        np.matmul(a, p, out=k_map)
        k_map /= k
        k_map.reshape(-1)[:: n + 1] += 1.0
        p, k_map = k_map, p
    np.matmul(a, p, out=k_map)
    for _ in range(s):
        np.matmul(k_map, k_map, out=p)
        k_map *= 2.0
        k_map += p
    if not np.isfinite(k_map).all():
        return None
    lin, b = k_map[:-1, :-1], k_map[:-1, -1]

    def propagate(rho: np.ndarray) -> np.ndarray:
        v = rho.reshape(-1).view(float)
        inc = lin @ v
        inc += b
        inc += v
        return inc.view(rho.dtype).reshape(rho.shape)

    return propagate


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
    raw update, of the last RK4 step or of the mapped interval, before
    hygiene.  A :class:`DensityMatrix` start is valid by construction and
    read-only, so it is copied, not checked again; populations, which enter
    here, and the snapshot budget are checked at the call, not at the first
    ``next()``.  A consumer that keeps no state holds one step's arrays at a
    time.
    """
    populations = isinstance(initial, np.ndarray) and initial.ndim == 1
    if not (populations or isinstance(initial, DensityMatrix)):
        raise TypeError("initial state must be a DensityMatrix or a 1-D array of populations")
    rho = _checked_populations(initial) if populations else initial.matrix.copy()
    check_snapshot_budget((spec.t1 - spec.t0) / spec.dt, spec.record_every, rho.nbytes)
    return _steps(spec, rho)


def _hermitized(raw: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """The hermitized ``raw`` update and its hermiticity defect; raises
    :class:`IntegrationDivergedError` at ``t`` unless the result is finite.
    Call inside the step's ``np.errstate``."""
    # taken on every RK4 step, recorded or not, and once a snapshot on a
    # mapped interval, through this module's own name: the benchmark's tracer
    # (perfbench/tracing.py) counts steps by these calls, so on a mapped run
    # its step count is the number of intervals
    defect = hermiticity_defect(raw)
    if raw.ndim == 1 and raw.dtype.kind == "f":
        # a real vector is its own hermitization, which overflows (a
        # divergence) only past DBL_MAX/2
        rho = raw
        finite = np.abs(raw).max(initial=0.0) < 2.0**1023
    else:
        rho = 0.5 * (raw + raw.conj().T)
        finite = np.isfinite(rho.view(float)).all()
    if not finite:
        raise IntegrationDivergedError(t)
    return rho, defect


def _steps(spec: EvolutionSpec, rho: np.ndarray) -> Iterator[tuple[float, np.ndarray, float]]:
    """The loop of :func:`snapshots`, from a checked start state ``rho``.

    Snapshots split the window into intervals of ``record_every`` steps, the
    last one possibly shorter.  An affine flow crosses each interval by one
    exact map, built once for the full intervals and once for a shorter last
    one; any other flow, or an interval whose map is not finite, takes RK4
    steps."""
    yield spec.t0, rho, hermiticity_defect(rho)
    # full steps land on t0 + k*dt; a partial step of at least 1e-12*dt
    # closes the window on t1
    span = spec.t1 - spec.t0
    n_full = int(np.floor(span / spec.dt + 1e-9))
    remainder = span - n_full * spec.dt
    n_steps = n_full + (remainder >= 1e-12 * spec.dt)
    full_tau = spec.record_every * spec.dt
    gen = mapped = map_tau = None
    step, t = 0, spec.t0
    while step < n_steps:
        last = min(step + spec.record_every, n_steps)
        t_end = spec.t0 + last * spec.dt if last <= n_full else spec.t1
        # no flow checks its input, so a NaN or Inf in any stage reaches the
        # result, which is checked once; overflow on the way is expected.
        # The error state is set for the work between two yields, not
        # around the loop: a generator suspended inside it would impose it
        # on its consumer.
        with np.errstate(over="ignore", invalid="ignore"):
            if step == 0:
                gen = _affine_parts(spec.rhs, spec.t0, rho)
            tau = full_tau if last - step == spec.record_every and last <= n_full else t_end - t
            if gen is not None and tau != map_tau:
                # the previous map is dropped before the next is built
                mapped = None
                mapped, map_tau = _increment_map(gen, tau), tau
            if mapped is not None:
                rho, defect = _hermitized(mapped(rho), t)
            else:
                for k in range(step + 1, last + 1):
                    full = k <= n_full
                    rho, defect = _hermitized(
                        _rk4_raw(rho, spec.rhs, t, spec.dt if full else remainder), t)
                    t = spec.t0 + k * spec.dt if full else spec.t1
        step, t = last, t_end
        yield t, rho, defect


def evolve(spec: EvolutionSpec, initial: DensityMatrix | np.ndarray) -> Trajectory:
    """Integrate ``initial`` under ``spec`` and keep every snapshot of
    :func:`snapshots` in a :class:`Trajectory`, which reads each state as it
    arrives, so the states of a hermitian run are never held at full size."""
    return Trajectory(snapshots(spec, initial))

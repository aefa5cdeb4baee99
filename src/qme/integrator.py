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

A pair flow (one whose ``pair`` attribute is true, as
:meth:`~qme.dynamics.Flow.paired` makes it) steps a stack of two members,
which its ``start`` makes from the start state, with one RK4 loop, one
hermitization and one finiteness check a step; an affine pair crosses each
interval by one exact map per member, each built from a probe of its member
flow alone.  Its trajectory keeps member 0, and the pair flow's
``residual`` of each snapshot, its duality residual.

Positivity is never projected: a state drifting out of the positive cone is a
signal the diagnostics must show, not an artifact to erase.  The only
correction, after each RK4 step or mapped interval, is symmetric
hermitization, which on well-conditioned problems moves the state by less
than 1e-12 each time.

A run is checked for divergence once per snapshot interval, on the state it
yields (:func:`_finite`).  NaN and Inf are absorbing under an RK4 step and
hermitization, so an RK4 interval whose result diverged is replayed from its
start, each step checked, to name the step that diverged first; the replay
needs the flow to be a pure function of (t, state).
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
#: A snapshot counts at the bytes of the lone start, as a Trajectory keeps
#: one member of a pair: 8 bytes an entry of a 1-D state, stored as given,
#: and 16 d^2 for a d x d matrix, which a Trajectory stores packed into
#: 8 d^2 when it is hermitian, so for a hermitian run the budget is
#: conservative by 2x.
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
    Inf; ``t`` is the start of that step or interval.  A NaN or Inf inside
    an RK4 interval is named at its own step, found by replaying the
    interval; a 1-D value past DBL_MAX/2 counts as a divergence when the
    interval ends on it."""

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
    read: each packed state rebuilt bit for bit, each other one a copy;
    ``stored`` returns them as kept.  ``final_spectrum`` is the spectrum
    taken of the last state, None when there is none.

    With ``pair``, the pair flow of the run, the states are its stacked
    pairs: member 0 is recorded as a lone state would be, and ``duality``
    holds the pair flow's ``residual`` of each pair; it is None for lone
    states."""

    def __init__(self, snapshots, pair=None):
        # the diagnostics of each snapshot as five doubles, not five objects
        rows, self._stored, residuals = array("d"), [], array("d")
        e = None
        for t, state, defect in snapshots:
            if pair is not None:
                residuals.append(pair.residual(state))
                state = state[0]
            stored = _packed(state)
            if state.ndim == 1:
                # summed as the complex diagonal of its matrix, for the bits of
                # np.trace: a float sum moves it by an ulp in 40% of cases
                rows.extend((t, state.astype(complex).sum().real, state.min(), state.max(), defect))
            else:
                e = spectrum(state, hermitian=stored is not state)
                rows.extend((t, np.trace(state).real, e[0], e[-1], defect))
            # a member kept as given is copied, so that its pair is freed
            self._stored.append(state.copy() if pair is not None and stored is state else stored)
        self.times, self.trace, self.min_eig, self.max_eig, self.herm_defect = (
            np.frombuffer(rows).reshape(-1, 5).T.copy())
        self.duality = np.frombuffer(residuals).copy() if pair is not None else None
        # the entries of a 1-D state are sorted for the last one alone
        last = self._stored[-1] if self._stored else None
        self.final_spectrum = spectrum(last) if last is not None and last.ndim == 1 else e

    @property
    def states(self) -> _States:
        """The recorded states, each rebuilt when read."""
        return _States(self._stored)

    @property
    def stored(self) -> tuple[np.ndarray, ...]:
        """The recorded states as the trajectory keeps them, not rebuilt: a
        packed hermitian matrix as its (1, d, d) reals (:func:`_packed`),
        every other state as given.  A matrix is read through
        :func:`float_cells`, which knows both forms.  The arrays are the
        trajectory's own, to be read and never written."""
        return tuple(self._stored)

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
    imaginary part is), and the cells of :func:`float_cells` for a packed
    state: the (d, 2d) index that gathers its float view, re and im of each
    entry in turn, from its d^2 packed reals and one +0.0 followed by 0.0
    minus each of them."""
    i, j = np.indices((d, d))
    upper = i <= j
    own, mirror, n = i * d + j, j * d + i, d * d
    real = np.where(upper, own, mirror)
    imag = np.where(upper, np.where(i < j, n + 1 + mirror, n), own)
    index = np.stack((real, imag), axis=-1).reshape(d, 2 * d)
    upper = upper[np.newaxis]
    upper.flags.writeable = index.flags.writeable = False
    return upper, index


def float_cells(stored: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, cells) of a d x d matrix as a :class:`Trajectory` stores it,
    such that ``np.concatenate((x, 0.0 - x))[cells]`` is the matrix's
    (d, 2d) float view, re and im of each entry in turn: for a packed
    matrix (:func:`_packed`) x is its d^2 reals and one +0.0, and cells is
    its :func:`_layout`, shared and read-only; for a matrix kept whole x is
    its flat float view and cells ``np.arange``, shaped (d, 2d)."""
    if stored.ndim == 3:
        x = np.zeros(stored.size + 1)
        x[:-1] = stored.ravel()
        return x, _layout(stored.shape[-1])[1]
    # a C-ordered complex matrix viewed as floats is row-major re, im pairs
    x = np.ascontiguousarray(stored, dtype=complex).view(float).ravel()
    return x, np.arange(len(x)).reshape(len(stored), -1)


def spectrum(state: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """The eigenvalues of a recorded state, ascending: of a matrix, those of
    its hermitian part, which is the matrix itself, not a copy, when it is
    ``hermitian`` by bit pattern (as a :func:`_packed` one is); of a 1-D
    state, the diagonal of a diagonal matrix, its sorted entries."""
    if state.ndim == 1:
        return np.sort(state)
    return np.linalg.eigvalsh(state if hermitian else 0.5 * (state + state.conj().T))


def _is_pair(rhs: RHSCallable) -> bool:
    """Whether ``rhs`` is a pair flow, whose state is a stack of two."""
    return getattr(rhs, "pair", False)


def _packed(state: np.ndarray) -> np.ndarray:
    """``state`` as a :class:`Trajectory` stores it: packed when it is a
    complex d x d matrix m that is hermitian by bit pattern, as every start
    and hygiene leave it, and otherwise ``state`` itself.

    The packed form is one real array of shape (1, d, d): the real part of m
    on and above the diagonal, its imaginary part below it.  No state has
    three axes, so the shape marks it, and packing it again keeps it.  m is
    hermitian by bit pattern when the packed reals rebuild it byte for byte
    (:func:`_unpacked`): its real part is symmetric in its bits, its
    imaginary diagonal is +0.0, and each imaginary entry above the diagonal
    is 0.0 minus its mirror below it, which is the negation of a nonzero
    value and +0.0 for a zero of either sign, as hermitization makes it.
    The test is that rebuild, so signed zeros, NaN payloads and subnormals
    decide it; a matrix that fails it (one made neither by hygiene nor by
    :class:`~qme.operators.DensityMatrix`) is kept whole."""
    if state.ndim != 2 or state.dtype != complex:
        return state
    packed = np.where(_layout(len(state))[0], state.real, state.imag)
    return packed if _unpacked(packed).tobytes() == state.tobytes() else state


def _unpacked(stored: np.ndarray) -> np.ndarray:
    """A fresh array of the state ``stored`` holds: a packed matrix
    (:func:`_packed`) rebuilt from its :func:`float_cells` by one gather, or
    a copy of a state kept as given.  The rebuild only copies and subtracts
    from 0.0, so every bit of a packed state comes back."""
    if stored.ndim != 3:
        return stored.copy()
    x, cells = float_cells(stored)
    return np.concatenate((x, 0.0 - x))[cells].view(complex)


def _rk4_raw(rho: np.ndarray, rhs: RHSCallable, t: float, dt: float) -> np.ndarray:
    """One classical RK4 step from ``rho`` at ``t``, before hermitization:
    rho + dt/6 (((k1 + 2 k2) + 2 k3) + k4), with the stages at
    rho + (dt/2) k1, rho + (dt/2) k2 and rho + dt k3.

    Besides ``rho`` three arrays are live at a flow call: the running sum,
    the stage state, which each stage overwrites, and the flow's value.
    The flow's values are only read, each before the stage state it came
    from is overwritten, in case it is a view of it."""
    half = 0.5 * dt
    k1 = rhs(t, rho)
    stage = np.multiply(half, k1)
    np.add(rho, stage, out=stage)
    k = rhs(t + half, stage)
    total = np.multiply(2.0, k)
    np.add(k1, total, out=total)
    del k1
    np.multiply(half, k, out=stage)
    np.add(rho, stage, out=stage)
    # each value is dropped before the next call, so no two are held at once
    del k
    k = rhs(t + half, stage)
    total += np.multiply(2.0, k)
    np.multiply(dt, k, out=stage)
    np.add(rho, stage, out=stage)
    del k
    k = rhs(t + dt, stage)
    del stage
    total += k
    np.multiply(dt / 6.0, total, out=total)
    return np.add(rho, total, out=total)


def _generators(rhs: RHSCallable, t: float, rho: np.ndarray) -> list[np.ndarray] | None:
    """The augmented generator (:func:`_affine_parts`) of ``rhs`` alone, or
    of each member flow of an affine pair (a ``FlowPair``) probed alone; None
    unless ``rhs.affine`` is true and every generator exists."""
    if not getattr(rhs, "affine", False):
        return None
    probes = zip(rhs.members, rho) if _is_pair(rhs) else [(rhs, rho)]
    gens = [_affine_parts(flow, t, x) for flow, x in probes]
    return None if any(gen is None for gen in gens) else gens


def _affine_parts(rhs: RHSCallable, t: float, like: np.ndarray) -> np.ndarray | None:
    """The augmented generator M = [[L, c], [0, 0]] of an affine flow
    rhs(t, x) = L x + c on the float view of states shaped like ``like``;
    None when the state has more than AFFINE_MAX_ENTRIES float-view entries.

    The flow is probed on the float-view unit vectors e_k, from n + 1 flow
    calls: c = f(0) and L e_k = f(e_k) - c.  This needs the flow to be
    affine over the reals in the real and imaginary parts of its state, not
    complex-linear, so a flow that reads the real part of a diagonal is
    covered.  Call inside the step's ``np.errstate``."""
    n = like.size * (2 if np.iscomplexobj(like) else 1)
    if n > AFFINE_MAX_ENTRIES:
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


def _interval_map(gens: list[np.ndarray], tau: float) -> Callable[[np.ndarray], np.ndarray] | None:
    """The exact propagation over ``tau`` of states whose members have the
    generators ``gens`` (:func:`_generators`): each member by its own
    :func:`_increment_map`, the maps built one after another; None when a
    member's map is None."""
    maps = []
    for g in gens:
        maps.append(_increment_map(g, tau))
        if maps[-1] is None:
            return None
    if len(maps) == 1:
        return maps[0]

    def propagate(rho: np.ndarray) -> np.ndarray:
        out = np.empty_like(rho)
        for member, step, x in zip(out, maps, rho):
            member[...] = step(x)
        return out

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
    diagonal (hermitization leaves such a state unchanged).  A pair flow
    (``spec.rhs.pair``) steps the pair ``spec.rhs.start(x)`` of the start x,
    which each snapshot yields whole, stacked, with the defect of member 0.
    Its members have the bits of lone runs of the member flows, with two
    exceptions: an interval where one member's exact map is not finite takes
    RK4 steps for both, and the pair diverges at the first step where either
    member does.  In exact arithmetic a fermion pair's hole member is I
    minus its particle member at every RK4 step, so only rounding can make
    the hole diverge first.  The loop lands exactly on ``spec.t1`` (a final
    partial step is taken when the window is not a multiple of dt).  ``herm_defect`` is the hermiticity defect of the
    raw update, of the last RK4 step or of the mapped interval, before
    hygiene.  Each snapshot interval's result is checked once
    (:func:`_finite`); an RK4 interval that diverged is replayed from its
    start, which needs ``spec.rhs`` to be a pure function of (t, state), to
    raise :class:`IntegrationDivergedError` at the step that diverged first.
    A :class:`DensityMatrix` start is valid by construction and read-only,
    so it is copied, not checked again; populations, which enter here, and
    the snapshot budget are checked at the call, not at the first ``next()``.
    A consumer that keeps no state holds one step's arrays, and the state
    the interval started from, at a time.
    """
    populations = isinstance(initial, np.ndarray) and initial.ndim == 1
    if not (populations or isinstance(initial, DensityMatrix)):
        raise TypeError("initial state must be a DensityMatrix or a 1-D array of populations")
    pair = _is_pair(spec.rhs)
    if populations:
        start = initial
        rho = _checked_populations(spec.rhs.start(initial) if pair else initial)
    else:
        start = initial.matrix
        rho = spec.rhs.start(start) if pair else start.copy()
    check_snapshot_budget((spec.t1 - spec.t0) / spec.dt, spec.record_every, start.nbytes)
    return _steps(spec, rho)


def _hermitized(raw: np.ndarray, pair: bool) -> tuple[np.ndarray, float]:
    """The hermitized ``raw`` update, made in place, and the hermiticity
    defect of its member 0, not checked: :func:`_finite` tells whether it
    diverged.  ``raw`` is the step's own array.  Call inside the step's
    ``np.errstate``."""
    # taken on every RK4 step, recorded or not, and once a snapshot on a
    # mapped interval, through this module's own name: the benchmark's tracer
    # (perfbench/tracing.py) counts steps by these calls, so on a mapped run
    # its step count is the number of intervals
    defect = hermiticity_defect(raw[0] if pair else raw)
    # a real vector is its own hermitization; a matrix becomes 0.5 (m + m^dag)
    if raw.dtype.kind != "f":
        np.add(raw, raw.conj().swapaxes(-1, -2), out=raw)
        np.multiply(0.5, raw, out=raw)
    return raw, defect


def _finite(rho: np.ndarray) -> bool:
    """Whether a hermitized state has not diverged: a matrix holds no NaN or
    Inf, and a real vector none past DBL_MAX/2, where hermitizing the matrix
    whose diagonal it is would overflow."""
    if rho.dtype.kind == "f":
        return np.abs(rho).max(initial=0.0) < 2.0**1023
    return np.isfinite(rho.view(float)).all()


def _steps(spec: EvolutionSpec, rho: np.ndarray) -> Iterator[tuple[float, np.ndarray, float]]:
    """The loop of :func:`snapshots`, from a checked start state ``rho``.

    Snapshots split the window into intervals of ``record_every`` steps, the
    last one possibly shorter.  An affine flow crosses each interval by one
    exact map, built once for the full intervals and once for a shorter last
    one; any other flow, or an interval whose map (a pair's: either
    member's) is not finite, takes RK4 steps, of which only the last one's
    result is checked."""
    pair = _is_pair(spec.rhs)
    yield spec.t0, rho, hermiticity_defect(rho[0] if pair else rho)
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
                gen = _generators(spec.rhs, spec.t0, rho)
            tau = full_tau if last - step == spec.record_every and last <= n_full else t_end - t
            if gen is not None and tau != map_tau:
                # the previous map is dropped before the next is built
                mapped = None
                mapped, map_tau = _interval_map(gen, tau), tau
            if mapped is not None:
                rho, defect = _hermitized(mapped(rho), pair)
                if not _finite(rho):
                    raise IntegrationDivergedError(t)
            else:
                for t_last, end, defect in _rk4_steps(spec, rho, t, step, last, n_full, remainder):
                    pass
                if not _finite(end):
                    # NaN and Inf are absorbing under a step, so the first
                    # step that diverged is found by replaying the interval's
                    # unchecked steps from its start, each one checked
                    replay = _rk4_steps(spec, rho, t, step, last - 1, n_full, remainder)
                    raise IntegrationDivergedError(
                        next((s for s, x, _ in replay if not _finite(x)), t_last))
                rho = end
        step, t = last, t_end
        yield t, rho, defect


def _rk4_steps(spec: EvolutionSpec, rho: np.ndarray, t: float, first: int, last: int, n_full: int,
               remainder: float) -> Iterator[tuple[float, np.ndarray, float]]:
    """Steps ``first + 1`` to ``last`` of the RK4 run of ``spec``, from ``rho``
    at ``t``, each as its start time, hermitized result and defect: steps up
    to ``n_full`` of dt, then one of ``remainder``.  No result is checked.
    Call inside the step's ``np.errstate``."""
    pair = _is_pair(spec.rhs)
    for k in range(first + 1, last + 1):
        full = k <= n_full
        rho, defect = _hermitized(_rk4_raw(rho, spec.rhs, t, spec.dt if full else remainder), pair)
        yield t, rho, defect
        t = spec.t0 + k * spec.dt if full else spec.t1


def evolve(spec: EvolutionSpec, initial: DensityMatrix | np.ndarray) -> Trajectory:
    """Integrate ``initial`` under ``spec`` and keep every snapshot of
    :func:`snapshots` in a :class:`Trajectory`, which reads each state as it
    arrives, so the states of a hermitian run are never held at full size;
    of a pair flow's run it keeps member 0 and the duality residuals."""
    return Trajectory(snapshots(spec, initial), pair=spec.rhs if _is_pair(spec.rhs) else None)

"""Right-hand sides of the density-matrix evolution equations.

The family of equations implemented here shares one structure: a Liouville
commutator plus occupation-dependent loss and gain built from two hermitian
relaxation operators,

    drho/dt = (1/i)[H, rho] + {rho, A_loss} - {I + s*rho, A_gain},

with s = -1 for fermions (Pauli blocking, factor 1 - n), s = +1 for bosons
(enhancement, factor 1 + n) and s = 0 for the linear, low-density limit.  The
loss operator acts on particles; the gain operator is the loss operator of
holes.  Transition networks, jump-operator sets and the linear
(Markoff/Lindblad) limits differ only in how the relaxation operators follow
from the state.

Each equation is a *flow*: an object built once from validated parts, whose
``__call__(t, rho)`` does arithmetic only, so it can sit in an integrator's
inner loop.  The state a flow receives is not checked; the integrator checks
every stage state for NaN/Inf.  The ``rhs_*`` functions are the library entry
points: each validates all its arguments, builds the flow and evaluates it
once.  Rates are constant during a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    DEFAULT_TOL,
    DensityMatrix,
    Statistics,
    as_square_matrix,
)

__all__ = [
    "Statistics",
    "TransitionNetwork",
    "DephasingRates",
    "Flow",
    "OperatorFlow",
    "NetworkFlow",
    "JumpFlow",
    "HoleFlow",
    "QuasiclassicalFlow",
    "rank_one_jumps",
    "rhs_meanfield_nonhermitian",
    "rhs_general",
    "hole_transform",
    "rhs_hole_form",
    "build_relaxation_operators",
    "rhs_nonlinear_master",
    "rhs_generalized_jumps",
    "rhs_markoff",
    "rhs_lindblad",
    "rhs_quasiclassical",
    "combined_relaxation_operator",
]


@dataclass(frozen=True)
class TransitionNetwork:
    """Orthonormal orbital set with directed jump rates.

    ``kets`` holds the orbital kets as columns (defaults to the computational
    basis).  ``rates`` maps an ordered pair ``(dest, src)`` to the finite,
    nonnegative rate for particles to jump src -> dest; the two directions are
    independent entries.
    """

    kets: np.ndarray
    rates: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        kets = np.asarray(self.kets, dtype=complex)
        if kets.ndim != 2:
            raise ValueError(f"network kets: expected a 2-d array, got shape {kets.shape}")
        object.__setattr__(self, "kets", kets)
        gram = kets.conj().T @ kets
        defect = np.abs(gram - np.eye(kets.shape[1])).max() if kets.size else 0.0
        if defect > DEFAULT_TOL:
            raise ValueError(f"network kets: Gram matrix deviates from identity by {defect:.3e}")
        n = kets.shape[1]
        for (dest, src), w in self.rates.items():
            if dest == src:
                raise ValueError(f"rates[({dest},{src})]: self-transitions are not allowed")
            if not (0 <= dest < n and 0 <= src < n):
                raise ValueError(f"rates[({dest},{src})]: orbital index out of range for {n} orbitals")
            if not np.isfinite(w):
                raise ValueError(f"rates[({dest},{src})]: rate must be finite, got {w}")
            if w < 0:
                raise ValueError(f"rates[({dest},{src})]: rate must be nonnegative, got {w}")

    @classmethod
    def computational(cls, dim: int, rates: dict[tuple[int, int], float]) -> "TransitionNetwork":
        """Network whose orbitals are the computational-basis unit vectors."""
        return cls(kets=np.eye(dim, dtype=complex), rates=dict(rates))

    @property
    def dim(self) -> int:
        return self.kets.shape[0]

    @property
    def n_orbitals(self) -> int:
        return self.kets.shape[1]

    def ket(self, n: int) -> np.ndarray:
        return self.kets[:, n]

    def rate_matrix(self) -> np.ndarray:
        """Dense w[dest, src] array (zeros where no transition)."""
        w = np.zeros((self.n_orbitals, self.n_orbitals))
        for (dest, src), value in self.rates.items():
            w[dest, src] = value
        return w


@dataclass(frozen=True)
class DephasingRates:
    """Symmetric off-diagonal decay rates Gamma[(a, b)] = Gamma[(b, a)] >= 0."""

    gamma: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        full: dict[tuple[int, int], float] = {}
        for (a, b), g in self.gamma.items():
            if a == b:
                raise ValueError(f"dephasing[({a},{b})]: diagonal entries are not allowed")
            if not np.isfinite(g):
                raise ValueError(f"dephasing[({a},{b})]: rate must be finite, got {g}")
            if g < 0:
                raise ValueError(f"dephasing[({a},{b})]: rate must be nonnegative, got {g}")
            for key in ((a, b), (b, a)):
                if key in full and full[key] != g:
                    raise ValueError(
                        f"dephasing[({a},{b})]: conflicts with symmetric partner value {full[key]}"
                    )
                full[key] = g
        object.__setattr__(self, "gamma", full)

    def __bool__(self) -> bool:
        return bool(self.gamma)


class Flow:
    """The general flow

        drho/dt = (1/i)[H, rho] + {rho, A_loss} - {I + s*rho, A_gain}

    with s from ``statistics`` (None is the linear limit s = 0).  Subclasses
    supply :meth:`relaxation_operators`; everything they use is validated and
    cached at construction.
    """

    def __init__(self, h, statistics: Statistics | None):
        h = as_square_matrix(h, "H")
        self.dim = h.shape[0]
        self.sign = 0 if statistics is None else statistics.sign
        self._minus_ih = -1j * h
        self._plus_ih = 1j * h

    def relaxation_operators(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(A_loss, A_gain)`` at the state ``rho``."""
        raise NotImplementedError

    def __call__(self, t: float, rho: np.ndarray) -> np.ndarray:
        # {rho, A_loss} - {I + s*rho, A_gain} = {rho, M} - 2*A_gain with
        # M = A_loss - s*A_gain, so the flow is (M - iH) rho + rho (M + iH) - 2*A_gain
        loss, gain = self.relaxation_operators(rho)
        merged = loss - self.sign * gain
        return (merged + self._minus_ih) @ rho + rho @ (merged + self._plus_ih) - 2.0 * gain

    def hole(self) -> "HoleFlow":
        """The same fermionic flow, written for the hole state I - rho."""
        return HoleFlow(self)


def _checked_state(flow: Flow, rho) -> np.ndarray:
    """A state argument (an array or a DensityMatrix) of a library entry
    point, validated against the flow's dimension."""
    rho = rho.matrix if isinstance(rho, DensityMatrix) else as_square_matrix(rho, "rho")
    if rho.shape[0] != flow.dim:
        raise ValueError(f"dimension mismatch: flow dimension {flow.dim} vs rho {rho.shape}")
    return rho


def _evaluate(flow: Flow, rho) -> np.ndarray:
    """One checked evaluation, as the library entry points make it."""
    return flow(0.0, _checked_state(flow, rho))


class OperatorFlow(Flow):
    """Fixed loss and gain operators.  With A_gain = 0 and ``statistics``
    None this is the mean-field flow (1/i)[H, rho] + {rho, A_loss}."""

    def __init__(self, h, loss_op, gain_op, statistics: Statistics | None):
        super().__init__(h, statistics)
        self._loss = as_square_matrix(loss_op, "loss operator")
        self._gain = as_square_matrix(gain_op, "gain operator")
        if self._loss.shape[0] != self.dim or self._gain.shape[0] != self.dim:
            raise ValueError(
                f"dimension mismatch: H {(self.dim, self.dim)}, loss {self._loss.shape}, "
                f"gain {self._gain.shape}"
            )

    def relaxation_operators(self, rho):
        return self._loss, self._gain


class NetworkFlow(Flow):
    """Relaxation operators rebuilt from the state through a transition
    network.  With n = diag(K^dag rho K) the orbital occupations, W[dest, src]
    the rates and K the kets,

        A_gain = K diag(-1/2 W n) K^dag,
        A_loss = K diag(-1/2 W^T (1 + s*n)) K^dag,

    so each transition src -> dest moves occupation at rate
    w * n_src * (1 + s*n_dest).  With ``statistics`` None this is the linear
    Markoff equation, the only one that accepts pure dephasing
    -sum_{a != b} Gamma[a,b] <b|rho|a> |b><a|.
    """

    def __init__(self, h, net: TransitionNetwork, statistics: Statistics | None,
                 dephasing: DephasingRates | None = None):
        super().__init__(h, statistics)
        if net.dim != self.dim:
            raise ValueError(f"dimension mismatch: network dim {net.dim} vs H dim {self.dim}")
        n = net.n_orbitals
        self._half_w = -0.5 * net.rate_matrix()
        self._eye = np.eye(n)
        # None marks the computational basis, where K diag(a) K^dag is diag(a)
        computational = net.dim == n and np.array_equal(net.kets, np.eye(n))
        self._kets = None if computational else net.kets
        self._kets_dag = None if computational else net.kets.conj().T
        self._gamma = None
        if dephasing:
            if statistics is not None:
                raise ValueError("dephasing: only the linear equation (no statistics) accepts it")
            self._gamma = np.zeros((n, n))
            for (a, b), g in dephasing.gamma.items():
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"dephasing[({a},{b})]: orbital index out of range for {n} orbitals")
                self._gamma[a, b] = g

    def _to_kets(self, m: np.ndarray) -> np.ndarray:
        return m if self._kets is None else self._kets_dag @ m @ self._kets

    def _from_kets(self, m: np.ndarray) -> np.ndarray:
        return m if self._kets is None else self._kets @ m @ self._kets_dag

    def relaxation_operators(self, rho):
        n = self._to_kets(rho).diagonal().real
        gain = self._eye * (self._half_w @ n)
        loss = self._eye * (self._half_w.T @ (1.0 + self.sign * n))
        return self._from_kets(loss), self._from_kets(gain)

    def __call__(self, t, rho):
        out = super().__call__(t, rho)
        if self._gamma is not None:
            out -= self._from_kets(self._gamma * self._to_kets(rho))
        return out


class JumpFlow(Flow):
    """Relaxation operators of a set of jump operators W_l:

        A_loss = -1/2 sum_l W_l (I + s*rho) W_l^dag,
        A_gain = -1/2 sum_l W_l^dag rho W_l.

    With ``statistics`` None this is the linear Lindblad equation.
    """

    def __init__(self, h, jumps, statistics: Statistics | None):
        super().__init__(h, statistics)
        ops = _check_jumps(jumps, self.dim)
        self._jumps = np.array(ops, dtype=complex).reshape(len(ops), self.dim, self.dim)
        self._jumps_dag = np.ascontiguousarray(self._jumps.conj().transpose(0, 2, 1))
        self._drain = -0.5 * (self._jumps @ self._jumps_dag).sum(axis=0)

    def relaxation_operators(self, rho):
        gain = -0.5 * (self._jumps_dag @ rho @ self._jumps).sum(axis=0)
        if self.sign == 0:
            return self._drain, gain
        loss = self._drain - (0.5 * self.sign) * (self._jumps @ rho @ self._jumps_dag).sum(axis=0)
        return loss, gain


class HoleFlow(Flow):
    """A fermionic flow written for the hole state x = I - rho: the particle
    relaxation operators, taken at I - x, with loss and gain swapped,

        dx/dt = (1/i)[H, x] + {x, A_gain(I - x)} - {I - x, A_loss(I - x)}.

    For complementary states the particle and hole flows cancel entrywise.
    The arrays of the particle flow are shared, not copied.
    """

    def __init__(self, particle: Flow):
        if particle.sign != Statistics.FERMION.sign:
            raise ValueError("hole flow: defined for fermions only")
        self.dim, self.sign = particle.dim, particle.sign
        self._minus_ih, self._plus_ih = particle._minus_ih, particle._plus_ih
        self._particle = particle
        self._eye = np.eye(particle.dim, dtype=complex)

    def relaxation_operators(self, x):
        loss, gain = self._particle.relaxation_operators(self._eye - x)
        return gain, loss


def _kinetics(f: np.ndarray, w: np.ndarray, sign: int) -> np.ndarray:
    blocked = 1 + sign * f
    return blocked * (w @ f) - f * (w.T @ blocked)


class QuasiclassicalFlow:
    """Occupation kinetics (:func:`rhs_quasiclassical`) of a network's rates
    on the diagonal of a matrix state.  The occupations are clipped to the
    physical range (at most 1 for fermions) before each evaluation; the
    result is a diagonal matrix."""

    def __init__(self, net: TransitionNetwork, statistics: Statistics):
        self._w = net.rate_matrix()
        self.sign = statistics.sign
        self._cap = 1.0 if statistics is Statistics.FERMION else None

    def __call__(self, t: float, rho: np.ndarray) -> np.ndarray:
        f = np.clip(rho.diagonal().real, 0.0, self._cap)
        return np.diag(_kinetics(f, self._w, self.sign)).astype(complex)


def rhs_meanfield_nonhermitian(h, a_op, rho) -> np.ndarray:
    """Flow of a mean-field Hamiltonian extended by an antihermitian part iA:

        drho/dt = (1/i)[H, rho] + {rho, A}.

    A negative-definite A drains occupation; no choice of H, A can feed an
    empty orbital (the gain rate from an unoccupied orbital is exactly zero).
    """
    a_op = as_square_matrix(a_op, "A")
    return _evaluate(OperatorFlow(h, a_op, np.zeros_like(a_op), None), rho)


def rhs_general(h, loss_op, gain_op, rho, statistics: Statistics) -> np.ndarray:
    """Master-equation flow with separate particle loss and gain operators:

        drho/dt = (1/i)[H, rho] + {rho, A_loss} - {I + s*rho, A_gain},

    s = -1 (fermions) or +1 (bosons).  Gain through a negative-definite
    A_gain is blocked by 1 - n for fermions and enhanced by 1 + n for bosons.
    """
    return _evaluate(OperatorFlow(h, loss_op, gain_op, statistics), rho)


def hole_transform(rho: DensityMatrix) -> DensityMatrix:
    """Complement a fermionic state: occupied orbitals become vacancies,
    rho -> I - rho.  An involution."""
    if rho.statistics is not Statistics.FERMION:
        raise ValueError("hole transform is defined for fermions only")
    eye = np.eye(rho.dim, dtype=complex)
    return DensityMatrix(eye - rho.matrix, Statistics.FERMION, rho.tolerance)


def rhs_hole_form(h, loss_op, gain_op, rho_hole) -> np.ndarray:
    """The same fermionic flow as :func:`rhs_general`, written for the hole
    state rho_hole = I - rho.  The particle-gain operator acts as hole loss
    and vice versa:

        drho_hole/dt = (1/i)[H, rho_hole] + {rho_hole, A_gain}
                       - {I - rho_hole, A_loss},

    which is :func:`rhs_general` with the operators swapped.  For
    complementary states the two flows cancel entrywise.
    """
    return rhs_general(h, gain_op, loss_op, rho_hole, Statistics.FERMION)


def build_relaxation_operators(
    net: TransitionNetwork, rho, statistics: Statistics
) -> tuple[np.ndarray, np.ndarray]:
    """State-dependent loss and gain operators of a transition network.

    For each directed transition src -> dest with rate w:

        A_gain += -(w/2) * <src|rho|src>            * |dest><dest|
        A_loss += -(w/2) * (1 + s*<dest|rho|dest>)  * |src><src|

    so that each transition moves occupation at rate
    w * n_src * (1 + s*n_dest), conserving the total particle number.
    Returns ``(loss_op, gain_op)``; both are hermitian and, for admissible
    occupations, negative semidefinite.
    """
    flow = NetworkFlow(np.zeros((net.dim, net.dim)), net, statistics)
    return flow.relaxation_operators(_checked_state(flow, rho))


def rhs_nonlinear_master(h, net: TransitionNetwork, rho, statistics: Statistics) -> np.ndarray:
    """Nonlinear master equation of a transition network: :func:`rhs_general`
    with the relaxation operators rebuilt from the current state.  Traceless;
    fermionic transitions into a full orbital are exactly forbidden."""
    return _evaluate(NetworkFlow(h, net, statistics), rho)


def rank_one_jumps(net: TransitionNetwork) -> list[np.ndarray]:
    """Rank-one jump operators reproducing a transition network,

        W = sqrt(w) |src><dest|   for each directed entry (dest, src).

    Note the index placement: the gain term of :func:`rhs_lindblad` and
    :func:`rhs_generalized_jumps` sandwiches as W^dag rho W, so the ket
    carries the source orbital.
    """
    ops = []
    for (dest, src), w in net.rates.items():
        ops.append(np.sqrt(w) * np.outer(net.ket(src), net.ket(dest).conj()))
    return ops


def _check_jumps(jumps, dim: int) -> list[np.ndarray]:
    ops = []
    for k, w in enumerate(jumps):
        op = as_square_matrix(w, f"jump operator [{k}]")
        if op.shape[0] != dim:
            raise ValueError(
                f"jump operator [{k}]: dimension {op.shape[0]} does not match state dimension {dim}"
            )
        ops.append(op)
    return ops


def rhs_generalized_jumps(h, jumps, rho, statistics: Statistics) -> np.ndarray:
    """Occupation-dependent flow for an arbitrary set of jump operators:

        drho/dt = (1/i)[H, rho]
                  - (1/2) sum_l {rho, W_l (I + s*rho) W_l^dag}
                  + (1/2) sum_l {I + s*rho, W_l^dag rho W_l}.

    With rank-one jumps from :func:`rank_one_jumps` this reduces exactly to
    :func:`rhs_nonlinear_master`; in the low-density limit it reduces to
    :func:`rhs_lindblad`.
    """
    return _evaluate(JumpFlow(h, jumps, statistics), rho)


def rhs_markoff(h, net: TransitionNetwork, dephasing: DephasingRates | None, rho) -> np.ndarray:
    """Linear (low-density) master equation with optional pure dephasing:

        drho/dt = (1/i)[H, rho]
                  - (1/2) sum w {rho, |src><src|} + sum w <src|rho|src> |dest><dest|
                  - sum_{a != b} Gamma[a,b] <b|rho|a> |b><a|.

    Traceless when the dephasing rates vanish.  Dephasing decays off-diagonal
    elements without moving population; it is not combinable with the
    occupation-dependent equations here because it can push states out of the
    positive cone.
    """
    return _evaluate(NetworkFlow(h, net, None, dephasing), rho)


def rhs_lindblad(h, jumps, rho) -> np.ndarray:
    """Linear jump-operator master equation:

        drho/dt = (1/i)[H, rho] - (1/2) sum_l {rho, W_l W_l^dag}
                  + sum_l W_l^dag rho W_l.

    Traceless.  With rank-one jumps this is :func:`rhs_markoff` without
    dephasing.
    """
    return _evaluate(JumpFlow(h, jumps, None), rho)


def rhs_quasiclassical(f, w, statistics: Statistics) -> np.ndarray:
    """Occupation-number kinetics for a homogeneous system:

        df[p]/dt = sum_q w[p,q] (1 + s*f[p]) f[q] - sum_q w[q,p] (1 + s*f[q]) f[p],

    where w[dest, src] is the src -> dest rate.  The derivatives sum to zero.
    """
    f = np.asarray(f, dtype=float)
    w = np.asarray(w, dtype=float)
    if f.ndim != 1:
        raise ValueError(f"occupations: expected a vector, got shape {f.shape}")
    if w.shape != (f.size, f.size):
        raise ValueError(f"rate matrix: expected shape {(f.size, f.size)}, got {w.shape}")
    if np.any(w < 0):
        raise ValueError("rate matrix: negative rate")
    if np.any(f < 0):
        raise ValueError("occupations: negative occupation")
    if statistics is Statistics.FERMION and np.any(f > 1):
        raise ValueError("occupations: fermion occupation exceeds 1")
    return _kinetics(f, w, statistics.sign)


def combined_relaxation_operator(loss_op, gain_op, statistics: Statistics) -> np.ndarray:
    """Single operator A' = A_loss - s*A_gain that merges loss and gain:

        drho/dt = (1/i)[H, rho] + {rho, A'} - 2*A_gain

    reproduces :func:`rhs_general` identically.
    """
    loss_op = as_square_matrix(loss_op, "loss operator")
    gain_op = as_square_matrix(gain_op, "gain operator")
    if loss_op.shape != gain_op.shape:
        raise ValueError(f"dimension mismatch: {loss_op.shape} vs {gain_op.shape}")
    return loss_op - statistics.sign * gain_op

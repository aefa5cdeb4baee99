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
inner loop.  The state a flow receives there is not checked: a NaN or Inf in
any stage carries through to the step's result, which the integrator checks
once per step.  :meth:`Flow.evaluate` is the checked
entry point for a single evaluation: it validates the state against the flow
and returns the flow at t = 0.  Rates are constant during a run.

A flow's read-only ``affine`` is true when it is affine in the state and
independent of time: the fixed-operator flows, and the network and jump
flows in the linear limit.  The integrator crosses each snapshot interval
of such a flow by its exact exponential map (:mod:`qme.integrator`).

A fermionic flow's :meth:`~Flow.paired` is a :class:`FlowPair`, the flow and
its :meth:`~Flow.hole` flow side by side on one pair [rho, I - rho] (a stack
of two), each member with the bits of its flow alone, so one integrator loop
runs both sides of the duality check.  The pair lifts a particle start to
its pair (:meth:`FlowPair.start`) and gives the duality residual of each
pair (:meth:`FlowPair.residual`), as a paired :class:`OccupationFlow` does
for occupations.
"""

from __future__ import annotations

import copy
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

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
    "OccupationFlow",
    "rank_one_jumps",
    "build_relaxation_operators",
    "rhs_quasiclassical",
]


def _index_pair(a, b) -> str:
    """``(a,b)`` for an error message, each index shortened as echoed values are."""
    return f"({reprlib.repr(a)},{reprlib.repr(b)})"


@dataclass(frozen=True)
class TransitionNetwork:
    """Orthonormal orbital set with directed jump rates.

    ``kets`` holds the orbital kets as columns (defaults to the computational
    basis).  ``rates`` maps an ordered pair ``(dest, src)`` to the finite,
    nonnegative rate for particles to jump src -> dest; the two directions are
    independent entries.  It is kept as a read-only copy, so a validated rate
    cannot be rewritten.
    """

    kets: np.ndarray
    rates: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        kets = np.asarray(self.kets, dtype=complex)
        if kets.ndim != 2:
            raise ValueError(f"network kets: expected a 2-d array, got shape {kets.shape}")
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "rates", MappingProxyType(dict(self.rates)))
        with np.errstate(over="ignore", invalid="ignore"):  # huge kets: an inf or NaN defect
            gram = kets.conj().T @ kets
            defect = np.abs(gram - np.eye(kets.shape[1])).max() if kets.size else 0.0
        if defect > DEFAULT_TOL:
            raise ValueError(f"network kets: Gram matrix deviates from identity by {defect:.3e}")
        n = kets.shape[1]
        for (dest, src), w in self.rates.items():
            if dest == src:
                raise ValueError(f"rates[{_index_pair(dest, src)}]: self-transitions are not allowed")
            if not (0 <= dest < n and 0 <= src < n):
                raise ValueError(
                    f"rates[{_index_pair(dest, src)}]: orbital index out of range for {n} orbitals"
                )
            if not np.isfinite(w):
                raise ValueError(f"rates[{_index_pair(dest, src)}]: rate must be finite, got {w}")
            if w < 0:
                raise ValueError(f"rates[{_index_pair(dest, src)}]: rate must be nonnegative, got {w}")

    @classmethod
    def computational(cls, dim: int, rates: Mapping[tuple[int, int], float]) -> "TransitionNetwork":
        """Network whose orbitals are the computational-basis unit vectors."""
        return cls(kets=np.eye(dim, dtype=complex), rates=rates)

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
    """Symmetric off-diagonal decay rates Gamma[(a, b)] = Gamma[(b, a)] >= 0,
    kept as a read-only mapping of both orderings of each pair."""

    gamma: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        full: dict[tuple[int, int], float] = {}
        for (a, b), g in self.gamma.items():
            if a == b:
                raise ValueError(f"dephasing[{_index_pair(a, b)}]: diagonal entries are not allowed")
            if not np.isfinite(g):
                raise ValueError(f"dephasing[{_index_pair(a, b)}]: rate must be finite, got {g}")
            if g < 0:
                raise ValueError(f"dephasing[{_index_pair(a, b)}]: rate must be nonnegative, got {g}")
            for key in ((a, b), (b, a)):
                if key in full and full[key] != g:
                    raise ValueError(
                        f"dephasing[{_index_pair(a, b)}]: conflicts with symmetric partner "
                        f"value {full[key]}"
                    )
                full[key] = g
        object.__setattr__(self, "gamma", MappingProxyType(full))

    def __bool__(self) -> bool:
        return bool(self.gamma)


class Flow:
    """The general flow

        drho/dt = (1/i)[H, rho] + {rho, A_loss} - {I + s*rho, A_gain}

    with s from ``statistics`` (None is the linear limit s = 0): gain through
    a negative-definite A_gain is blocked by 1 - n for fermions (s = -1) and
    enhanced by 1 + n for bosons (s = +1).  Loss and gain merge into one
    operator A' = A_loss - s*A_gain, and the flow is identically

        (1/i)[H, rho] + {rho, A'} - 2*A_gain.

    Subclasses supply :meth:`relaxation_operators`; everything they use is
    validated and cached at construction.
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

    @property
    def affine(self) -> bool:
        """Whether the flow is affine in rho (every flow here is independent
        of t): false unless a subclass, whose relaxation operators are fixed
        or linear in rho, says otherwise."""
        return False

    def __call__(self, t: float, rho: np.ndarray) -> np.ndarray:
        # {rho, A_loss} - {I + s*rho, A_gain} = {rho, M} - 2*A_gain with
        # M = A_loss - s*A_gain, so the flow is (M - iH) rho + rho (M + iH) - 2*A_gain
        loss, gain = self.relaxation_operators(rho)
        merged = loss - self.sign * gain
        del loss
        out = (merged + self._minus_ih) @ rho
        out += rho @ (merged + self._plus_ih)
        out -= 2.0 * gain
        return out

    def evaluate(self, rho) -> np.ndarray:
        """drho/dt at t = 0 for one state, an array or a DensityMatrix, checked
        to be a square, finite matrix of the flow's dimension."""
        return self(0.0, self._checked(rho))

    def _checked(self, rho) -> np.ndarray:
        rho = rho.matrix if isinstance(rho, DensityMatrix) else as_square_matrix(rho, "rho")
        if rho.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: flow dimension {self.dim} vs rho {rho.shape}")
        return rho

    def hole(self) -> "Flow":
        """The same fermionic flow, written for the hole state x = I - rho:
        a flow of the same class whose loss and gain are exchanged, as the
        gain operator is the loss operator of holes.  Its arrays are the
        particle flow's, not copies; the hole flow of a hole flow is the
        particle flow."""
        if self.sign != Statistics.FERMION.sign:
            raise ValueError("hole flow: defined for fermions only")
        hole = copy.copy(self)
        hole._exchange_loss_and_gain()
        return hole

    def paired(self) -> "FlowPair":
        """This fermionic flow and its :meth:`hole` flow side by side."""
        return FlowPair(self, self.hole())

    def _exchange_loss_and_gain(self) -> None:
        """Rewrite this (copied) flow's parts so that its loss and gain are
        those of the holes."""
        raise NotImplementedError

    def occupation_flow(self) -> "OccupationFlow | None":
        """This flow restricted to diagonal states, as a flow on their
        occupations; None when it can move a diagonal state off the
        diagonal.  Only a :class:`NetworkFlow` keeps diagonal states
        diagonal."""
        return None


class FlowPair:
    """A fermionic flow and its hole flow side by side, on the pair [rho, x]
    stacked as a (2, d, d) array: member 0 of a call has the bits of the
    particle flow at rho, member 1 those of the hole flow at x.  A pair
    answers only what a run asks of it: ``pair``, ``affine``, the call, the
    :meth:`start` of its run and the :meth:`residual` of each pair; ``members``
    are the two flows, each to be asked the rest."""

    pair = True

    def __init__(self, particle: Flow, hole: Flow):
        self.members = (particle, hole)
        self.affine = particle.affine and hole.affine

    def __call__(self, t: float, rho: np.ndarray) -> np.ndarray:
        # member by member, so each has the bits of its lone flow and no
        # temporary outgrows one member's
        out = np.empty_like(rho)
        for member, flow, x in zip(out, self.members, rho):
            member[...] = flow(t, x)
        return out

    @staticmethod
    def start(rho: np.ndarray) -> np.ndarray:
        """The pair [rho, I - rho] of a particle state rho, stacked."""
        return np.stack((rho, np.eye(len(rho), dtype=complex) - rho))

    @staticmethod
    def residual(pair: np.ndarray) -> float:
        """The duality residual ||rho + x - I||_max of a pair [rho, x]."""
        rho, x = pair
        return float(np.abs(rho + x - np.eye(len(rho))).max())

    def paired(self):
        raise ValueError("paired: a pair has no pair of its own")


class OperatorFlow(Flow):
    """Fixed loss and gain operators.  With A_gain = 0 and ``statistics``
    None this is the mean-field flow (1/i)[H, rho] + {rho, A_loss} of a
    Hamiltonian extended by an antihermitian part: a negative-definite A_loss
    drains occupation, and no choice of H, A_loss can feed an empty orbital
    (the gain rate from an unoccupied orbital is exactly zero)."""

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

    def _exchange_loss_and_gain(self):
        self._loss, self._gain = self._gain, self._loss

    @property
    def affine(self) -> bool:
        return True


class NetworkFlow(Flow):
    """Relaxation operators rebuilt from the state through a transition
    network.  With n = diag(K^dag rho K) the orbital occupations, W[dest, src]
    the rates and K the kets,

        A_gain = K diag(-1/2 W n) K^dag,
        A_loss = K diag(-1/2 W^T (1 + s*n)) K^dag,

    so each transition src -> dest moves occupation at rate
    w * n_src * (1 + s*n_dest).  The flow is traceless, and fermionic
    transitions into a full orbital are exactly forbidden.

    With ``statistics`` None this is the linear (low-density) Markoff
    equation, the only one that accepts pure dephasing
    -sum_{a != b} Gamma[a,b] <b|rho|a> |b><a|.  Dephasing decays off-diagonal
    elements without moving population; it is not combinable with the
    occupation-dependent equations because it can push states out of the
    positive cone.
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
                    raise ValueError(
                        f"dephasing[{_index_pair(a, b)}]: orbital index out of range for {n} orbitals"
                    )
                self._gamma[a, b] = g

    @property
    def affine(self) -> bool:
        return self.sign == 0

    def _exchange_loss_and_gain(self):
        # holes jump src -> dest where particles jump dest -> src: W -> W^T
        self._half_w = self._half_w.T

    def _to_kets(self, m: np.ndarray) -> np.ndarray:
        return m if self._kets is None else self._kets_dag @ m @ self._kets

    def _from_kets(self, m: np.ndarray) -> np.ndarray:
        return m if self._kets is None else self._kets @ m @ self._kets_dag

    def relaxation_operators(self, rho):
        n = self._to_kets(rho).diagonal().real
        loss, gain = self._half_w.T @ (1.0 + self.sign * n), self._half_w @ n
        return self._from_kets(self._eye * loss), self._from_kets(self._eye * gain)

    def occupation_flow(self):
        """The flow on diagonal states, or None unless the kets are the
        computational basis and H is real and diagonal.  Then [H, diag(n)] = 0,
        the relaxation operators are diagonal and dephasing touches only
        coherences, so a diagonal state stays diagonal."""
        # -iH is i times a real diagonal exactly when H is a real diagonal
        h_diagonal = np.array_equal(self._minus_ih, 1j * np.diag(self._minus_ih.diagonal().imag))
        if self._kets is not None or not h_diagonal:
            return None
        # the rates the matrix flow uses: doubling -W/2 is exact
        return OccupationFlow(-2.0 * self._half_w, self.sign)

    def __call__(self, t, rho):
        out = super().__call__(t, rho)
        if self._gamma is not None:
            out -= self._from_kets(self._gamma * self._to_kets(rho))
        return out


class JumpFlow(Flow):
    """Relaxation operators of a set of jump operators W_l:

        A_loss = -1/2 sum_l W_l (I + s*rho) W_l^dag,
        A_gain = -1/2 sum_l W_l^dag rho W_l.

    The flow is traceless.  With ``statistics`` None this is the linear
    Lindblad equation

        drho/dt = (1/i)[H, rho] - 1/2 sum_l {rho, W_l W_l^dag} + sum_l W_l^dag rho W_l.

    The rank-one jumps of :func:`rank_one_jumps` reproduce the
    :class:`NetworkFlow` of their network exactly, for either statistics and
    in the linear limit; at low density the flow approaches its linear limit
    with a remainder quadratic in the state.

    The jumps are stored side by side, [W_1 ... W_R] and
    [W_1^dag ... W_R^dag] (D x RD), so each sum over them is one matrix
    product (:func:`_sandwich`).
    """

    def __init__(self, h, jumps, statistics: Statistics | None):
        super().__init__(h, statistics)
        ops = _check_jumps(jumps, self.dim)
        d, r = self.dim, len(ops)
        self._wide = wide = np.hstack([np.empty((d, 0), dtype=complex), *ops])
        self._wide_dag = np.conjugate(wide.reshape(d, r, d).transpose(2, 1, 0), order="C").reshape(d, -1)
        self._set_drain("W_l W_l^dag")

    def _set_drain(self, product: str):
        """The fixed part -1/2 sum_l W_l W_l^dag of A_loss, checked to be
        finite; ``product`` names it in terms of the given jumps."""
        with np.errstate(over="ignore", invalid="ignore"):
            self._drain = -0.5 * _sandwich(self._wide, self._wide_dag, np.eye(self.dim))
        if not np.isfinite(self._drain).all():
            raise ValueError(f"jump_operators: too large, sum_l {product} overflows")

    def _exchange_loss_and_gain(self):
        # the hole flow is this flow with every W_l replaced by W_l^dag
        self._wide, self._wide_dag = self._wide_dag, self._wide
        # named for the particle's jumps; the hole of a hole flow gets back
        # the particle's drain, which is finite
        self._set_drain("W_l^dag W_l")

    @property
    def affine(self) -> bool:
        return self.sign == 0

    def relaxation_operators(self, rho):
        gain = -0.5 * _sandwich(self._wide_dag, self._wide, rho)
        if self.sign == 0:
            return self._drain, gain
        return self._drain - (0.5 * self.sign) * _sandwich(self._wide, self._wide_dag, rho), gain


def _sandwich(left: np.ndarray, right: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_l L_l rho R_l over the D x D blocks of ``left`` = [L_1 ... L_R] and
    ``right`` = [R_1 ... R_R]: one D x RD by RD x D product, one R x D x D temporary."""
    d = rho.shape[0]
    return left @ (rho @ right.reshape(d, -1, d).transpose(1, 0, 2)).reshape(-1, d)


class OccupationFlow:
    """A :class:`NetworkFlow` restricted to diagonal states: the state is the
    vector n of orbital occupations, and the flow returns dn/dt, the diagonal
    of the matrix flow at diag(n).  With W[dest, src] the rates (its column
    sums 1^T W are the out-rates) that diagonal is the quadratic form

        dn/dt = L n + (A n) * n,   L = W - diag(1^T W),   A = s (W - W^T),

    and the diagonal of the hole flow (:meth:`Flow.hole`, the network with
    W -> W^T) at the hole occupations x = 1 - n is the same form with
    W -> W^T.  It agrees with the matrix flow to rounding, not bit for
    bit: within 8 eps of the size of its largest terms,
    (W n)(1 + n) + n (W^T (1 + n)).

    With ``pair`` true the state is the particle and hole occupations
    [n, x] laid end to end, as :meth:`paired` makes it, with W on the
    first row and W^T on the second.  A stage is one product of each row with
    its (2d x d) operator [L; A], so every row gets the bits it gets alone.
    """

    def __init__(self, w: np.ndarray, sign: int, pair: bool = False):
        if pair and sign != Statistics.FERMION.sign:
            raise ValueError("hole flow: defined for fermions only")
        self._w, self.sign, self.pair, self._d = w, sign, pair, w.shape[0]
        # huge rates overflow the out-rates to inf, which the run reports as
        # a divergence
        with np.errstate(over="ignore", invalid="ignore"):
            self._ops = np.stack([np.vstack((m - np.diag(m.sum(axis=0)), sign * (m - m.T)))
                                  for m in ((w, w.T) if pair else (w,))])

    def __call__(self, t: float, n: np.ndarray) -> np.ndarray:
        rows = n.reshape(len(self._ops), self._d, 1)
        u = self._ops @ rows
        out = u[:, self._d:] * rows
        out += u[:, :self._d]
        return out.reshape(n.shape)

    @property
    def affine(self) -> bool:
        """True in the linear limit s = 0, which has no pair."""
        return self.sign == 0

    def hole(self) -> "OccupationFlow":
        """The same fermionic flow, written for the complementary occupations
        1 - n, the network with W -> W^T (the hole flow of a hole flow is the
        particle flow; of a pair, the pair in the other order)."""
        if self.sign != Statistics.FERMION.sign:
            raise ValueError("hole flow: defined for fermions only")
        return OccupationFlow(self._w.T, self.sign, self.pair)

    def paired(self) -> "OccupationFlow":
        """This flow and its hole flow side by side, on the vector [n, 1 - n]
        of twice the length."""
        if self.pair:
            raise ValueError("paired: a pair has no pair of its own")
        return OccupationFlow(self._w, self.sign, pair=True)

    @staticmethod
    def start(n: np.ndarray) -> np.ndarray:
        """The pair [n, 1 - n] of particle occupations n, stacked."""
        return np.stack((n, 1.0 - n))

    @staticmethod
    def residual(pair: np.ndarray) -> float:
        """The duality residual ||n + x - 1||_max of a pair [n, x]."""
        n, x = pair
        return float(np.abs(n + x - 1.0).max())


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
    return flow.relaxation_operators(flow._checked(rho))


def rank_one_jumps(net: TransitionNetwork) -> list[np.ndarray]:
    """Rank-one jump operators reproducing a transition network,

        W = sqrt(w) |src><dest|   for each directed entry (dest, src).

    Note the index placement: the gain term of :class:`JumpFlow` sandwiches
    as W^dag rho W, so the ket carries the source orbital.
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


def rhs_quasiclassical(f, w, statistics: Statistics) -> np.ndarray:
    """Occupation-number kinetics for a homogeneous system:

        df[p]/dt = sum_q w[p,q] (1 + s*f[p]) f[q] - sum_q w[q,p] (1 + s*f[q]) f[p],

    where w[dest, src] is the src -> dest rate.  The derivatives sum to zero.
    The arguments are checked, then evaluated by :class:`OccupationFlow`, the
    flow of every homogeneous network run on its occupations.
    """
    f = np.asarray(f, dtype=float)
    w = np.asarray(w, dtype=float)
    if f.ndim != 1:
        raise ValueError(f"occupations: expected a vector, got shape {f.shape}")
    if w.shape != (f.size, f.size):
        raise ValueError(f"rate matrix: expected shape {(f.size, f.size)}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("rate matrix: rates must be finite")
    if np.any(w < 0):
        raise ValueError("rate matrix: negative rate")
    if not np.all(np.isfinite(f)):
        raise ValueError("occupations: occupations must be finite")
    if np.any(f < 0):
        raise ValueError("occupations: negative occupation")
    if statistics is Statistics.FERMION and np.any(f > 1):
        raise ValueError("occupations: fermion occupation exceeds 1")
    return OccupationFlow(w, statistics.sign)(0.0, f)

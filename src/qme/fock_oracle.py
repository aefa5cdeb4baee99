"""Exact second-quantized dynamics on small Fock spaces.

This module is the independent oracle for the one-particle equations: a full
many-body Lindblad evolution whose reduced occupation derivatives can be
compared, at t = 0, against the semiclassical closure used by the rest of the
package.  The closure is exact for mode-uncorrelated diagonal states, so the
comparison has a sharp expected value there (residual at rounding level).
A diagonal state may be given as its D populations (1-D, as built by
:func:`product_populations`) wherever a D x D density matrix is read.

Basis conventions, fixed for reproducibility:

* fermions: occupation bitstrings indexed as binary integers, little-endian
  (mode k is bit k, so state index = sum_k occ_k * 2**k);
* bosons: mixed-radix little-endian with radix cutoff+1 per mode;
* fermionic operators carry the parity factor of all modes below the acted
  mode (Jordan-Wigner ordering).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

from .operators import Statistics, as_square_matrix
from .dynamics import TransitionNetwork, _check_jumps, rhs_quasiclassical

MAX_MODES = 4
#: Largest boson Fock dimension D, the bound of ``cli.MAX_DIMENSION``: one
#: D x D state is 16 MB.  It admits 4 modes at cutoff 4 (D = 625).
MAX_BOSON_DIM = 1024


class NonProductStateWarning(UserWarning):
    """The state fed to the closure comparison is not mode-uncorrelated
    diagonal, so the reported residual quantifies closure error."""


@dataclass(frozen=True)
class FockModel:
    """A small set of noninteracting modes coupled to a transition network.

    ``energies`` fixes the diagonal Hamiltonian sum_n e_n c_n^dag c_n;
    ``rates`` maps (dest, src) to the src -> dest jump rate, as in
    :class:`~qme.dynamics.TransitionNetwork`.
    """

    statistics: Statistics
    energies: tuple[float, ...]
    rates: dict[tuple[int, int], float] = field(default_factory=dict)
    boson_cutoff: int = 4
    #: the rates as a validated network on the computational basis of the modes
    network: TransitionNetwork = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        if not 1 <= self.modes <= MAX_MODES:
            raise ValueError(f"fock model supports 1..{MAX_MODES} modes, got {self.modes}")
        if isinstance(self.boson_cutoff, bool) or not isinstance(self.boson_cutoff, Integral):
            raise ValueError(f"boson_cutoff: expected an integer, got {self.boson_cutoff!r}")
        if self.statistics is Statistics.BOSON:
            if self.boson_cutoff < 1:
                raise ValueError(f"boson_cutoff: must be >= 1, got {self.boson_cutoff}")
            if self.fock_dim > MAX_BOSON_DIM:
                raise ValueError(
                    f"boson Fock dimension {self.fock_dim} exceeds limit {MAX_BOSON_DIM}"
                )
        object.__setattr__(self, "network", TransitionNetwork.computational(self.modes, self.rates))
        # refuse a generator that overflows (E_i - E_j, d_i + d_j) before any flow is built
        with np.errstate(over="ignore", invalid="ignore"):
            energy = self.occupancies @ np.array(self.energies)
            spread = energy.max() - energy.min()
        if not np.isfinite(spread):
            raise ValueError("energies: the many-body energy differences overflow the float range")
        self.populations  # built now: its transition table refuses overflowing rates

    @property
    def modes(self) -> int:
        return len(self.energies)

    @property
    def level_dim(self) -> int:
        return 2 if self.statistics is Statistics.FERMION else self.boson_cutoff + 1

    @property
    def fock_dim(self) -> int:
        return self.level_dim ** self.modes

    @cached_property
    def occupancies(self) -> np.ndarray:
        """(fock_dim, modes) table of per-mode occupations, row = basis index
        (little-endian: index = sum_k occ_k * level_dim**k)."""
        d = self.level_dim
        table = np.arange(self.fock_dim)[:, None] // d ** np.arange(self.modes) % d
        table.flags.writeable = False
        return table

    def occupancy_of_index(self, index: int) -> tuple[int, ...]:
        """Per-mode occupations of a Fock basis index (little-endian)."""
        if not 0 <= index < self.fock_dim:
            raise IndexError(f"Fock index {index} is out of range [0, {self.fock_dim})")
        return tuple(self.occupancies[index].tolist())

    @cached_property
    def flow(self) -> "FockFlow":
        """The flow of :func:`rhs_fock_lindblad`."""
        return FockFlow(fock_hamiltonian(self), fock_jump_operators(self))

    @cached_property
    def populations(self) -> "PopulationFlow":
        """The :class:`PopulationFlow` of the model: the diagonal of ``flow`` on
        diagonal states.  The jump sqrt(w) c_dest^dag c_src moves basis state i,
        with n_src > 0 and n_dest below the top level, to the state with one
        particle moved, at rate w n_src (n_dest + 1): w for fermions, whose
        Jordan-Wigner sign squares away."""
        occ = self.occupancies
        stride = self.level_dim ** np.arange(self.modes)
        src, dst, rate = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
        with np.errstate(over="ignore"):
            for (dest, source), w in self.rates.items():
                n_src, n_dest = occ[:, source], occ[:, dest]
                i = np.flatnonzero((n_src > 0) & (n_dest < self.level_dim - 1))
                src.append(i)
                dst.append(i - stride[source] + stride[dest])
                rate.append(w * n_src[i] * (n_dest[i] + 1))
            rate = np.concatenate(rate)
            # a call sums at most every rate; the coherent drain adds two of them
            total = 2.0 * rate.sum()
        if not np.isfinite(total):
            raise ValueError("rates: the many-body transition rates overflow the float range")
        return PopulationFlow(self.fock_dim, np.concatenate(src), np.concatenate(dst), rate)

    @cached_property
    def one_particle_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(slots, index, value)`` over the nonzeros a_k = X[r_k, k] of every
        X = c_n^dag c_n', with slot n * modes + n' (interleaved for
        :func:`_scatter`) and index k * fock_dim + r_k into ``rho_s.ravel()``:
        Tr(X rho_s) is the sum of a_k rho_s[k, r_k] over its slot
        (:func:`reduce_one_particle`)."""
        cs = build_mode_operators(self)
        slots, index, values = [], [], []
        for n, cn in enumerate(cs):
            for n2, cn2 in enumerate(cs):
                rows, cols, vals = _monomial_entries(cn.conj().T @ cn2, f"c_{n}^dag c_{n2}")
                slots.append(np.full(len(vals), n * self.modes + n2))
                index.append(cols * self.fock_dim + rows)
                values.append(vals)
        return _interleave(np.concatenate(slots)), np.concatenate(index), np.concatenate(values)


@lru_cache(maxsize=32)
def _mode_operators_cached(statistics: Statistics, modes: int, level_dim: int):
    if statistics is Statistics.FERMION:
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        parity = np.diag([1.0, -1.0])
        local_id = np.eye(2)
    else:
        lower = np.diag(np.sqrt(np.arange(1, level_dim)), k=1)
        parity = np.eye(level_dim)
        local_id = np.eye(level_dim)
    ops = []
    for k in range(modes):
        # little-endian index: mode 0 is the last kron factor
        m = np.eye(1)
        for j in reversed(range(modes)):
            if j > k:
                m = np.kron(m, local_id)
            elif j == k:
                m = np.kron(m, lower)
            else:
                m = np.kron(m, parity)
        ops.append(m.astype(complex))
    return tuple(ops)


def build_mode_operators(model: FockModel) -> list[np.ndarray]:
    """Annihilation matrices c_n on the model's Fock space."""
    return list(_mode_operators_cached(model.statistics, model.modes, model.level_dim))


def number_operators(model: FockModel) -> list[np.ndarray]:
    return [c.conj().T @ c for c in build_mode_operators(model)]


def fock_hamiltonian(model: FockModel) -> np.ndarray:
    """H = sum_n e_n c_n^dag c_n (diagonal in the occupation basis)."""
    h = np.zeros((model.fock_dim, model.fock_dim), dtype=complex)
    for e, n_op in zip(model.energies, number_operators(model)):
        h += e * n_op
    return h


def fock_jump_operators(model: FockModel) -> list[np.ndarray]:
    """sqrt(w) c_dest^dag c_src for each directed transition."""
    cs = build_mode_operators(model)
    return [np.sqrt(w) * cs[dest].conj().T @ cs[src] for (dest, src), w in model.rates.items()]


def _monomial_entries(op: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` of the nonzeros of a matrix that maps each basis
    state to at most one basis state: at most one nonzero in each column, and
    in each row, so that op^dag op is diagonal.  Ordered by column."""
    cols, rows = np.nonzero(op.T)
    for axis, found in (("column", cols), ("row", rows)):
        counts = np.bincount(found, minlength=1)
        if counts.max() > 1:
            raise ValueError(
                f"{name}: {axis} {counts.argmax()} holds {counts.max()} nonzeros; "
                "expected at most one per row and column"
            )
    return rows, cols, op[rows, cols]


class FockFlow:
    """The linear many-body flow

        drho/dt = (1/i)[H, rho] - (1/2) sum_l {A_l^dag A_l, rho} + sum_l A_l rho A_l^dag

    for a diagonal H and jumps that map each basis state to at most one basis
    state, as every A = sqrt(w) c_dest^dag c_src does in the occupation basis.
    Then sum_l A_l^dag A_l is diagonal too, with diagonal d, and the
    commutator and the drain act entrywise:

        decay[i, j] = -i(E_i - E_j) - (d_i + d_j)/2.

    The gain moves entry (k, k') of rho to (r_k, r_k') with weight
    a_k conj(a_k'), for each pair of nonzeros a_k = A_l[r_k, k] of one jump.
    These pairs are stored once as flat ``src``/``dst`` indices into
    ``rho.ravel()`` and a ``coef`` array, so a call is one gather and one
    scatter (one ``bincount`` over the real and imaginary parts), with no
    matrix product.
    """

    def __init__(self, h, jumps):
        h = as_square_matrix(h, "H")
        energies = np.diag(h)
        if np.count_nonzero(h - np.diag(energies)):
            raise ValueError("H: the Fock flow needs a diagonal Hamiltonian")
        d = self.dim = h.shape[0]
        drain = np.zeros(d)
        src, dst, coef = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0, complex)]
        for k, a in enumerate(_check_jumps(jumps, d)):
            rows, cols, vals = _monomial_entries(a, f"jump operator [{k}]")
            drain += np.bincount(cols, np.abs(vals) ** 2, minlength=d)
            src.append((cols[:, None] * d + cols).ravel())
            dst.append((rows[:, None] * d + rows).ravel())
            coef.append(np.outer(vals, vals.conj()).ravel())
        self._decay = -1j * (energies[:, None] - energies) - 0.5 * (drain[:, None] + drain)
        self._src, self._coef = np.concatenate(src), np.concatenate(coef)
        self._dst = _interleave(np.concatenate(dst))

    def __call__(self, t: float, rho: np.ndarray) -> np.ndarray:
        gain = _scatter(self._dst, self._coef * rho.ravel()[self._src], rho.size)
        return self._decay * rho + gain.reshape(rho.shape)


class PopulationFlow:
    """The classical master equation on the populations p of a diagonal
    many-body state (van Kampen, *Stochastic Processes in Physics and
    Chemistry*, ch. V):

        dp_i/dt = sum_t [dst_t = i] rate_t p[src_t] - out_i p_i,
        out_i = sum_t [src_t = i] rate_t,

    over transitions t from basis state ``src`` to basis state ``dst``.  Every
    jump of a :class:`FockFlow` maps a basis state to one basis state and H is
    diagonal, so a diagonal state stays diagonal and this is the diagonal of
    the FockFlow, with rate_t = |A[dst_t, src_t]|^2.  A call is one gather and
    one scatter over the transitions.
    """

    def __init__(self, dim: int, src: np.ndarray, dst: np.ndarray, rate: np.ndarray):
        self.dim, self.src, self.dst, self.rate = dim, src, dst, rate
        self._out = np.bincount(src, rate, minlength=dim)

    def __call__(self, t: float, p: np.ndarray) -> np.ndarray:
        gain = np.bincount(self.dst, self.rate * p[self.src], minlength=self.dim)
        return gain - self._out * p


def _interleave(index: np.ndarray) -> np.ndarray:
    """``index`` as the float-view positions (2i, 2i+1) of the real and
    imaginary parts of complex entries i, side by side, for :func:`_scatter`."""
    return np.stack([2 * index, 2 * index + 1], axis=1).ravel()


def _scatter(pairs: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """The complex ``weights`` summed into ``size`` complex slots, with ``pairs``
    from :func:`_interleave`: ``np.bincount`` takes real weights only, so it
    sums the float view and the result is read back as complex."""
    return np.bincount(pairs, weights.view(float), minlength=2 * size).view(complex)


def product_populations(model: FockModel, occupations) -> np.ndarray:
    """Populations of the mode-uncorrelated diagonal many-body state: the
    Kronecker product of the per-mode occupation distributions.

    Fermions: each entry is the occupation probability p_k in [0, 1].
    Bosons: each entry is an exact integer Fock occupancy <= cutoff.
    """
    occupations = list(occupations)
    if len(occupations) != model.modes:
        raise ValueError(f"expected {model.modes} occupations, got {len(occupations)}")
    p = np.ones(1)
    for k in reversed(range(model.modes)):
        occ = occupations[k]
        if model.statistics is Statistics.FERMION:
            if not 0 <= occ <= 1:
                raise ValueError(f"occupations[{k}]: fermion occupation must lie in [0, 1], got {occ}")
            local = [1 - occ, occ]
        else:
            m = int(occ)
            if m != occ or not 0 <= m <= model.boson_cutoff:
                raise ValueError(
                    f"occupations[{k}]: boson occupancy must be an integer in "
                    f"[0, {model.boson_cutoff}], got {occ}"
                )
            local = np.eye(model.level_dim)[m]
        p = np.kron(p, local)
    return p


def rhs_fock_lindblad(model: FockModel, rho_s) -> np.ndarray:
    """Exact many-body master equation:

        drho_s/dt = (1/i)[H, rho_s]
                    - (1/2) sum {A^dag A, rho_s} + sum A rho_s A^dag,

    with the jump operators of :func:`fock_jump_operators`: the
    :class:`FockFlow` of ``model.flow``.  Hermitian and traceless; the jumps
    conserve total particle number.
    """
    rho_s = as_square_matrix(rho_s, "rho_s")
    _check_fock_dim(model, rho_s.shape[0])
    return model.flow(0.0, rho_s)


def _check_fock_dim(model: FockModel, dim: int) -> None:
    if dim != model.fock_dim:
        raise ValueError(f"dimension mismatch: state dim {dim} vs Fock dim {model.fock_dim}")


def reduce_one_particle(model: FockModel, rho_s) -> np.ndarray:
    """One-particle density matrix: rho_p[n, n'] = Tr(c_n^dag c_n' rho_s).

    A 1-D ``rho_s`` is the populations p of a diagonal state, which reduces
    to the diagonal matrix of the mean occupations ``occupancies.T @ p``.
    """
    if np.ndim(rho_s) == 1:
        p = np.asarray(rho_s, dtype=float)
        _check_fock_dim(model, p.shape[0])
        return np.diag(model.occupancies.T @ p).astype(complex)
    rho_s = as_square_matrix(rho_s, "rho_s")
    _check_fock_dim(model, rho_s.shape[0])
    slots, index, values = model.one_particle_entries
    m = model.modes
    return _scatter(slots, values * rho_s.ravel()[index], m * m).reshape(m, m)


def is_product_diagonal(model: FockModel, rho_s, tol: float = 1e-12) -> bool:
    """True when rho_s is diagonal in the occupation basis and its joint
    occupancy distribution factorizes over modes.  A 1-D ``rho_s`` is the
    populations of a diagonal state."""
    rho_s = np.asarray(rho_s, dtype=complex)
    if rho_s.ndim == 2 and np.abs(rho_s - np.diag(np.diag(rho_s))).max() > tol:
        return False
    probs = (rho_s if rho_s.ndim == 1 else np.diag(rho_s)).real
    occ = model.occupancies
    marginals = [np.bincount(column, weights=probs, minlength=model.level_dim) for column in occ.T]
    expected = np.prod([m[column] for m, column in zip(marginals, occ.T)], axis=0)
    return not (np.abs(probs - expected) > tol).any()


def cutoff_contamination(model: FockModel, rho_s) -> float:
    """Total population in basis states with any mode at the boson cutoff,
    from a density matrix or the populations (1-D) of a diagonal one.
    Runs with >= 1% contamination are not trustworthy near the cutoff."""
    if model.statistics is Statistics.FERMION:
        return 0.0
    rho_s = np.asarray(rho_s)
    probs = (rho_s if rho_s.ndim == 1 else np.diag(rho_s)).real
    at_cutoff = (model.occupancies >= model.boson_cutoff).any(axis=1)
    return float(np.sum(np.maximum(probs, 0.0), where=at_cutoff))


def closure_residual_at_t0(model: FockModel, rho_s) -> float:
    """Max deviation, over modes, between the exact t=0 occupation derivative
    and the occupation-number closure evaluated on the reduced state.

    The closure replaces two-mode correlators by products of occupations; for
    mode-uncorrelated diagonal states the replacement is exact at the instant,
    so the residual is at rounding level.  For any other state a warning is
    issued and the residual quantifies the closure error.  Populations p (a
    1-D ``rho_s``) take their exact derivative from ``model.populations(0, p)``.
    """
    rho_s = np.asarray(rho_s, dtype=float) if np.ndim(rho_s) == 1 else as_square_matrix(rho_s, "rho_s")
    _check_fock_dim(model, rho_s.shape[0])
    flow = model.populations if rho_s.ndim == 1 else model.flow
    exact = np.diag(reduce_one_particle(model, flow(0.0, rho_s))).real
    if not is_product_diagonal(model, rho_s, tol=1e-10):
        warnings.warn(
            "state is not a mode-uncorrelated diagonal state; the residual "
            "measures closure error rather than rounding",
            NonProductStateWarning,
            stacklevel=2,
        )
    occ = np.diag(reduce_one_particle(model, rho_s)).real
    # clip rounding spill (~1e-16) so the closure's domain checks stay quiet
    occ = np.clip(occ, 0.0, 1.0 if model.statistics is Statistics.FERMION else None)
    closed = rhs_quasiclassical(occ, model.network.rate_matrix(), model.statistics)
    return float(np.abs(exact - closed).max())

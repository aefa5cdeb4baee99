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

No operator is built as a dense matrix.  Every one is a sum of monomials
c_dest^dag c_src, each of which moves a basis state to at most one basis
state; ``FockModel._hops`` reads where, and with what amplitude, from the
occupancy table, and the Hamiltonian, the jumps, the population rates and the
one-particle reduction are all built from it.
"""

from __future__ import annotations

import reprlib
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .operators import Statistics, as_square_matrix
from .dynamics import TransitionNetwork, rhs_quasiclassical

MAX_MODES = 4
#: Largest boson Fock dimension D, the bound of ``cli.MAX_DIMENSION``: one
#: D x D state is 16 MB.  It admits 4 modes at cutoff 4 (D = 625).
MAX_BOSON_DIM = 1024


def _echo_integer(n: Integral) -> str:
    """``n`` as an error message shows it: its ``reprlib`` form, or its bit
    length when ``repr`` refuses it (past Python's limit of 4300 digits)."""
    try:
        return reprlib.repr(n)
    except ValueError:
        return f"an integer of {int(n).bit_length()} bits"


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
            raise ValueError(f"modes: fock model supports 1..{MAX_MODES} modes, got {self.modes}")
        if isinstance(self.boson_cutoff, bool) or not isinstance(self.boson_cutoff, Integral):
            raise ValueError(f"boson_cutoff: expected an integer, got {reprlib.repr(self.boson_cutoff)}")
        # checked for fermions too, which ignore it: a malformed value is refused
        # whether it matters or not, and before a boson's Fock dimension is echoed
        if not 1 <= self.boson_cutoff < MAX_BOSON_DIM:
            raise ValueError(f"boson_cutoff: must lie in [1, {MAX_BOSON_DIM - 1}], "
                             f"got {_echo_integer(self.boson_cutoff)}")
        if self.statistics is Statistics.BOSON:
            if self.fock_dim > MAX_BOSON_DIM:
                raise ValueError(f"boson_cutoff: boson Fock dimension {self.fock_dim} "
                                 f"exceeds limit {MAX_BOSON_DIM}")
        object.__setattr__(self, "network", TransitionNetwork.computational(self.modes, self.rates))
        # refuse a generator that overflows (E_i - E_j, d_i + d_j) before any flow is built
        with np.errstate(over="ignore", invalid="ignore"):
            spread = self._state_energies.max() - self._state_energies.min()
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
    def _state_energies(self) -> np.ndarray:
        """(fock_dim,) many-body energies E_i = sum_k occ_k e_k of the basis states."""
        return self.occupancies @ np.array(self.energies)

    def _hops(self, dest: int, src: int):
        """``(i, j, n_src, n_dest, sign)``: the nonzeros of c_dest^dag c_src.

        Basis state i goes to basis state j with amplitude
        sign * sqrt(n_src * n_dest), n_src the occupation of mode src in i and
        n_dest that of mode dest in j, for every i with n_src > 0 (and, when
        dest != src, n_dest below the top level in i), in increasing i.  The
        fermion sign is the parity of the modes strictly between src and dest
        that i occupies (Jordan-Wigner ordering); dest == src is the number
        operator n_src, with i = j and n_src = n_dest.  This is the one
        occupancy rule behind every operator of the model.
        """
        occ = self.occupancies
        if dest == src:
            i = np.flatnonzero(occ[:, src])
            n = occ[i, src]
            return i, i, n, n, np.ones(len(i), np.intp)
        i = np.flatnonzero((occ[:, src] > 0) & (occ[:, dest] < self.level_dim - 1))
        j = i - self.level_dim**src + self.level_dim**dest
        sign = np.ones(len(i), np.intp)
        if self.statistics is Statistics.FERMION:
            low, high = sorted((dest, src))
            sign -= 2 * (occ[i, low + 1:high].sum(axis=1) % 2)
        return i, j, occ[i, src], occ[i, dest] + 1, sign

    @cached_property
    def flow(self) -> "FockFlow":
        """The flow of :func:`rhs_fock_lindblad`: H = sum_n e_n c_n^dag c_n and
        the jumps sqrt(w) c_dest^dag c_src, read from :meth:`_hops`."""
        jumps = []
        for (dest, src), w in self.rates.items():
            i, j, n_src, n_dest, sign = self._hops(dest, src)
            jumps.append((i, j, np.sqrt(w) * sign * np.sqrt(n_src * n_dest)))
        return FockFlow(self._state_energies, jumps)

    @cached_property
    def populations(self) -> "PopulationFlow":
        """The :class:`PopulationFlow` of the model: the diagonal of ``flow`` on
        diagonal states.  The jump sqrt(w) c_dest^dag c_src moves basis state i
        to basis state j of :meth:`_hops` at rate w n_src n_dest, that is
        w n_src (n_dest + 1) with n_dest read in i: w for fermions, whose
        Jordan-Wigner sign squares away."""
        src, dst, rate = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
        with np.errstate(over="ignore"):
            for (dest, source), w in self.rates.items():
                i, j, n_src, n_dest, _ = self._hops(dest, source)
                src.append(i)
                dst.append(j)
                rate.append(w * n_src * n_dest)
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
        slots, index, values = [], [], []
        for n in range(self.modes):
            for n2 in range(self.modes):
                i, j, n_src, n_dest, sign = self._hops(n, n2)
                slots.append(np.full(len(i), n * self.modes + n2))
                index.append(i * self.fock_dim + j)
                values.append(sign * np.sqrt(n_src * n_dest))
        return _interleave(np.concatenate(slots)), np.concatenate(index), np.concatenate(values)


class FockFlow:
    """The linear many-body flow

        drho/dt = (1/i)[H, rho] - (1/2) sum_l {A_l^dag A_l, rho} + sum_l A_l rho A_l^dag

    for a diagonal H, given by the many-body ``energies`` E, and jumps that
    map each basis state to at most one basis state, as every
    A = sqrt(w) c_dest^dag c_src does in the occupation basis.  Each jump is
    given as ``(i, j, a)``, its nonzeros A[j_k, i_k] = a_k, with no basis
    state twice in i or twice in j.  Then sum_l A_l^dag A_l is diagonal too,
    with diagonal d, and the commutator and the drain act entrywise:

        decay[i, j] = -i(E_i - E_j) - (d_i + d_j)/2.

    The gain moves entry (i_k, i_k') of rho to (j_k, j_k') with weight
    a_k conj(a_k'), for each pair of nonzeros of one jump.  These pairs are
    stored once as flat ``src``/``dst`` indices into ``rho.ravel()`` and a
    ``coef`` array, so a call is one gather and one scatter (one ``bincount``
    over the real and imaginary parts), with no matrix product.
    """

    def __init__(self, energies: np.ndarray, jumps):
        d = self.dim = len(energies)
        drain = np.zeros(d)
        src, dst, coef = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0, complex)]
        for i, j, a in jumps:
            drain += np.bincount(i, np.abs(a) ** 2, minlength=d)
            src.append((i[:, None] * d + i).ravel())
            dst.append((j[:, None] * d + j).ravel())
            coef.append(np.outer(a, np.conj(a)).ravel())
        self._decay = -1j * (energies[:, None] - energies) - 0.5 * (drain[:, None] + drain)
        self._src, self._coef = np.concatenate(src), np.concatenate(coef)
        self._dst = _interleave(np.concatenate(dst))

    def __call__(self, t: float, rho: np.ndarray) -> np.ndarray:
        gain = _scatter(self._dst, self._coef * rho.ravel()[self._src], rho.size)
        return self._decay * rho + gain.reshape(rho.shape)

    @property
    def affine(self) -> bool:
        """True: the flow is linear in rho and independent of t."""
        return True


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

    @property
    def affine(self) -> bool:
        """True: the flow is linear in p and independent of t."""
        return True


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

    with H = sum_n e_n c_n^dag c_n and the jumps A = sqrt(w) c_dest^dag c_src
    of the model's rates: the :class:`FockFlow` of ``model.flow``.  Hermitian
    and traceless; the jumps conserve total particle number.
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

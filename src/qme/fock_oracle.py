"""Exact second-quantized dynamics on small Fock spaces.

This module is the independent oracle for the one-particle equations: a full
many-body Lindblad evolution whose reduced occupation derivatives can be
compared, at t = 0, against the semiclassical closure used by the rest of the
package.  The closure is exact for mode-uncorrelated diagonal states, so the
comparison has a sharp expected value there (residual at rounding level).
A diagonal state may be given as its S populations (1-D, as built by
:func:`product_populations`) wherever a function here reads an S x S
density matrix; the coherent :class:`FockFlow` itself takes matrices only.

Every jump c_dest^dag c_src conserves the particle number N, so the dynamics
splits into independent N-sectors, and a model holds only the states of the
sectors it is given (for fermions, every sector by default).  A boson sector
is complete: no occupancy is cut off.

Basis conventions, fixed for reproducibility:

* the sectors are laid end to end in increasing N;
* within a sector, states are ranked by the integer key
  sum_k occ_k * r**k of their occupation tuple, with r = 2 for fermions and
  r = N_max + 1 for bosons (N_max the largest sector);
* fermionic operators carry the parity of the occupied modes strictly
  between the two modes they act on (Jordan-Wigner ordering).

No operator is built as a dense matrix.  Every one is a sum of monomials
c_dest^dag c_src, each of which moves a basis state to at most one basis
state; ``FockModel._hops`` reads where, and with what amplitude, from the
occupancy table, and the Hamiltonian, the jumps, the population rates and the
one-particle reduction are all built from it.
"""

from __future__ import annotations

import math
import reprlib
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .operators import Statistics, as_square_matrix
from .dynamics import OccupationFlow, TransitionNetwork

#: Largest basis, summed over a model's sectors: every fermion sector of 17
#: modes, 12 fermion modes at any filling (4096 states) or 8 bosons in 8
#: modes (6435 states).  Checked with ``math.comb`` before any table is built.
MAX_STATES = 2**17


class NonProductStateWarning(UserWarning):
    """The state fed to the closure comparison is not mode-uncorrelated
    diagonal, so the reported residual quantifies closure error."""


def start_sectors(statistics: Statistics, occupations) -> range:
    """The particle numbers N on which the product start of these per-mode
    occupations has weight: N = sum(occupations) for bosons, whose
    occupancies are integers, and for fermions every N from the count of
    occupations equal to 1 to the count of nonzero ones."""
    ones = nonzero = 0
    for k, occ in enumerate(occupations):
        if statistics is Statistics.FERMION:
            if not 0 <= occ <= 1:
                raise ValueError(f"occupations[{k}]: fermion occupation must lie in [0, 1], "
                                 f"got {reprlib.repr(occ)}")
            ones, nonzero = ones + (occ == 1), nonzero + (occ > 0)
            continue
        try:
            n = int(occ)
        except (TypeError, ValueError, OverflowError):
            n = -1
        if n < 0 or n != occ:
            raise ValueError(f"occupations[{k}]: boson occupancy must be a nonnegative integer, "
                             f"got {reprlib.repr(occ)}")
        ones += n
    return range(ones, (nonzero if statistics is Statistics.FERMION else ones) + 1)


@dataclass(frozen=True)
class FockModel:
    """A small set of noninteracting modes coupled to a transition network,
    on the states of the particle-number sectors ``sectors``.

    ``energies`` fixes the diagonal Hamiltonian sum_n e_n c_n^dag c_n;
    ``rates`` maps (dest, src) to the src -> dest jump rate, as in
    :class:`~qme.dynamics.TransitionNetwork`, and is kept as its network's
    read-only copy.  ``sectors`` defaults to every
    fermion sector, 0 to the mode count; a boson model must name its own.
    """

    statistics: Statistics
    energies: tuple[float, ...]
    rates: Mapping[tuple[int, int], float] = field(default_factory=dict)
    sectors: tuple[int, ...] | None = None
    #: the rates as a validated network on the computational basis of the modes
    network: TransitionNetwork = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        fermion = self.statistics is Statistics.FERMION
        if not self.modes:
            raise ValueError("modes: a fock model needs at least one mode")
        sectors = range(self.modes + 1) if self.sectors is None and fermion else self.sectors
        if sectors is None:
            raise ValueError("sectors: a boson model needs its particle numbers")
        if not len(sectors) or any(isinstance(n, bool) or not isinstance(n, Integral) or n < 0
                                   or (fermion and n > self.modes) for n in sectors):
            raise ValueError("sectors: expected nonnegative particle numbers"
                             + (f", at most {self.modes} for fermions" if fermion else ""))
        sectors = tuple(sorted({int(n) for n in sectors}))
        object.__setattr__(self, "sectors", sectors)
        # sized with math.comb, so a start of 1e30 bosons is refused before any table
        if sum(map(self._sector_size, sectors)) > MAX_STATES:
            raise ValueError(f"sectors: the basis of these particle numbers over {self.modes} "
                             f"modes exceeds the limit of {MAX_STATES} states")
        if (sectors[-1] + 1) * self._radix**self.modes > 2**63:
            raise ValueError(f"sectors: the basis key of these particle numbers over "
                             f"{self.modes} modes does not fit in int64")
        object.__setattr__(self, "network", TransitionNetwork.computational(self.modes, self.rates))
        object.__setattr__(self, "rates", self.network.rates)
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
    def dim(self) -> int:
        """The number S of basis states, over every sector."""
        return len(self.occupancies)

    @property
    def _radix(self) -> int:
        """r of the basis key: above any occupancy a mode can hold."""
        return 2 if self.statistics is Statistics.FERMION else self.sectors[-1] + 1

    def _sector_size(self, n: int) -> int:
        if self.statistics is Statistics.FERMION:
            return math.comb(self.modes, n)
        return math.comb(n + self.modes - 1, n)

    @cached_property
    def occupancies(self) -> np.ndarray:
        """(S, modes) table of per-mode occupations, row = basis index: the
        sectors end to end, each ranked by its key."""
        table = np.concatenate([self._sector_table(n) for n in self.sectors])
        table.flags.writeable = False
        return table

    def _sector_table(self, n: int) -> np.ndarray:
        """The occupation tuples of N = n in increasing key, built mode by mode
        from the last (the key's leading digit) with every occupancy that
        leaves the modes below able to hold the rest: O(S * modes) work."""
        cap = 1 if self.statistics is Statistics.FERMION else n
        table, used = np.zeros((1, 0), np.int64), np.zeros(1, np.int64)
        for below in reversed(range(self.modes)):
            low, high = np.maximum(0, n - used - cap * below), np.minimum(cap, n - used)
            count = high - low + 1
            rows = np.repeat(np.arange(len(used)), count)
            # each row's occupancies low..high of this mode, in increasing order
            value = low[rows] + np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
            table, used = np.column_stack((value, table[rows])), used[rows] + value
        return table

    @cached_property
    def _keys(self) -> np.ndarray:
        """(S,) the increasing keys N * r**modes + sum_k occ_k * r**k of the
        basis states."""
        weights = self._radix ** np.arange(self.modes + 1, dtype=np.int64)
        return self.occupancies @ weights[:-1] + self.occupancies.sum(axis=1) * weights[-1]

    @cached_property
    def _state_energies(self) -> np.ndarray:
        """(S,) many-body energies E_i = sum_k occ_k e_k of the basis states."""
        return self.occupancies @ np.array(self.energies)

    def _hops(self, dest: int, src: int):
        """``(i, j, n_src, n_dest, sign)``: the nonzeros of c_dest^dag c_src.

        Basis state i goes to basis state j with amplitude
        sign * sqrt(n_src * n_dest), n_src the occupation of mode src in i and
        n_dest that of mode dest in j, for every i with n_src > 0 (and, for
        fermions with dest != src, mode dest empty in i), in increasing i.  j
        is the state of key ``key_i - r**src + r**dest``, in the sector of i.
        The fermion sign is the parity of the modes strictly between src and
        dest that i occupies (Jordan-Wigner ordering); dest == src is the
        number operator n_src, with i = j and n_src = n_dest.  This is the one
        occupancy rule behind every operator of the model.
        """
        occ = self.occupancies
        if dest == src:
            i = np.flatnonzero(occ[:, src])
            n = occ[i, src]
            return i, i, n, n, np.ones(len(i), np.intp)
        # a boson mode never fills up: r - 1 is the largest N
        i = np.flatnonzero((occ[:, src] > 0) & (occ[:, dest] < self._radix - 1))
        j = np.searchsorted(self._keys, self._keys[i] + (self._radix**dest - self._radix**src))
        sign = np.ones(len(i), np.intp)
        if self.statistics is Statistics.FERMION:
            low, high = sorted((dest, src))
            sign -= 2 * (occ[i, low + 1:high].sum(axis=1) % 2)
        return i, j, occ[i, src], occ[i, dest] + 1, sign

    def _jumps(self):
        """``(i, j, a)`` per rate, the one source of the model's jumps: the
        nonzeros A[j_k, i_k] = a_k = sqrt(w) sign sqrt(n_src n_dest) of
        A = sqrt(w) c_dest^dag c_src, from :meth:`_hops`."""
        for (dest, src), w in self.rates.items():
            i, j, n_src, n_dest, sign = self._hops(dest, src)
            yield i, j, np.sqrt(w) * sign * np.sqrt(n_src * n_dest)

    @cached_property
    def flow(self) -> "FockFlow":
        """The coherent flow of :func:`rhs_fock_lindblad`: H = sum_n e_n
        c_n^dag c_n and the jumps of :meth:`_jumps`."""
        return FockFlow(self._state_energies, list(self._jumps()))

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
        return PopulationFlow(self.dim, np.concatenate(src), np.concatenate(dst), rate)

    @cached_property
    def one_particle_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(slots, index, value)`` over the nonzeros a_k = X[r_k, k] of every
        X = c_n^dag c_n', with slot n * modes + n' (interleaved for
        :func:`_scatter`) and index k * S + r_k into ``rho_s.ravel()``:
        Tr(X rho_s) is the sum of a_k rho_s[k, r_k] over its slot
        (:func:`reduce_one_particle`)."""
        slots, index, values = [], [], []
        for n in range(self.modes):
            for n2 in range(self.modes):
                i, j, n_src, n_dest, sign = self._hops(n, n2)
                slots.append(np.full(len(i), n * self.modes + n2))
                index.append(i * self.dim + j)
                values.append(sign * np.sqrt(n_src * n_dest))
        return _interleave(np.concatenate(slots)), np.concatenate(index), np.concatenate(values)


class FockFlow:
    """The linear many-body flow on S x S density matrices

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
    stored as flat ``src``/``dst`` indices into ``rho.ravel()`` and a
    ``coef`` array, so a call is one gather and one scatter (one ``bincount``
    over the real and imaginary parts), with no matrix product.  The pair
    tables and ``decay`` are built on the first call.  The populations of a
    diagonal state are :func:`rhs_fock_lindblad`'s to read, not this flow's.
    """

    def __init__(self, energies: np.ndarray, jumps):
        self.dim = len(energies)
        self._energies, self._jumps = energies, jumps

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(decay, src, dst, coef)``, ``dst`` interleaved for :func:`_scatter`."""
        d, energies = self.dim, self._energies
        drain = np.zeros(d)
        src, dst, coef = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0, complex)]
        for i, j, a in self._jumps:
            drain += np.bincount(i, np.abs(a) ** 2, minlength=d)
            src.append((i[:, None] * d + i).ravel())
            dst.append((j[:, None] * d + j).ravel())
            coef.append(np.outer(a, np.conj(a)).ravel())
        decay = -1j * (energies[:, None] - energies) - 0.5 * (drain[:, None] + drain)
        return decay, np.concatenate(src), _interleave(np.concatenate(dst)), np.concatenate(coef)

    def __call__(self, t: float, rho: np.ndarray) -> np.ndarray:
        decay, src, dst, coef = self._pairs
        gain = _scatter(dst, coef * rho.ravel()[src], rho.size)
        return decay * rho + gain.reshape(rho.shape)

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
    product of the per-mode occupation distributions, on the model's states.

    Fermions: each entry is the occupation probability p_k in [0, 1].
    Bosons: each entry is an exact integer Fock occupancy.  The model must
    hold every sector the state has weight on (:func:`start_sectors`).
    """
    occupations = list(occupations)
    if len(occupations) != model.modes:
        raise ValueError(f"expected {model.modes} occupations, got {len(occupations)}")
    needed = start_sectors(model.statistics, occupations)
    if not set(needed) <= set(model.sectors):
        raise ValueError(f"occupations: the state has weight on N = {needed.start}.."
                         f"{needed.stop - 1}, outside the sectors {reprlib.repr(model.sectors)}")
    occ, p = model.occupancies, np.ones(model.dim)
    # mode by mode from the last, the order of the Kronecker product's factors
    for k in reversed(range(model.modes)):
        if model.statistics is Statistics.FERMION:
            p = p * np.array([1 - occupations[k], occupations[k]])[occ[:, k]]
        else:
            p = p * (occ[:, k] == occupations[k])
    return p


def rhs_fock_lindblad(model: FockModel, rho_s) -> np.ndarray:
    """Exact many-body master equation:

        drho_s/dt = (1/i)[H, rho_s]
                    - (1/2) sum {A^dag A, rho_s} + sum A rho_s A^dag,

    with H = sum_n e_n c_n^dag c_n and the jumps A = sqrt(w) c_dest^dag c_src
    of the model's rates: the :class:`FockFlow` of ``model.flow``.  Hermitian
    and traceless; the jumps conserve total particle number.  A 1-D ``rho_s``
    is the populations p of a diagonal state: their derivative is the flow's
    diagonal on diag(p), bit for bit, the gain |a_k|^2 p[i_k] into j_k summed
    in jump order less the drain d_i p_i ((d_i + d_i)/2 is d_i exactly), read
    from ``model._jumps()`` one jump at a time without building ``model.flow``.
    """
    if np.ndim(rho_s) != 1:
        return model.flow(0.0, _matrix(model, rho_s))
    p = _populations(model, rho_s)
    gain, drain = np.zeros(model.dim), np.zeros(model.dim)
    for i, j, a in model._jumps():
        # no basis state twice in j: each jump adds at most one term to an entry
        gain += np.bincount(j, (a * np.conj(a)).real * p[i], minlength=model.dim)
        drain += np.bincount(i, np.abs(a) ** 2, minlength=model.dim)
    return gain - drain * p


def _check_dim(model: FockModel, dim: int) -> None:
    if dim != model.dim:
        raise ValueError(f"dimension mismatch: state dim {dim} vs basis size {model.dim}")


def _matrix(model: FockModel, rho_s) -> np.ndarray:
    """A 2-D ``rho_s`` as a finite, square complex matrix of the model's basis
    size; anything else is refused with a ``ValueError``."""
    rho_s = as_square_matrix(rho_s, "rho_s")
    _check_dim(model, rho_s.shape[0])
    return rho_s


def _populations(model: FockModel, rho_s) -> np.ndarray:
    """A 1-D ``rho_s`` as the float populations of a diagonal state of the
    model.  Entries with an imaginary part, or not finite, are refused, not
    coerced; negative ones pass, since a derivative ``flow(0, p)`` has them."""
    p = np.asarray(rho_s)
    if np.iscomplexobj(p):
        if np.any(p.imag != 0):
            raise ValueError("rho_s: populations must be real, got complex entries")
        p = p.real
    p = p.astype(float, copy=False)
    _check_dim(model, p.shape[0])
    if not np.isfinite(p).all():
        raise ValueError("rho_s: entries must be finite (no NaN/Inf)")
    return p


def reduce_one_particle(model: FockModel, rho_s) -> np.ndarray:
    """One-particle density matrix: rho_p[n, n'] = Tr(c_n^dag c_n' rho_s).

    A 1-D ``rho_s`` is the populations p of a diagonal state, which reduces
    to a diagonal one-particle state; it is returned as its diagonal, the
    mean occupations ``occupancies.T @ p``, a real 1-D array of one entry a
    mode, not as the matrix.
    """
    if np.ndim(rho_s) == 1:
        return model.occupancies.T @ _populations(model, rho_s)
    rho_s = _matrix(model, rho_s)
    slots, index, values = model.one_particle_entries
    m = model.modes
    return _scatter(slots, values * rho_s.ravel()[index], m * m).reshape(m, m)


def is_product_diagonal(model: FockModel, rho_s, tol: float = 1e-12) -> bool:
    """True when rho_s is diagonal in the occupation basis and its joint
    occupancy distribution factorizes over modes, with no weight outside the
    model's sectors.  A 1-D ``rho_s`` is the populations of a diagonal state."""
    if np.ndim(rho_s) == 1:
        probs = _populations(model, rho_s)
    else:
        rho_s = _matrix(model, rho_s)
        if np.abs(rho_s - np.diag(np.diag(rho_s))).max() > tol:
            return False
        probs = np.diag(rho_s).real
    occ = model.occupancies
    marginals = [np.bincount(column, weights=probs) for column in occ.T]
    expected = np.prod([m[column] for m, column in zip(marginals, occ.T)], axis=0)
    return not (np.abs(probs - expected) > tol).any()


def closure_residual_at_t0(model: FockModel, rho_s) -> float:
    """Max deviation, over modes, between the exact t=0 occupation derivative
    and the occupation-number closure evaluated on the reduced state.

    The closure replaces two-mode correlators by products of occupations; for
    mode-uncorrelated diagonal states the replacement is exact at the instant,
    so the residual is at rounding level.  For any other state a warning is
    issued and the residual quantifies the closure error.  Populations p (a
    1-D ``rho_s``) take their exact derivative from ``model.populations(0, p)``.
    A mean occupation reads only the populations of its state, so a matrix
    ``rho_s`` is reduced by its diagonal and that of its derivative.
    """
    if np.ndim(rho_s) == 1:
        p = rho_s = _populations(model, rho_s)
        dp = model.populations(0.0, p)
    else:
        rho_s = _matrix(model, rho_s)
        p, dp = rho_s.diagonal().real, model.flow(0.0, rho_s).diagonal().real
    exact = reduce_one_particle(model, dp)
    if not is_product_diagonal(model, rho_s, tol=1e-10):
        warnings.warn(
            "state is not a mode-uncorrelated diagonal state; the residual "
            "measures closure error rather than rounding",
            NonProductStateWarning,
            stacklevel=2,
        )
    # the closure's kernel, on the occupations as reduced: a rounding spill
    # past 0 or 1 is part of the residual
    occ = reduce_one_particle(model, p)
    closed = OccupationFlow(model.network.rate_matrix(), model.statistics.sign)(0.0, occ)
    return float(np.abs(exact - closed).max())

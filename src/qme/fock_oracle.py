"""Exact second-quantized dynamics on small Fock spaces.

This module is the independent oracle for the one-particle equations: a full
many-body Lindblad evolution whose reduced occupation derivatives can be
compared, at t = 0, against the semiclassical closure used by the rest of the
package.  The closure is exact for mode-uncorrelated diagonal states, so the
comparison has a sharp expected value there (residual at rounding level).

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
from functools import lru_cache
from numbers import Integral

import numpy as np

from .operators import Statistics, as_square_matrix
from .dynamics import TransitionNetwork, rhs_quasiclassical

MAX_MODES = 4
MAX_BOSON_DIM = 10_000


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

    @property
    def modes(self) -> int:
        return len(self.energies)

    @property
    def level_dim(self) -> int:
        return 2 if self.statistics is Statistics.FERMION else self.boson_cutoff + 1

    @property
    def fock_dim(self) -> int:
        return self.level_dim ** self.modes

    def occupancy_of_index(self, index: int) -> tuple[int, ...]:
        """Per-mode occupations of a Fock basis index (little-endian)."""
        d = self.level_dim
        occ = []
        for _ in range(self.modes):
            occ.append(index % d)
            index //= d
        return tuple(occ)


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


def product_diagonal_state(model: FockModel, occupations) -> np.ndarray:
    """Mode-uncorrelated diagonal many-body state.

    Fermions: each entry is the occupation probability p_k in [0, 1].
    Bosons: each entry is an exact integer Fock occupancy <= cutoff.
    """
    occupations = list(occupations)
    if len(occupations) != model.modes:
        raise ValueError(f"expected {model.modes} occupations, got {len(occupations)}")
    rho = np.eye(1, dtype=complex)
    for k in reversed(range(model.modes)):
        occ = occupations[k]
        if model.statistics is Statistics.FERMION:
            if not 0 <= occ <= 1:
                raise ValueError(f"occupations[{k}]: fermion occupation must lie in [0, 1], got {occ}")
            local = np.diag([1 - occ, occ]).astype(complex)
        else:
            m = int(occ)
            if m != occ or not 0 <= m <= model.boson_cutoff:
                raise ValueError(
                    f"occupations[{k}]: boson occupancy must be an integer in "
                    f"[0, {model.boson_cutoff}], got {occ}"
                )
            diag = np.zeros(model.level_dim)
            diag[m] = 1.0
            local = np.diag(diag).astype(complex)
        rho = np.kron(rho, local)
    return rho


def _static_parts(model: FockModel):
    """Hamiltonian and jump-operator products, memoized on the frozen model."""
    cached = getattr(model, "_rhs_cache", None)
    if cached is None:
        h = fock_hamiltonian(model)
        parts = [(a, a.conj().T) for a in fock_jump_operators(model)]
        parts = [(a, ad, ad @ a) for a, ad in parts]
        cached = (h, parts)
        object.__setattr__(model, "_rhs_cache", cached)
    return cached


def rhs_fock_lindblad(model: FockModel, rho_s) -> np.ndarray:
    """Exact many-body master equation:

        drho_s/dt = (1/i)[H, rho_s]
                    - (1/2) sum {A^dag A, rho_s} + sum A rho_s A^dag,

    with the jump operators of :func:`fock_jump_operators`.  Hermitian and
    traceless; the jumps conserve total particle number.
    """
    rho_s = as_square_matrix(rho_s, "rho_s")
    if rho_s.shape[0] != model.fock_dim:
        raise ValueError(
            f"dimension mismatch: state dim {rho_s.shape[0]} vs Fock dim {model.fock_dim}"
        )
    h, parts = _static_parts(model)
    out = -1j * (h @ rho_s - rho_s @ h)
    for a, ad, ada in parts:
        out -= 0.5 * (ada @ rho_s + rho_s @ ada)
        out += a @ rho_s @ ad
    return out


def reduce_one_particle(model: FockModel, rho_s) -> np.ndarray:
    """One-particle density matrix: rho_p[n, n'] = Tr(c_n^dag c_n' rho_s)."""
    rho_s = as_square_matrix(rho_s, "rho_s")
    if rho_s.shape[0] != model.fock_dim:
        raise ValueError(
            f"dimension mismatch: state dim {rho_s.shape[0]} vs Fock dim {model.fock_dim}"
        )
    cs = build_mode_operators(model)
    m = model.modes
    rho_p = np.empty((m, m), dtype=complex)
    for n in range(m):
        cn_dag = cs[n].conj().T
        for n2 in range(m):
            rho_p[n, n2] = np.trace(cn_dag @ cs[n2] @ rho_s)
    return rho_p


def is_product_diagonal(model: FockModel, rho_s, tol: float = 1e-12) -> bool:
    """True when rho_s is diagonal in the occupation basis and its joint
    occupancy distribution factorizes over modes."""
    rho_s = np.asarray(rho_s, dtype=complex)
    off = rho_s - np.diag(np.diag(rho_s))
    if np.abs(off).max() > tol:
        return False
    probs = np.diag(rho_s).real
    d = model.level_dim
    marginals = np.zeros((model.modes, d))
    for idx, p in enumerate(probs):
        for k, occ in enumerate(model.occupancy_of_index(idx)):
            marginals[k, occ] += p
    for idx, p in enumerate(probs):
        expected = 1.0
        for k, occ in enumerate(model.occupancy_of_index(idx)):
            expected *= marginals[k, occ]
        if abs(p - expected) > tol:
            return False
    return True


def cutoff_contamination(model: FockModel, rho_s) -> float:
    """Total population in basis states with any mode at the boson cutoff.
    Runs with >= 1% contamination are not trustworthy near the cutoff."""
    if model.statistics is Statistics.FERMION:
        return 0.0
    probs = np.diag(np.asarray(rho_s)).real
    top = 0.0
    for idx, p in enumerate(probs):
        if max(model.occupancy_of_index(idx)) >= model.boson_cutoff:
            top += max(p, 0.0)
    return float(top)


def closure_residual_at_t0(model: FockModel, rho_s) -> float:
    """Max deviation, over modes, between the exact t=0 occupation derivative
    and the occupation-number closure evaluated on the reduced state.

    The closure replaces two-mode correlators by products of occupations; for
    mode-uncorrelated diagonal states the replacement is exact at the instant,
    so the residual is at rounding level.  For any other state a warning is
    issued and the residual quantifies the closure error.
    """
    rho_s = as_square_matrix(rho_s, "rho_s")
    if not is_product_diagonal(model, rho_s, tol=1e-10):
        warnings.warn(
            "state is not a mode-uncorrelated diagonal state; the residual "
            "measures closure error rather than rounding",
            NonProductStateWarning,
            stacklevel=2,
        )
    exact = np.diag(reduce_one_particle(model, rhs_fock_lindblad(model, rho_s))).real
    occ = np.diag(reduce_one_particle(model, rho_s)).real
    # clip rounding spill (~1e-16) so the closure's domain checks stay quiet
    occ = np.clip(occ, 0.0, 1.0 if model.statistics is Statistics.FERMION else None)
    closed = rhs_quasiclassical(occ, model.network.rate_matrix(), model.statistics)
    return float(np.abs(exact - closed).max())

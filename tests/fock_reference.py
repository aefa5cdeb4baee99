"""Reference operators for the Fock oracle.

The package builds every many-body operator from one occupancy rule
(``FockModel._hops``) on the states of its particle-number sectors, and never
forms an operator as a matrix.  This module builds the same operators the
textbook way, as Kronecker products of single-mode matrices with
Jordan-Wigner parity strings (Jordan & Wigner, Z. Phys. 47, 631 (1928)), on
the Fock space of every mode at ``level_count`` levels, and restricts them to
the model's states by their occupation tuples.  So the tests have an
independent construction to compare against.  It reads only the model's
statistics, energies, rates, sectors and occupation table.

A restricted operator is evaluated state by state: the Kronecker product of
single-mode matrices F_k has the entry prod_k F_k[f_k, g_k] between the
basis states of occupations f and g, so no matrix of the full Fock space is
formed, and a model of thousands of states (8 bosons in 8 modes) is in reach.
"""

import numpy as np
from scipy import sparse

from qme.operators import Statistics


def level_count(model) -> int:
    """Levels per mode of the full space: 2 for fermions, and for bosons one
    above the largest sector, so that no state of the model is cut off."""
    return 2 if model.statistics is Statistics.FERMION else max(model.sectors) + 1


def _factors(model, n: int) -> list[np.ndarray]:
    """The single-mode matrices of c_n, mode 0 first: the parity string on the
    modes below n, the lowering matrix on n, the identity above."""
    levels = level_count(model)
    if model.statistics is Statistics.FERMION:
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        parity = np.diag([1.0, -1.0])
    else:
        lower = np.diag(np.sqrt(np.arange(1.0, levels)), k=1)
        parity = np.eye(levels)
    return [parity if j < n else lower if j == n else np.eye(levels) for j in range(model.modes)]


def mode_operators(model) -> list[np.ndarray]:
    """Annihilation matrices c_n on the full Fock space (little-endian index:
    mode 0 is the last Kronecker factor)."""
    ops = []
    for n in range(model.modes):
        m = np.eye(1)
        for factor in reversed(_factors(model, n)):
            m = np.kron(m, factor)
        ops.append(m.astype(complex))
    return ops


def restricted(model, factors) -> sparse.csr_matrix:
    """The Kronecker product of ``factors`` (mode 0 first) between the model's
    basis states.  Each factor moves a level to at most one level, as those of
    c_dest^dag c_src do, and the product maps the model's states among
    themselves."""
    occ = np.asarray(model.occupancies)
    levels = level_count(model)
    place = occ @ levels ** np.arange(model.modes)  # little-endian full-space index
    target, amplitude = np.zeros(len(occ), np.int64), np.ones(len(occ))
    for k, factor in enumerate(factors):
        assert (np.count_nonzero(factor, axis=0) <= 1).all()
        level = np.abs(factor).argmax(axis=0)[occ[:, k]]
        amplitude = amplitude * factor[level, occ[:, k]]
        target += level * levels**k
    source = np.flatnonzero(amplitude)
    row_of = {int(index): row for row, index in enumerate(place)}
    rows = np.array([row_of[t] for t in target[source].tolist()], dtype=np.intp)
    return sparse.csr_matrix((amplitude[source].astype(complex), (rows, source)),
                             shape=(len(occ), len(occ)))


def sparse_hop(model, dest: int, src: int) -> sparse.csr_matrix:
    """c_dest^dag c_src on the model's states: the product of the two Kronecker
    products is the Kronecker product of the single-mode products."""
    pairs = zip(_factors(model, dest), _factors(model, src))
    return restricted(model, [a.conj().T @ b for a, b in pairs])


def hop_operator(model, dest: int, src: int) -> np.ndarray:
    """c_dest^dag c_src on the model's states, as a dense matrix."""
    return sparse_hop(model, dest, src).toarray()


def number_operators(model) -> list[np.ndarray]:
    return [hop_operator(model, n, n) for n in range(model.modes)]


def fock_hamiltonian(model) -> np.ndarray:
    """H = sum_n e_n c_n^dag c_n."""
    return sum(e * n_op for e, n_op in zip(model.energies, number_operators(model)))


def fock_jump_operators(model) -> list[np.ndarray]:
    """sqrt(w) c_dest^dag c_src for each directed transition."""
    return [np.sqrt(w) * hop_operator(model, dest, src) for (dest, src), w in model.rates.items()]


def population_generator(model) -> sparse.csr_matrix:
    """G of the classical master equation dp/dt = G p on diagonal states:
    G[j, i] = sum_A |A[j, i]|^2 off the diagonal and minus the column's
    out-rate on it, for the jumps A = sqrt(w) c_dest^dag c_src."""
    gain = sparse.csr_matrix((model.dim, model.dim))
    for (dest, src), w in model.rates.items():
        gain = gain + w * abs(sparse_hop(model, dest, src)).power(2)
    return (gain - sparse.diags(np.asarray(gain.sum(axis=0)).ravel())).tocsr()

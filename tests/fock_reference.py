"""Dense reference operators for the Fock oracle.

The package builds every many-body operator from one occupancy rule
(``FockModel._hops``) and never forms a D x D operator.  This module builds
the same operators the textbook way, as Kronecker products of single-mode
matrices with Jordan-Wigner parity strings (Jordan & Wigner, Z. Phys. 47, 631
(1928)), so the tests have an independent construction to compare against.
It reads only the model's statistics, mode count and level dimension.
"""

import numpy as np

from qme.operators import Statistics


def mode_operators(model) -> list[np.ndarray]:
    """Annihilation matrices c_n on the model's Fock space."""
    if model.statistics is Statistics.FERMION:
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        parity = np.diag([1.0, -1.0])
    else:
        lower = np.diag(np.sqrt(np.arange(1, model.level_dim)), k=1)
        parity = np.eye(model.level_dim)
    local_id = np.eye(model.level_dim)
    ops = []
    for k in range(model.modes):
        # little-endian index: mode 0 is the last kron factor
        m = np.eye(1)
        for j in reversed(range(model.modes)):
            m = np.kron(m, local_id if j > k else lower if j == k else parity)
        ops.append(m.astype(complex))
    return ops


def hop_operator(model, dest: int, src: int) -> np.ndarray:
    """c_dest^dag c_src."""
    cs = mode_operators(model)
    return cs[dest].conj().T @ cs[src]


def number_operators(model) -> list[np.ndarray]:
    return [hop_operator(model, n, n) for n in range(model.modes)]


def fock_hamiltonian(model) -> np.ndarray:
    """H = sum_n e_n c_n^dag c_n."""
    return sum(e * n_op for e, n_op in zip(model.energies, number_operators(model)))


def fock_jump_operators(model) -> list[np.ndarray]:
    """sqrt(w) c_dest^dag c_src for each directed transition."""
    return [np.sqrt(w) * hop_operator(model, dest, src) for (dest, src), w in model.rates.items()]


def table_operator(model, dest: int, src: int) -> np.ndarray:
    """c_dest^dag c_src as the package builds it, from its hop table."""
    i, j, n_src, n_dest, sign = model._hops(dest, src)
    out = np.zeros((model.fock_dim, model.fock_dim), dtype=complex)
    out[j, i] = sign * np.sqrt(n_src * n_dest)
    return out

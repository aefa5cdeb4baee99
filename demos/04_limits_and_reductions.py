#!/usr/bin/env python3
"""Limit behavior: the linear and quasiclassical faces of one equation.

Goal:
  Three ways the occupation-dependent master equation collapses onto
  familiar forms:

  1. Rank-one jump operators sqrt(w) |src><dest| make the generalized
     jump-operator flow identical to the transition-network flow, and the
     linear jump-operator flow identical to the linear network flow.
  2. Low density: scaling the state by eps leaves a difference to the
     linear equation that shrinks as eps^2 (fitted log-log slope 2).
  3. Homogeneous systems: with everything diagonal in the network basis,
     the matrix flow's diagonal is exactly the occupation-number kinetics
     f' = w f (1 +/- f) - ... of a rate equation.

Checks:
  Identities hold to 1e-12; the fitted slope is 2.00 +/- 0.05; the diagonal
  reduction matches to 1e-12.
"""

import numpy as np

from qme import (
    JumpFlow,
    NetworkFlow,
    Statistics,
    TransitionNetwork,
    low_density_slope,
    rank_one_jumps,
    rhs_quasiclassical,
)

FERMION = Statistics.FERMION


def main():
    print("Reductions of the occupation-dependent flow")
    print("-------------------------------------------")
    rng = np.random.default_rng(3)
    n = 4
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (g + g.conj().T)
    net = TransitionNetwork.computational(
        n, {(1, 0): 0.8, (2, 1): 0.5, (3, 2): 0.4, (0, 3): 0.6, (0, 2): 0.3}
    )
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rho = (q * rng.uniform(0.0, 1.0, n)) @ q.conj().T

    jumps = rank_one_jumps(net)
    d_nonlinear = np.abs(
        JumpFlow(h, jumps, FERMION).evaluate(rho) - NetworkFlow(h, net, FERMION).evaluate(rho)
    ).max()
    d_linear = np.abs(
        JumpFlow(h, jumps, None).evaluate(rho) - NetworkFlow(h, net, None).evaluate(rho)
    ).max()
    print(f"  rank-one jumps vs network form:   {d_nonlinear:.2e}")
    print(f"  linear jumps vs linear network:   {d_linear:.2e}")

    sigma = rho / np.trace(rho).real
    fit = low_density_slope(h, net, sigma, [1e-1, 1e-2, 1e-3, 1e-4])
    print(f"  low-density residual slope:       {fit.slope:.4f} (expect 2)")
    for eps, res in zip(fit.epsilons, fit.residuals):
        print(f"    eps = {eps:7.1e}   ||nonlinear - linear|| = {res:.3e}")

    f = rng.uniform(0.0, 1.0, n)
    h_diag = np.diag(rng.standard_normal(n)).astype(complex)
    homogeneous = NetworkFlow(h_diag, net, FERMION).evaluate(np.diag(f).astype(complex))
    matrix_diag = np.diag(homogeneous).real
    kinetics = rhs_quasiclassical(f, net.rate_matrix(), FERMION)
    d_homog = np.abs(matrix_diag - kinetics).max()
    print(f"  homogeneous diagonal reduction:   {d_homog:.2e}")

    print()
    ok = (
        max(d_nonlinear, d_linear, d_homog) <= 1e-12
        and fit.slope is not None
        and abs(fit.slope - 2.0) <= 0.05
    )
    print(f"LIMITS AND REDUCTIONS: {'PASS' if ok else 'FAIL'}")


if __name__ == "__main__":
    main()

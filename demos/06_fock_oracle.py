#!/usr/bin/env python3
"""Exact many-body oracle versus the one-particle closure.

Goal:
  The one-particle equations close the hierarchy by replacing two-mode
  correlators <N_a N_b> with products of occupations.  A small exact
  Fock-space solver shows precisely when that is and is not the truth:

  1. At t = 0, for any mode-uncorrelated diagonal state, the exact
     occupation derivatives coincide with the closure to rounding.
  2. Along a trajectory the factorization degrades.  The cleanest case is a
     single particle on two modes: exactly one particle means
     <N_0 N_1> = 0, so the exact transfer follows the LINEAR law
     1 - e^{-wt}, while the closed one-particle equation predicts the
     blocked law 1 - 1/(1 + wt).  The gap is real physics, not error.

A product state is diagonal, so it is given by its populations
(`product_populations`), the 1-D array of its diagonal; the closure
comparison takes them as they are, and so does the trajectory below: the
coherent flow keeps a diagonal state diagonal, and on populations it is the
flow of that diagonal.  The jumps conserve the particle number N, so a model
holds only the N-sectors it names: every sector for fermions by default,
and for the boson start [2, 1] the sector N = 3, with no cutoff.

Checks:
  t=0 residuals at rounding level for fermion and boson product states; a
  correlated state reports a finite residual; the trajectory gap matches
  the two closed forms.
"""

import warnings

import numpy as np

from qme import (
    EvolutionSpec,
    FockModel,
    Statistics,
    closure_residual_at_t0,
    evolve,
    product_populations,
    reduce_one_particle,
    rhs_fock_lindblad,
)

FERMION = Statistics.FERMION
BOSON = Statistics.BOSON


def main():
    print("Exact Fock-space dynamics as an oracle for the reduced equations")
    print("----------------------------------------------------------------")

    fermi = FockModel(FERMION, (0.0, 0.6, 1.3), {(1, 0): 0.8, (2, 1): 0.5, (0, 2): 0.3})
    r_fermi = closure_residual_at_t0(fermi, product_populations(fermi, [0.9, 0.4, 0.2]))
    bose = FockModel(BOSON, (0.0, 1.0), {(1, 0): 0.6, (0, 1): 0.9}, sectors=(3,))
    r_bose = closure_residual_at_t0(bose, product_populations(bose, [2, 1]))
    print(f"  t=0 closure residual, 3-mode fermion product state: {r_fermi:.2e}")
    print(f"  t=0 closure residual, 2-mode boson product state:   {r_bose:.2e}")

    # a coherently shared particle is maximally non-product: residual = 1/4
    pair = FockModel(FERMION, (0.0, 1.0), {(1, 0): 1.0})
    psi = np.zeros(4, dtype=complex)
    psi[0b01] = psi[0b10] = 1 / np.sqrt(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r_corr = closure_residual_at_t0(pair, np.outer(psi, psi.conj()))
    print(f"  t=0 closure residual, coherently shared particle:   {r_corr:.6f} (exact 1/4)")

    # single-particle transfer: exact dynamics is linear, the closure is not
    spec = EvolutionSpec(
        rhs=lambda t, p: rhs_fock_lindblad(pair, p), t0=0.0, t1=3.0, dt=1e-3, record_every=100,
    )
    traj = evolve(spec, product_populations(pair, [1.0, 0.0]))
    times = traj.times
    exact_nf = np.array([reduce_one_particle(pair, p)[1] for p in traj.states])
    linear_law = 1.0 - np.exp(-times)
    blocked_law = 1.0 - 1.0 / (1.0 + times)
    err_linear = np.abs(exact_nf - linear_law).max()
    gap_blocked = np.abs(exact_nf - blocked_law).max()
    print(f"  single particle on two modes, exact vs linear law:  {err_linear:.2e}")
    print(f"  same trajectory vs the blocked (closed) law:        {gap_blocked:.3f} "
          "(finite: closure error)")

    print()
    ok = (
        max(r_fermi, r_bose) <= 1e-10
        and abs(r_corr - 0.25) <= 1e-12
        and err_linear <= 1e-6
        and gap_blocked > 0.1
    )
    print(f"FOCK ORACLE: {'PASS' if ok else 'FAIL'}")


if __name__ == "__main__":
    main()

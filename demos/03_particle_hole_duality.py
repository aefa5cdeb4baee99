#!/usr/bin/env python3
"""Particle/hole duality of the fermionic master equation.

Goal:
  The fermionic flow keeps its form when every orbital is read as a vacancy:
  replacing rho -> I - rho and exchanging the loss and gain operators gives
  the same equation back.  flow.hole() is that equation written out for the
  holes, a flow of the same kind (a transition network with W -> W^T here).
  Concretely, if rho evolves under the particle flow and rho_hole evolves
  under the hole flow from the complementary start, then
  rho(t) + rho_hole(t) = I for all t.  flow.paired() steps the two side by
  side from [rho, I - rho] and keeps the residual of each snapshot.

Model:
  A three-orbital fermion system with a nontrivial Hamiltonian and a cyclic
  transition network, integrated both ways in one pair run.

Checks:
  max_t || rho(t) + rho_hole(t) - I ||_max stays at integration roundoff;
  a broken pair, FlowPair(flow, flow), which runs the complementary start
  under the particle flow itself, loss and gain not exchanged, breaks it by
  orders of magnitude.
"""

import dataclasses

import numpy as np

from qme import (
    DensityMatrix,
    EvolutionSpec,
    NetworkFlow,
    Statistics,
    TransitionNetwork,
    evolve,
)
from qme.dynamics import FlowPair

FERMION = Statistics.FERMION


def main():
    print("Particle/hole duality of the occupation-dependent flow")
    print("------------------------------------------------------")
    n = 3
    h = np.array(
        [[0.0, 0.2, 0.0], [0.2, 0.5, -0.1j], [0.0, 0.1j, 1.0]], dtype=complex
    )
    net = TransitionNetwork.computational(n, {(1, 0): 0.8, (2, 1): 0.5, (0, 2): 0.3})
    initial = DensityMatrix(np.diag([0.9, 0.5, 0.1]), FERMION)
    flow = NetworkFlow(h, net, FERMION)

    spec = EvolutionSpec(rhs=flow.paired(), t0=0.0, t1=4.0, dt=1e-3, record_every=50)
    residual = evolve(spec, initial).duality.max()
    print(f"  matched evolutions:  max ||rho + rho_hole - I|| = {residual:.2e}")

    # the deliberately broken pair: loss and gain left unexchanged
    broken = evolve(dataclasses.replace(spec, rhs=FlowPair(flow, flow)), initial).duality.max()
    print(f"  unexchanged flow:    max ||rho + rho_hole - I|| = {broken:.2e}")

    print()
    ok = residual <= 1e-10 and broken > 1e-3
    print(f"PARTICLE/HOLE DUALITY: {'PASS' if ok else 'FAIL'}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Two-orbital transfer: Pauli blocking versus Bose enhancement.

Goal:
  One transition src -> dest with rate w moves occupation at
  w * n_src * (1 +/- n_dest).  Starting from n = (1, 0) this integrates to

    fermions   n_dest(t) = 1 - 1/(1 + w t)     (blocked, algebraic approach)
    bosons     n_dest(t) = tanh(w t)           (enhanced, exponential approach)

  and a fermionic transition into a completely filled orbital moves nothing
  at all: the rate is exactly zero, not merely small.

Checks:
  Integrated curves match the closed forms to 1e-8; the blocked rate is 0.
"""

import numpy as np

from qme import (
    DensityMatrix,
    EvolutionSpec,
    NetworkFlow,
    Statistics,
    TransitionNetwork,
    evolve,
)


def main():
    print("Two-orbital transfer with occupation feedback (w = 1)")
    print("-----------------------------------------------------")
    net = TransitionNetwork.computational(2, {(1, 0): 1.0})
    h = np.zeros((2, 2))

    results = {}
    for stats, label, closed_form in (
        (Statistics.FERMION, "fermion", lambda t: 1.0 - 1.0 / (1.0 + t)),
        (Statistics.BOSON, "boson", np.tanh),
    ):
        flow = NetworkFlow(h, net, stats)
        spec = EvolutionSpec(rhs=flow, t0=0.0, t1=3.0, dt=1e-3, record_every=100)
        traj = evolve(spec, DensityMatrix(np.diag([1.0, 0.0]), stats))
        got = np.array([m[1, 1].real for m in traj.states])
        err = np.abs(got - closed_form(traj.times)).max()
        results[label] = err
        print(f"  {label:<8} n_dest(3) = {got[-1]:.8f}  closed form {closed_form(3.0):.8f}"
              f"  max error {err:.2e}")

    # transition into a full fermionic orbital is forbidden outright
    rho_full = np.diag([0.7, 1.0]).astype(complex)
    rate = NetworkFlow(h, net, Statistics.FERMION).evaluate(rho_full)[1, 1]
    print(f"  blocked transfer rate into a full orbital: {abs(rate):.1e}")

    print()
    ok = max(results.values()) <= 1e-8 and abs(rate) <= 1e-13
    print(f"TWO-STATE TRANSFER: {'PASS' if ok else 'FAIL'}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Exponential gain and loss laws of a single orbital.

Goal:
  Show the three elementary relaxation laws produced by the mean-field flow
  with an antihermitian extension and by the particle/hole-symmetric form:

    loss          d n/dt = -gamma * n          ->  n(t) = e^{-gamma t}
    fermion gain  d n/dt = gamma' * (1 - n)    ->  n(t) = 1 - e^{-gamma' t}
    boson gain    d n/dt = gamma * (1 + n)     ->  n(t) = e^{gamma t} - 1

  The blocking factor (1 - n) and the enhancement factor (1 + n) come from
  anticommutating the gain operator with I - rho (fermions) or I + rho
  (bosons); nothing is put in by hand.

Checks:
  Each integrated occupation matches its closed form to 1e-10 over the run.
"""

import numpy as np

from qme import DensityMatrix, EvolutionSpec, OperatorFlow, Statistics, evolve

GAMMA = 1.0
PROJECTOR = np.diag([1.0, 0.0]).astype(complex)
ZERO = np.zeros((2, 2))


def run_law(rhs, initial, stats, label, closed_form, t1):
    spec = EvolutionSpec(rhs=rhs, t0=0.0, t1=t1, dt=1e-3, record_every=200)
    traj = evolve(spec, DensityMatrix(initial, stats))
    got = np.array([m[0, 0].real for m in traj.states])
    err = np.abs(got - closed_form(traj.times)).max()
    print(f"  {label:<14} occupation at t={t1:g}: {got[-1]:.8f}   max error {err:.2e}")
    return err


def main():
    print("Elementary relaxation laws (gamma = 1)")
    print("--------------------------------------")

    decay_op = -0.5 * GAMMA * PROJECTOR
    err_loss = run_law(
        OperatorFlow(ZERO, decay_op, ZERO, None),
        np.diag([1.0, 0.0]),
        Statistics.FERMION,
        "loss",
        lambda t: np.exp(-GAMMA * t),
        5.0,
    )

    gain_op = -0.5 * GAMMA * PROJECTOR
    err_fermion = run_law(
        OperatorFlow(ZERO, ZERO, gain_op, Statistics.FERMION),
        np.zeros((2, 2)),
        Statistics.FERMION,
        "fermion gain",
        lambda t: 1.0 - np.exp(-GAMMA * t),
        5.0,
    )

    err_boson = run_law(
        OperatorFlow(ZERO, ZERO, gain_op, Statistics.BOSON),
        np.zeros((2, 2)),
        Statistics.BOSON,
        "boson gain",
        lambda t: np.exp(GAMMA * t) - 1.0,
        2.0,
    )

    worst = max(err_loss, err_fermion, err_boson)
    print(f"  worst error {worst:.2e}")
    print()
    print(f"GAIN/LOSS LAWS: {'PASS' if worst <= 1e-10 else 'FAIL'}")


if __name__ == "__main__":
    main()

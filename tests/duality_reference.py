"""Particle-hole duality residuals of two lone runs.

The package checks the duality on one run of a pair flow (``flow.paired()``):
the pair lifts the start rho to [rho, I - rho] and gives ||rho + x - I||_max
of each snapshot, which the trajectory keeps in ``duality``.  This module
takes the same numbers the long way, from a run of the particle flow and a
separate run of ``flow.hole()``, so the tests can hold a pair run to its two
lone runs.
"""

import numpy as np

from qme.operators import DensityMatrix, Statistics


def hole_start(rho: DensityMatrix) -> DensityMatrix:
    """The hole state I - rho of a fermion start rho."""
    return DensityMatrix(np.eye(rho.dim, dtype=complex) - rho.matrix, Statistics.FERMION, rho.tolerance)


def duality_residuals(particle, hole) -> list[float]:
    """||rho(t) + x(t) - I||_max of each pair of snapshots of a particle and a
    hole run, both streams of ``(t, state, herm_defect)`` on one time grid.
    The states are matrices or, on both sides, 1-D occupations, whose
    identity is 1."""
    residuals = []
    for (t, rho, _), (t_hole, x, _) in zip(particle, hole, strict=True):
        assert t == t_hole, (t, t_hole)
        eye = np.eye(len(rho)) if rho.ndim == 2 else 1.0
        residuals.append(float(np.abs(rho + x - eye).max()))
    return residuals

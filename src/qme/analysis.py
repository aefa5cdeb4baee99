"""Trajectory-level verification: positivity and bound monitoring,
limit-behavior fits, and the bundled dephasing counterexample.

The particle-hole duality is checked on the run itself: a pair flow
(``flow.paired()``) gives the residual of each of its states, which
:func:`~qme.integrator.evolve` keeps in the trajectory's ``duality``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DephasingRates,
    NetworkFlow,
    Statistics,
    TransitionNetwork,
)
from .integrator import Trajectory
from .operators import DensityMatrix

#: Bound-violation threshold: looser than the integrator tolerance so that
#: roundoff is never flagged as physics.
VIOLATION_TOL = 1e-8

#: State tolerance of the Appendix-D start, whose canonical matrix is indefinite.
APPENDIX_D_TOLERANCE = 0.1


def bounds_monitor(traj: Trajectory, statistics: Statistics) -> list[tuple[float, float]]:
    """Snapshots violating positivity (min eigenvalue < -VIOLATION_TOL) or,
    for fermions, the occupation cap (max eigenvalue > 1 + VIOLATION_TOL).

    Returns (time, offending eigenvalue) pairs in time order.
    """
    violations: list[tuple[float, float]] = []
    for t, lo, hi in zip(traj.times, traj.min_eig, traj.max_eig):
        if lo < -VIOLATION_TOL:
            violations.append((float(t), float(lo)))
        if statistics is Statistics.FERMION and hi > 1 + VIOLATION_TOL:
            violations.append((float(t), float(hi)))
    return violations


def first_crossing_time(times, values, level: float = 0.0) -> float | None:
    """First time a sampled series crosses below ``level``, located by linear
    interpolation between the bracketing snapshots.  None when the series
    starts below the level or never drops below it."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values[0] < level:
        return None
    for i in range(1, len(values)):
        if values[i] < level:
            t0, t1 = times[i - 1], times[i]
            v0, v1 = values[i - 1], values[i]
            return float(t0 + (level - v0) * (t1 - t0) / (v1 - v0))
    return None


@dataclass(frozen=True)
class LowDensitySlope:
    """Result of the low-density residual fit."""

    slope: float | None
    residuals: tuple[float, ...]
    epsilons: tuple[float, ...]
    degenerate: bool


def low_density_slope(h, net: TransitionNetwork, sigma, epsilons,
                      statistics: Statistics = Statistics.FERMION) -> LowDensitySlope:
    """Fitted log-log slope of || nonlinear RHS - linear RHS || at rho = eps*sigma.

    The difference between the occupation-dependent equation and its linear
    limit is quadratic in the state, so the expected slope is 2.  Points whose
    residual falls below the 1e-14 rounding floor are dropped; when every
    residual vanishes (e.g. all rates zero) the fit is reported degenerate.
    """
    sigma = np.asarray(sigma, dtype=complex)
    nonlinear, linear = NetworkFlow(h, net, statistics), NetworkFlow(h, net, None)
    eps_used, res_used, res_all = [], [], []
    for eps in epsilons:
        rho = eps * sigma
        diff = nonlinear.evaluate(rho) - linear.evaluate(rho)
        r = float(np.abs(diff).max())
        res_all.append(r)
        if r > 1e-14:
            eps_used.append(float(eps))
            res_used.append(r)
    if len(eps_used) < 2:
        return LowDensitySlope(None, tuple(res_all), tuple(float(e) for e in epsilons), True)
    slope = float(np.polyfit(np.log(eps_used), np.log(res_used), 1)[0])
    return LowDensitySlope(slope, tuple(res_all), tuple(float(e) for e in epsilons), False)


def dephasing_counterexample_matrix(coupling: float = 10.0 / 27.0) -> np.ndarray:
    """The 3-orbital matrix driven out of the positive cone by pure dephasing:
    diagonals 1/3, entries (0,1) and (0,2) equal to ``coupling``, entries
    (1,2) equal to 2/9 (all symmetric).

    At the canonical coupling 10/27 the matrix is already slightly indefinite
    (min eigenvalue ~ -0.0910): 10/27 exceeds the diagonal 1/3, so no value of
    the (1,2) entry yields a positive matrix.  Couplings in roughly
    (0.236, 0.304), e.g. 8/27, give a genuinely positive start that still
    loses positivity as dephasing removes the (1,2) coherence.
    """
    b = coupling
    return np.array(
        [
            [1.0 / 3.0, b, b],
            [b, 1.0 / 3.0, 2.0 / 9.0],
            [b, 2.0 / 9.0, 1.0 / 3.0],
        ],
        dtype=complex,
    )


def dephasing_limit_spectrum(coupling: float = 10.0 / 27.0) -> np.ndarray:
    """Closed-form eigenvalues of the counterexample's long-time limit (the
    (1,2) coherence fully dephased): {1/3 - b*sqrt(2), 1/3, 1/3 + b*sqrt(2)}."""
    shift = coupling * np.sqrt(2.0)
    return np.array([1.0 / 3.0 - shift, 1.0 / 3.0, 1.0 / 3.0 + shift])


@dataclass(frozen=True)
class AppendixDScenario:
    """Initial state, the pure-dephasing flow parameters and the flow built
    from them (``rhs``, the Markoff equation with dephasing)."""

    initial: DensityMatrix
    h: np.ndarray
    network: TransitionNetwork
    dephasing: DephasingRates
    gamma: float
    rhs: NetworkFlow


def appendix_d_scenario(gamma: float = 1.0, h_diag=None,
                        coupling: float = 10.0 / 27.0) -> AppendixDScenario:
    """Pure-dephasing counterexample setup: the 3-orbital initial matrix, a
    diagonal Hamiltonian (default zero) and dephasing at rate ``gamma`` on the
    (1,2) orbital pair only, no transitions.

    The state tolerance is widened to :data:`APPENDIX_D_TOLERANCE` because the
    canonical initial matrix is slightly indefinite; the strict checks stay in
    force everywhere else.
    """
    if gamma <= 0:
        raise ValueError(f"dephasing rate must be positive, got {gamma}")
    matrix = dephasing_counterexample_matrix(coupling)
    initial = DensityMatrix(matrix, Statistics.FERMION, tolerance=APPENDIX_D_TOLERANCE)
    h = np.zeros((3, 3), dtype=complex) if h_diag is None else np.diag(np.asarray(h_diag, dtype=complex))
    net = TransitionNetwork.computational(3, {})
    deph = DephasingRates({(1, 2): float(gamma)})
    return AppendixDScenario(initial=initial, h=h, network=net, dephasing=deph, gamma=float(gamma),
                             rhs=NetworkFlow(h, net, None, deph))

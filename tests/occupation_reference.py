"""Reference occupation kinetics, written out term by term.

The package evaluates the occupation flow as one quadratic form per row
(``qme.dynamics.OccupationFlow``).  This module evaluates the same flow the
way the matrix flow does on its diagonal: the loss and gain rates from the
rate matrix, then the anticommutator {n, A'} - 2 A_gain with the merged
operator A' = A_loss - s A_gain.  A hole row takes the particle rates at
1 - x with loss and gain swapped.  It reads only the rate matrix
W[dest, src], the sign s and the rows, so the tests have an independent
expression to compare against.
"""

import numpy as np


def occupation_row(w: np.ndarray, sign: int, n: np.ndarray, hole: bool = False) -> np.ndarray:
    """dn/dt of one row of d occupations; for ``hole`` the row holds the
    hole occupations x = 1 - n of a fermion state."""
    at = 1.0 - n if hole else n
    loss = -0.5 * (w.T @ (1.0 + sign * at))
    gain = -0.5 * (w @ at)
    merged = loss - sign * gain
    if hole:
        # swapped: the hole gain is the particle loss; with s = -1 the merged
        # operator loss + gain is the same on either row
        gain = loss
    return (merged * n + n * merged) - 2.0 * gain


def occupation_rows(w: np.ndarray, sign: int, state: np.ndarray, hole) -> np.ndarray:
    """dn/dt of ``state``, rows of d occupations laid end to end, one
    ``hole`` flag per row."""
    rows = state.reshape(len(hole), -1)
    return np.concatenate([occupation_row(w, sign, row, h) for row, h in zip(rows, hole)])

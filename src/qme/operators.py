"""Dense complex-matrix foundation: hermitian validation, the commutator and
positivity checks.

Everything here is a pure function on plain ``numpy`` arrays; matrices are
small (tens of orbitals) and stored dense.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

#: Default absolute tolerance (max-norm) for hermiticity / positivity checks.
DEFAULT_TOL = 1e-10


class Statistics(Enum):
    """Particle statistics; fixes the sign of the occupation factor 1 + s*n."""

    FERMION = "fermion"
    BOSON = "boson"

    @property
    def sign(self) -> int:
        """+1 for bosons (enhancement), -1 for fermions (blocking).

        Every occupation factor in the package is written 1 + sign*n, so the
        sign convention lives in exactly one place.
        """
        return 1 if self is Statistics.BOSON else -1

    @classmethod
    def parse(cls, name: str) -> "Statistics":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown statistics {reprlib.repr(name)}; expected 'fermion' or 'boson'"
            ) from None


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name}: entries must be finite (no NaN/Inf)")
    return a


def hermiticity_defect(m) -> float:
    """max |M[i,j] - conj(M[j,i])| over all entries.  A real 1-D array is
    the diagonal of a real diagonal matrix, whose defect is 0 by
    construction: it returns 0.0 at once, with no complex copy."""
    if isinstance(m, np.ndarray) and m.ndim == 1 and m.dtype.kind == "f":
        return 0.0
    a = np.asarray(m, dtype=complex)
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def require_hermitian(m, tol: float = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Validate hermiticity within ``tol`` (absolute, max-norm) and return the array."""
    a = as_square_matrix(m, name)
    with np.errstate(over="ignore"):  # entries near the float limit give an inf defect
        defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"{name}: hermiticity defect {defect:.3e} exceeds tolerance {tol:.1e}")
    return a


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = as_square_matrix(a, "A")
    b = as_square_matrix(b, "B")
    _check_same_dim(a, b)
    return a @ b - b @ a


def positivity_report(m, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """(min eigenvalue, PSD within tolerance) of a hermitian matrix."""
    a = require_hermitian(m, tol)
    min_eig = float(np.linalg.eigvalsh(a)[0]) if a.size else 0.0
    return min_eig, min_eig >= -tol


@dataclass(frozen=True)
class DensityMatrix:
    """A validated one-particle density matrix.

    Invariants checked once, at construction: hermitian, positive
    semidefinite, real nonnegative trace (the particle number), and for
    fermions all eigenvalues <= 1, each within ``tolerance``.  ``matrix`` is
    the hermitian part 1/2 (m + m^dag) of the matrix m given, hermitian by bit
    pattern (as a flow needs) and read-only, so the invariants hold for the
    object's life and no reader checks them again.
    """

    matrix: np.ndarray
    statistics: Statistics
    tolerance: float = field(default=DEFAULT_TOL)

    def __post_init__(self):
        m = as_square_matrix(self.matrix, "density matrix")
        tol = self.tolerance
        require_hermitian(m, tol, "density matrix")
        # entries near the float limit overflow in these sums, and every
        # bound check below would pass the NaN eigenvalues that follow
        with np.errstate(over="ignore", invalid="ignore"):
            tr = complex(np.trace(m))
            hermitized = 0.5 * (m + m.conj().T)
        if not (np.isfinite(tr) and np.isfinite(hermitized).all()):
            raise ValueError("density matrix: entries too large, the trace or m + m^+ overflows")
        hermitized.flags.writeable = False
        object.__setattr__(self, "matrix", hermitized)
        if abs(tr.imag) > tol:
            raise ValueError(f"density matrix: trace has imaginary part {tr.imag:.3e}")
        if tr.real < -tol:
            raise ValueError(f"density matrix: trace {tr.real:.3e} is negative")
        vals = np.linalg.eigvalsh(hermitized)
        if vals[0] < -tol:
            raise ValueError(
                f"density matrix: not positive semidefinite (min eigenvalue {vals[0]:.3e})"
            )
        if self.statistics is Statistics.FERMION and vals[-1] > 1 + tol:
            raise ValueError(
                f"density matrix: fermion occupation {vals[-1]:.6f} exceeds 1"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def particle_number(self) -> float:
        return float(np.trace(self.matrix).real)

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return (
            self.statistics is other.statistics
            and self.matrix.shape == other.matrix.shape
            and bool(np.array_equal(self.matrix, other.matrix))
        )

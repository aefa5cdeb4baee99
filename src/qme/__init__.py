"""Density-matrix master equations with occupation-dependent gain and loss.

The package evolves one-particle density matrices under a family of related
equations: a mean-field flow extended by an antihermitian decay part, the
particle/hole-symmetric master equation for fermions and its bosonic
counterpart, the nonlinear transition-network form, the linear Markoff and
Lindblad limits, and the quasiclassical occupation kinetics.  A small exact
Fock-space solver serves as an independent oracle for the reduced dynamics.
"""

from .operators import (
    DEFAULT_TOL,
    DensityMatrix,
    Statistics,
    commutator,
    hermiticity_defect,
    positivity_report,
    require_hermitian,
)
from .dynamics import (
    DephasingRates,
    JumpFlow,
    NetworkFlow,
    OperatorFlow,
    TransitionNetwork,
    build_relaxation_operators,
    rank_one_jumps,
    rhs_quasiclassical,
)
from .integrator import (
    EvolutionSpec,
    IntegrationDivergedError,
    Trajectory,
    evolve,
    snapshots,
)
from .fock_oracle import (
    FockModel,
    closure_residual_at_t0,
    product_populations,
    reduce_one_particle,
    rhs_fock_lindblad,
)
from .analysis import (
    appendix_d_scenario,
    bounds_monitor,
    first_crossing_time,
    low_density_slope,
)

__version__ = "0.1.0"

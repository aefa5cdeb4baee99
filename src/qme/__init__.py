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
    Spectrum,
    Statistics,
    anticommutator,
    commutator,
    hermitian_eig,
    hermiticity_defect,
    positivity_report,
    require_hermitian,
)
from .dynamics import (
    DephasingRates,
    JumpFlow,
    NetworkFlow,
    OperatorFlow,
    QuasiclassicalFlow,
    TransitionNetwork,
    build_relaxation_operators,
    combined_relaxation_operator,
    hole_transform,
    rank_one_jumps,
    rhs_general,
    rhs_generalized_jumps,
    rhs_hole_form,
    rhs_lindblad,
    rhs_markoff,
    rhs_meanfield_nonhermitian,
    rhs_nonlinear_master,
    rhs_quasiclassical,
)
from .integrator import (
    EvolutionSpec,
    IntegrationDivergedError,
    Trajectory,
    evolve,
    step_rk4,
)
from .fock_oracle import (
    FockModel,
    build_mode_operators,
    closure_residual_at_t0,
    product_diagonal_state,
    reduce_one_particle,
    rhs_fock_lindblad,
)
from .analysis import (
    DiagnosticSeries,
    appendix_d_scenario,
    bounds_monitor,
    diagnostic_series,
    duality_check,
    first_crossing_time,
    low_density_slope,
)

__version__ = "0.1.0"

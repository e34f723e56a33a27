"""Dwell times, phase times, and outgoing-boundary resonances.

Numerics for s-wave scattering on finite-range potentials (hbar = 1):
radial and 1-d barrier solvers, time observables and the identities
connecting them, complex-energy eigenvalues under the fixed-k outgoing
boundary condition, and separable three-body models whose lifetime obeys
the reciprocal-addition law of the subsystem dwell times.
"""

__version__ = "0.1.0"

from .errors import (
    BlockOverflowError,
    ConfigurationError,
    DifferentiationError,
    DomainError,
    DwellTimeError,
    InternalConsistencyError,
    MatchingError,
    NodeAtBoundaryError,
    NonphysicalStateError,
    ResolutionError,
    SubsystemConvergenceError,
)
from .potentials import (
    PotentialSpec,
    gaussian_well,
    rectangular_barrier,
    square_well,
    tabulated_potential,
    woods_saxon_well,
)
from .radial import (
    Barrier1DSolution,
    BarrierOperator,
    RadialGrid,
    RadialOperator,
    RadialSolution,
    ScatteringObservables,
    auto_grid,
    integrate_radial,
    match_scattering,
    phase_shift_scan,
    scattering_solution,
    solve_barrier_1d,
)
from .times import (
    DwellResult,
    LogDerivativeDwell,
    OutgoingDwellReport,
    SmithIdentityResult,
    TimeReport,
    dwell_time,
    kp_log_derivative_dwell,
    outgoing_dwell_equals_phase,
    phase_time_delay,
    smith_identity_residual,
    tangent_phase_delay,
    time_scan,
    winful_decomposition_1d,
)
from .resonance import (
    KPSearchResult,
    ResonanceEigenpair,
    WidthDwellReport,
    find_kp_eigenvalues,
    kp_residual,
    scan_resonance_seeds,
    verify_width_dwell,
)
from .threebody import (
    ContinuityReport,
    ThreeBodyModel,
    ThreeBodyReport,
    build_three_body,
    continuity_residual,
    factorization_residual,
    solve_subsystems,
    three_body_currents,
    three_body_dwell,
    three_body_width,
)

__all__ = [name for name in dir() if not name.startswith("_")]

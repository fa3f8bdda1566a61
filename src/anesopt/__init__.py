"""Patient-specific minimum-time induction planning for a four-compartment
infusion model: parameter assembly, exact linear-system propagation, and two
independent solvers (indirect shooting and bang-bang pattern enumeration)
that must agree on the optimal schedule.
"""

from .errors import (ConfigError, DegenerateDemographicsError, DomainError,
                     InfeasibleError, IntegrationError, NoConvergenceError,
                     ParameterRangeError)
from .lti import (LTISystem, Trajectory, constant_input_propagator,
                  integrate, integrate_with_sign_event, kalman_rank)
from .patient import (EquilibriumState, PatientDemographics, PKPDParameters,
                      assemble_system, bis, bis_inverse, equilibrium,
                      lean_body_mass, schnider_parameters)
from .problem import (FAST_IDX, ControlSchedule, TimeOptimalProblem,
                      build_problem, sample_trajectory)
from .shooting import (ExtremalCertificate, bang_control, default_seed_grid,
                       full_rate_onset, hamiltonian, solve_shooting)
from .strategies import (Pattern, StrategyResult, enumerate_patterns,
                         solve_all_patterns, solve_pattern, solve_time_optimal)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ControlSchedule",
    "DegenerateDemographicsError", "DomainError", "EquilibriumState",
    "ExtremalCertificate", "FAST_IDX", "InfeasibleError", "IntegrationError",
    "LTISystem", "NoConvergenceError", "ParameterRangeError", "Pattern",
    "PatientDemographics", "PKPDParameters", "StrategyResult",
    "TimeOptimalProblem", "Trajectory", "assemble_system", "bang_control",
    "bis", "bis_inverse", "build_problem", "constant_input_propagator",
    "default_seed_grid", "enumerate_patterns", "equilibrium",
    "full_rate_onset", "hamiltonian", "integrate",
    "integrate_with_sign_event", "kalman_rank", "lean_body_mass",
    "sample_trajectory", "schnider_parameters",
    "solve_all_patterns", "solve_pattern", "solve_shooting",
    "solve_time_optimal",
]

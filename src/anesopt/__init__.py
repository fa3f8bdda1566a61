"""Patient-specific minimum-time induction planning for a four-compartment
infusion model: parameter assembly, exact linear-system propagation, and two
independent solvers (indirect shooting and bang-bang pattern enumeration)
that must agree on the optimal schedule.

The package exports the names of the README's Library example; every other
name is imported from its module (anesopt.lti, anesopt.patient, ...).
"""

# the benchmark harness's self-tests read anesopt.DomainError
from .errors import DomainError  # noqa: F401
from .patient import PatientDemographics, schnider_parameters
from .problem import build_problem, sample_trajectory
from .shooting import solve_shooting
from .strategies import solve_time_optimal

__version__ = "0.1.0"

__all__ = [
    "PatientDemographics", "schnider_parameters", "build_problem",
    "solve_time_optimal", "solve_shooting", "sample_trajectory",
]

"""Error taxonomy shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DegenerateDemographicsError(DomainError):
    """Demographics produce a non-physical body composition (e.g. LBM <= 0)."""


class ParameterRangeError(DomainError):
    """Demographics outside the model's published validity range, or a
    non-positive model rate constant."""


class ConfigError(ValueError):
    """A run configuration is missing a field or fails validation."""


class IntegrationError(RuntimeError):
    """The adaptive integrator failed (step underflow / stiffness)."""


class NoConvergenceError(RuntimeError):
    """No shooting seed converged; carries diagnostics."""

    def __init__(self, message, best_residual=None, seeds_tried=0,
                 residual_evals=0):
        super().__init__(message)
        self.best_residual = best_residual
        self.seeds_tried = seeds_tried
        self.residual_evals = residual_evals


class InfeasibleError(RuntimeError):
    """No control pattern reaches the target within the search horizon."""

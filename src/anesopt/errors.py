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
    """A propagation failed: the adaptive integrator (step underflow or
    stiffness), or the shooting route's flow-map scan (a sign left
    undecided, or a chattering extremal)."""


class NoConvergenceError(RuntimeError):
    """No shooting seed converged; carries diagnostics."""

    def __init__(self, message, best_residual=None, seeds_tried=0,
                 residual_evals=0):
        super().__init__(message)
        self.best_residual = best_residual
        self.seeds_tried = seeds_tried
        self.residual_evals = residual_evals


class InfeasibleError(RuntimeError):
    """The target is out of reach under the control bound: no control
    pattern's search finds a root, or x4 does not reach its target at full
    rate within the shooting onset's 1e4-min scan."""

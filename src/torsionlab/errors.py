"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes (see the cli.EXIT_* constants).
"""


class TorsionLabError(Exception):
    """Base class for all package errors."""


class DomainError(TorsionLabError, ValueError):
    """An input is outside the physical domain of an operation."""


class ConfigError(TorsionLabError, ValueError):
    """A scenario or file could not be validated."""


class SchemaError(ConfigError):
    """An input file does not match the expected column schema."""


class NumericalError(TorsionLabError, RuntimeError):
    """A numerical procedure failed (non-convergence, ill-conditioning)."""


class DegenerateSweepError(NumericalError):
    """A voltage sweep carries no usable quadratic signal."""


class InsufficientDataError(NumericalError):
    """Too few points, or points spanning too narrow a range, to fit."""


class InfeasibleFitError(NumericalError):
    """A fit converged to a physically impossible solution."""


class ConvergenceError(NumericalError):
    """Iterative solver failed to converge; carries the iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class InstabilityError(TorsionLabError, RuntimeError):
    """The closed feedback loop diverged for the given gains."""


class PfaValidityWarning(UserWarning):
    """Proximity-force approximation evaluated outside its comfort zone."""


class GeometryWarning(UserWarning):
    """An instrument parameter combination looks suspicious but is legal."""


class LowContrastWarning(UserWarning):
    """Interference trace has very low fringe visibility."""

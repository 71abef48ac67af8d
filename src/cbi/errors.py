"""Exception types shared across the package."""


class CbiError(Exception):
    """Base class for all package-specific errors."""


class QuadratureFailure(CbiError):
    """Adaptive quadrature could not reach the requested tolerance."""


class EmptyRegion(CbiError):
    """Sampling was requested from a region carrying zero mass."""


class InfiniteMass(CbiError):
    """Sampling was requested from a region carrying infinite mass."""


class DimensionMismatch(CbiError):
    """Structurally inconsistent dimensions in a parameter tuple."""


class StepSizeUnderflow(CbiError):
    """ODE step control drove the step size below the admissible floor."""


class InvalidConfig(CbiError, ValueError):
    """An input has the wrong shape or lies outside its range: a state of
    the wrong length, a time, grid time or cutoff, a configuration."""


class PreconditionViolated(CbiError, ValueError):
    """An operation precondition does not hold: a state or lambda entry is
    non-finite or negative, or coupled inputs are not ordered."""


class BudgetExceeded(CbiError):
    """A verification run would exceed its computational budget."""

"""Exception and warning types shared across the solver."""


class OcflowError(Exception):
    """Base class for all solver errors."""


class DimensionError(OcflowError):
    """An input, or an evaluator's output, has the wrong shape."""


class DerivativeMismatchError(OcflowError):
    """A supplied analytic derivative disagrees with finite differences."""


class ConfigurationError(OcflowError):
    """Inconsistent or invalid configuration (basis/form pairing, gains, ...);
    the CLI reports it with exit code 2."""


class DomainError(OcflowError):
    """Evaluation requested outside the valid time interval."""


class IntegrationError(OcflowError):
    """An initial-value solve failed.  ``time`` is the failure location, a float."""

    def __init__(self, message: str, time: float | None = None):
        if time is not None:
            time = float(time)
            message = f"{message} (at t = {time!r})"
        super().__init__(message)
        self.time = time


class StepBudgetError(IntegrationError):
    """The integrator exhausted its step budget."""


class DivergenceError(IntegrationError):
    """The right-hand side produced non-finite values."""


class DependentBasisError(OcflowError):
    """Basis columns are (numerically) linearly dependent."""


class RankError(OcflowError):
    """An SPD solve failed.

    Its matrix is not numerically positive-definite (a rank or full-column-rank
    assumption is violated), or its matrix or right-hand side holds a NaN or
    an infinity (for instance from a user callback).
    """


class MultiplierBoundWarning(UserWarning):
    """The terminal-constraint multiplier's norm exceeded 1e6, the bound of its
    boundedness assumption."""

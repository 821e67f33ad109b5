"""Exception and warning types shared across the solver, and the one rule that
judges a setting or a gain: every settings record, count argument and gain reads
its values through :func:`_require_number`, :func:`_require_numbers` or
:func:`_require_gain`, which refuse a bad value with a :class:`ConfigurationError`
naming the field and the value's repr.  Only modules numpy loads are imported."""

import math
import numbers

import numpy as np


class OcflowError(Exception):
    """Base class for all solver errors."""


class DimensionError(OcflowError):
    """An input, or an evaluator's output, has the wrong shape."""


class DerivativeMismatchError(OcflowError):
    """A supplied analytic derivative disagrees with finite differences."""


class ConfigurationError(OcflowError, ValueError):
    """Inconsistent or invalid configuration (basis/form pairing, gains, ...);
    a ValueError too, and the CLI reports it with exit code 2."""


def _require_number(value, name: str, *, integer: bool = False, least=None,
                    positive: bool = False):
    """``value`` as a float, a finite real (> 0 when ``positive``), or as an
    int when ``integer``, >= ``least`` if given; numpy scalars count, a bool,
    text, None or an array does not (:class:`ConfigurationError`)."""
    number = None
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)):
        try:
            number = int(value) if integer else float(value)
        except OverflowError:           # an int beyond the float range
            pass
    if (number is None or not (integer or math.isfinite(number))
            or (positive and number <= 0) or (least is not None and number < least)):
        bound = " > 0" if positive else "" if least is None else f" >= {least}"
        kind = "an integer" if integer else "a finite number"
        raise ConfigurationError(f"{name} must be {kind}{bound}, got {value!r}")
    return number


def _require_numbers(value, name: str) -> np.ndarray:
    """``value`` as a float array: an integer or float array, or nested lists
    of numbers, every entry finite; text, a bool, None or ragged nesting
    anywhere is a :class:`ConfigurationError`."""
    array = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    if array.dtype == object:           # entry by entry: numpy reads [1.0, True] as floats
        if all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in array.flat):
            try:
                array = array.astype(float)
            except OverflowError:       # an int beyond the float range
                pass
    if array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise ConfigurationError(f"{name} must be finite numbers, got {value!r}")
    return array.astype(float, copy=False)


def _require_gain(K, name: str, dim: int | None = None) -> np.ndarray:
    """``K``, read through :func:`_require_numbers`, as a float SPD matrix: a
    scalar is 1 x 1, and with ``dim`` a scalar or 1 x 1 K stands for K * I of
    size (dim, dim).  Symmetric means max|K - K^T| <= 1e-9 max|K|, which takes
    the rounding of np.linalg.inv (1.4e-11 of max|K| at condition 1e9)."""
    M = np.atleast_2d(_require_numbers(K, name))
    if dim is not None:
        M = M[0, 0] * np.eye(dim) if M.shape == (1, 1) else M
        if M.shape != (dim, dim):
            raise ConfigurationError(f"{name} has shape {M.shape}, expected ({dim}, {dim})")
    if M.shape != (len(M),) * 2:
        raise ConfigurationError(f"{name} must be square, got shape {M.shape}")
    if np.abs(M - M.T).max(initial=0.0) > 1e-9 * np.abs(M).max(initial=0.0):
        raise ConfigurationError(f"{name} must be symmetric, got {K!r}")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ConfigurationError(f"{name} must be positive-definite, got {K!r}") from None
    return M


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

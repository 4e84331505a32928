"""Exception types and the value rules shared across the package.

Everything raised on purpose derives from :class:`FocusFlError`, so callers
can catch one base type at the boundary (the CLI does exactly that).  Each
value rule returns the value to store, or raises :class:`InvalidInputError`
naming the field.
"""

import math
import numbers

import numpy as np


class FocusFlError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FocusFlError):
    """An argument violates an operation's precondition (shape, range, dtype)."""


class ConfigurationError(FocusFlError):
    """A configuration document or derived setup is unusable.

    Raised for unknown/malformed config keys, impossible partition sizes,
    out-of-range scenario parameters, and similar setup-time problems.
    """


class TrainingDivergenceError(FocusFlError):
    """Local training produced a non-finite loss or parameter vector.

    Attributes:
        step: 1-based index of the SGD step at which divergence was detected.
    """

    def __init__(self, message: str, step: int = 0):
        super().__init__(message)
        self.step = step


class DegenerateCredibilityError(FocusFlError):
    """All credibility mass vanished, so aggregation weights are undefined."""


class RoundError(FocusFlError):
    """A federation round failed partway through.

    Attributes:
        round_index: 1-based index of the round that failed.
        partial_metrics: metrics collected for completed rounds, when the
            experiment loop attaches them before re-raising; ``None`` otherwise.
    """

    def __init__(self, message: str, round_index: int, partial_metrics=None):
        super().__init__(message)
        self.round_index = round_index
        self.partial_metrics = partial_metrics

    def __reduce__(self):
        # The default rebuilds from ``args`` alone, which lack ``round_index``.
        return (type(self), (str(self), self.round_index, self.partial_metrics))


def as_int(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` of at least ``minimum``; integral floats are accepted."""
    try:
        if isinstance(value, numbers.Real) and int(value) == value >= minimum:
            return int(value)
    except (ValueError, OverflowError):  # nan, inf
        pass
    kind = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
    raise InvalidInputError(f"{name} must be {kind}, got {value!r}")


def as_real(name: str, value) -> float:
    """``value`` as a finite ``float``."""
    try:
        if isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise InvalidInputError(f"{name} must be a finite real number, got {value!r}")


def as_positive(name: str, value) -> float:
    """``value`` as a finite, positive ``float``."""
    real = as_real(name, value)
    if real <= 0:
        raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")
    return real


def frozen_f64(values, name: str, ndim: int) -> np.ndarray:
    """A read-only float64 copy of ``values``, which must be ``ndim``-D and finite."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # a string, or a ragged nesting
        raise InvalidInputError(f"{name} must hold real numbers: {exc}") from None
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr

"""Exception types shared across the package.

Everything raised on purpose derives from :class:`FocusFlError`, so callers
can catch one base type at the boundary (the CLI does exactly that).
"""


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

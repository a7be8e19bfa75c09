"""Exception hierarchy for the smaup toolkit.

Every error raised by the library derives from :class:`SmaupError`, so callers
can catch one base class. Most errors also derive from the matching builtin
(``ValueError``, ``RuntimeError``, ...) to stay friendly to generic handlers.
Each class declares the CLI's ``exit_code`` for it: 2 for a configuration or
parse failure, 3 for a numerical failure, 4 for an experiment stall.
"""

__all__ = [
    "SmaupError",
    "InvalidDimensionError",
    "AdjacencyParseError",
    "GeoJSONError",
    "ShapeMismatchError",
    "DegenerateInputError",
    "NumericalError",
    "RetryExhaustedError",
    "InvalidKError",
    "RepeatedValueError",
    "ContiguityError",
    "CorruptPartitionError",
    "InsufficientDataError",
    "UndefinedRatioError",
    "DegenerateSampleError",
    "InvalidAlphaError",
    "ExperimentStallError",
]


class SmaupError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class InvalidDimensionError(SmaupError, ValueError):
    """Lattice dimensions are zero, negative, or overflow the area count."""


class AdjacencyParseError(SmaupError, ValueError):
    """Adjacency-list text is malformed; message names the offending line."""


class GeoJSONError(SmaupError, ValueError):
    """GeoJSON input cannot be turned into a contiguity structure."""


class ShapeMismatchError(SmaupError, ValueError):
    """Vector lengths disagree with each other or with the weights object."""


class DegenerateInputError(SmaupError, ValueError):
    """Input carries no usable signal (e.g. a constant variable)."""

    exit_code = 3


class NumericalError(SmaupError, ArithmeticError):
    """A linear system or likelihood evaluation failed numerically."""

    exit_code = 3


class RetryExhaustedError(SmaupError, RuntimeError):
    """Rho-targeted permutation ran out of retries.

    Carries the closest attempt so callers can inspect or keep it.
    """

    exit_code = 3

    def __init__(self, message, best_attempt=None, best_rho=None):
        super().__init__(message)
        self.best_attempt = best_attempt
        self.best_rho = best_rho


class InvalidKError(SmaupError, ValueError):
    """Requested region count k is outside [1, n]."""


class RepeatedValueError(SmaupError, ValueError):
    """A list of experiment cells names one N, rho or k twice."""


class ContiguityError(SmaupError, ValueError):
    """The contiguity graph is disconnected, so contiguous growth cannot cover it."""


class CorruptPartitionError(SmaupError, ValueError):
    """A regionalization violates its own invariants (bad labels, empty regions)."""


class InsufficientDataError(SmaupError, ValueError):
    """Too few observations for the requested statistic."""


class UndefinedRatioError(SmaupError, ZeroDivisionError):
    """A relative-change ratio has a zero denominator."""

    exit_code = 3


class DegenerateSampleError(SmaupError, ValueError):
    """Both samples of a two-sample test carry zero spread."""

    exit_code = 3


class InvalidAlphaError(SmaupError, ValueError):
    """Significance level is not one of the tabulated levels."""


class ExperimentStallError(SmaupError, RuntimeError):
    """An acceptance-sampling loop's acceptance rate collapsed.

    Carries the observed rate over the sliding window that triggered the stall.
    """

    exit_code = 4

    def __init__(self, message, rate=None):
        super().__init__(message)
        self.rate = rate

"""Exception types shared across the toolkit.

Validation / domain problems map to CLI exit code 2, numeric failures
(non-convergence, vanishing denominators) to exit code 3.  Floors near an
integer are settled by an exact or 60-digit sign test, so none is undecidable.
"""


class RoughMaxError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(RoughMaxError):
    """Rejected parameters: exponent range, variant constraints, grammar."""


class DomainError(RoughMaxError):
    """Evaluation requested below the domain start."""


class RangeError(RoughMaxError):
    """Index or scale outside the structure it queries."""


class EmptyRangeError(RoughMaxError):
    """A summation range is empty."""


class PreconditionError(RoughMaxError):
    """A stated hypothesis of the bound does not hold for the inputs."""


class DegenerateError(RoughMaxError):
    """An operation received an input it cannot meaningfully process."""


class InsufficientDataError(RoughMaxError):
    """Not enough data points for a fit."""


class SequenceOverflowError(RoughMaxError):
    """Generated values exceed the supported integer range."""


class SignalSizeError(RoughMaxError):
    """A dense array (kernel, window, transform, convolution or accumulator)
    would exceed the hard cap ``signals.MAX_SUPPORT``."""


class SingularityError(RoughMaxError):
    """A recursion denominator came too close to zero."""


class ConvergenceError(RoughMaxError):
    """Iterative inversion failed to converge; carries the last bracket."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


NUMERIC_ERRORS = (SingularityError, ConvergenceError)

"""Exception types shared across the package."""


class AugustinLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(AugustinLabError, ValueError):
    """An argument violates a documented precondition."""


class InvalidOrder(InvalidInput):
    """A divergence/mean order outside the supported range."""


class SingularMatrix(AugustinLabError, ArithmeticError):
    """A matrix is (numerically) singular where positive definiteness is required."""


class DegenerateTrace(AugustinLabError, ArithmeticError):
    """A trace pairing collapsed to zero, so an update denominator is undefined."""


class NonFinite(AugustinLabError, ArithmeticError):
    """A computation produced non-finite values."""


class NotConverged(AugustinLabError, ArithmeticError):
    """An iteration reached its round cap with finite values but short of its tolerance."""


class Unsupported(AugustinLabError):
    """The requested configuration is outside what this implementation supports."""


class DegenerateTraceWarning(RuntimeWarning):
    """A trace pairing was clamped because rounding drove it non-positive."""

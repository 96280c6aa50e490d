"""Exception types shared across the package."""


class RadsteinError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRangeProbability(RadsteinError):
    """A success probability lies outside the open interval (0, 1)."""


class EmptyModel(RadsteinError):
    """A probability model needs at least one coordinate."""


class LengthMismatch(RadsteinError):
    """An outcome or value table does not match the model size."""


class IndexOutOfRange(RadsteinError):
    """A coordinate index lies outside 1..N."""


class EnumerationCapExceeded(RadsteinError):
    """Over 2^24 entries to enumerate: a model's 2^N outcomes, or a distance's range."""


class NonIntegerValue(RadsteinError):
    """A functional declared integer-valued takes a non-integer value."""

    def __init__(self, message, outcome_index=None, value=None):
        super().__init__(message)
        self.outcome_index = outcome_index
        self.value = value


class InvalidContractionIndices(RadsteinError):
    """Contraction parameters (r, l) violate 0 <= l <= r <= min(n, m)."""


class OrderMismatch(RadsteinError):
    """Two kernels that must share an order do not."""


class InvalidLambda(RadsteinError):
    """A Poisson mean must be a finite positive real."""


class RangeTooShort(RadsteinError):
    """A tabulated solution is too short for the requested difference."""


class MalformedField(RadsteinError):
    """A gradient-style field has inconsistent or out-of-range components."""


class OrderTooSmall(RadsteinError):
    """A fixed-order bound needs a kernel of higher order."""


class TooFewSamples(RadsteinError):
    """Monte Carlo estimation needs at least 10^4 samples."""


class TooManySamples(RadsteinError):
    """Monte Carlo estimation takes at most 10^8 samples."""


class SpecParseError(RadsteinError):
    """An experiment specification document is malformed."""

    def __init__(self, message, location=""):
        super().__init__(message)
        self.location = location

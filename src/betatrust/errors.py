"""Exception kinds raised by the trust engine.

InvalidVarianceError and DegeneratePosteriorError are deliberately
distinct so callers can tell a bad configuration (a variance no Beta
distribution can have) from mathematically degenerate evidence (a
combination whose posterior shapes would not be positive).
"""


class TrustError(Exception):
    """Base class for all errors raised by this package."""


class InvalidVarianceError(TrustError):
    """A variance is non-positive or too large for a Beta with the given mean."""


class DegeneratePosteriorError(TrustError):
    """Combining the evidence would produce non-positive Beta shapes."""


class RangeError(TrustError, ValueError):
    """A value that must lie in [0, 1] lies outside it."""


class ConfigurationError(TrustError):
    """A scenario configuration cannot produce a network."""


class NetworkDocumentError(TrustError):
    """A network document failed parsing, schema or range validation."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)

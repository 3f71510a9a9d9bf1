"""Exception kinds raised by the trust engine.

InvalidVarianceError and DegeneratePosteriorError are deliberately
distinct so callers can tell a bad configuration (a variance no Beta
distribution can have) from mathematically degenerate evidence (a
combination whose posterior shapes would not be positive).

The fusion's checks of a source and of a posterior raise those two with
a format string and the numbers it names as args, and str() formats them
when read, so a caller that only tells the kinds apart pays for no float
repr.  Their format strings are _Format instances, built once by fusion;
any other error prints as Exception does, whatever its args.
"""


class _Format(str):
    """A format string that TrustError.__str__ fills with the error's other args."""


class TrustError(Exception):
    """Base class for all errors raised by this package.

    The text of one raised with a _Format as args[0] is, as in logging,
    args[0] % args[1:]; of any other, what Exception's str() gives.
    """

    def __str__(self) -> str:
        args = self.args
        return args[0] % args[1:] if args and type(args[0]) is _Format else super().__str__()


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

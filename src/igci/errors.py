"""Exception hierarchy.

Two families matter to callers: DataError means the supplied data or file is
unusable (CLI exit code 2), NumericError means a computation degenerated
internally (CLI exit code 3).
"""

from __future__ import annotations

__all__ = [
    "IgciError",
    "DataError",
    "NumericError",
    "ConstantInputError",
    "AllTiedError",
    "NoValidSpacingsError",
    "SupportMismatchError",
    "DimensionMismatchError",
    "SingularCovarianceError",
    "SingularFitError",
    "ParseError",
    "TooFewRowsError",
    "EmptyManifestError",
    "DomainError",
    "NonPositiveTraceError",
    "SamplingStalledError",
]


class IgciError(Exception):
    """Base class for every error raised by this package."""


class DataError(IgciError):
    """The input data cannot support the requested computation."""


class NumericError(IgciError):
    """A computation failed for numeric reasons."""


class ConstantInputError(DataError):
    """A variable is constant where variation is required."""


class AllTiedError(DataError):
    """Every value in a sample is identical; no spacings exist."""


class NoValidSpacingsError(DataError):
    """All consecutive differences were skipped; nothing to average."""


class SupportMismatchError(DataError):
    """Two discrete densities are defined on different supports."""


class DimensionMismatchError(DataError):
    """Array shapes are incompatible for the requested operation."""


class SingularCovarianceError(DataError):
    """An empirical covariance matrix is singular or too ill-conditioned."""


class SingularFitError(DataError):
    """A least-squares fit produced a rank-deficient or singular map."""


class ParseError(DataError):
    """A data file contains a row that cannot be parsed."""


class TooFewRowsError(DataError):
    """Fewer usable rows than the operation's minimum."""


class EmptyManifestError(DataError):
    """A manifest contains no entries."""


class DomainError(NumericError, ValueError):
    """An argument lies outside a function's mathematical domain."""


class NonPositiveTraceError(NumericError):
    """A matrix trace that must be positive is not."""


class SamplingStalledError(NumericError):
    """Rejection sampling made no progress for too many draws."""

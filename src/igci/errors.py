"""Exception hierarchy.

Two families matter to callers: DataError means the supplied data or file is
unusable (CLI exit code 2), NumericError means a computation degenerated
internally (CLI exit code 3); the CLI reports its subclass DomainError, an argument
outside its domain, as a usage error (exit code 1). The message says which check failed.
"""

from __future__ import annotations

__all__ = ["IgciError", "DataError", "NumericError", "ConstantInputError", "DomainError"]


class IgciError(Exception):
    """Base class for every error raised by this package."""


class DataError(IgciError):
    """The input data cannot support the requested computation."""


class NumericError(IgciError):
    """A computation failed for numeric reasons."""


class ConstantInputError(DataError):
    """A variable is constant where variation is required."""


class DomainError(NumericError, ValueError):
    """An argument lies outside a function's mathematical domain."""

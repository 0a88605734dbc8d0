"""Exception types shared across the package."""

__all__ = [
    "FlatpolyError",
    "DimensionMismatch",
    "UncontrollableSystem",
    "DegreeTooLow",
    "DegreeOutOfRange",
    "NotPositiveDefinite",
    "NonFinite",
]


class FlatpolyError(Exception):
    """Base class for all errors raised by flatpoly."""


class DimensionMismatch(FlatpolyError):
    """Array shapes are inconsistent with each other or with the system."""


class UncontrollableSystem(FlatpolyError):
    """The pair (A, B) does not admit a full set of relative-degree chains."""


class DegreeTooLow(FlatpolyError):
    """Polynomial degree N is too small to fix the initial conditions."""


class DegreeOutOfRange(FlatpolyError):
    """Polynomial degree N is outside the supported range."""


class NotPositiveDefinite(FlatpolyError):
    """A matrix required to be positive definite failed its Cholesky test.

    ``pivot`` is the 1-based index of the first failing leading minor when
    known, else None.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class NonFinite(FlatpolyError):
    """A numerical integration or solve produced NaN or infinity."""

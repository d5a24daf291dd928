"""Exception hierarchy for the ietpwi package."""

from __future__ import annotations


class IetPwiError(Exception):
    """Base class for all package errors."""


class InvalidInput(IetPwiError, ValueError):
    """A permutation, length vector or option is malformed or out of range."""


class NonPositiveLength(IetPwiError):
    """A subinterval length is zero or negative."""


class OutOfDomain(IetPwiError):
    """A point lies outside the half-open interval of definition."""


class Reducible(IetPwiError):
    """The permutation fixes a proper prefix and cannot be renormalized."""


class RauzyUndefined(IetPwiError):
    """The two candidate subintervals tie in length; induction is undefined."""


class BudgetExceeded(IetPwiError):
    """An orbit or a curve would exceed its size budget."""


class IntervalOutOfRange(IetPwiError):
    """A rotation interval is not contained in the curve domain."""


class NonUnitSpeed(IetPwiError):
    """A curve does not satisfy the unit-speed invariant."""


class LevelMismatch(IetPwiError):
    """Requested renormalization level is inconsistent with the data."""


class AtomsOverlap(IetPwiError):
    """User-supplied atoms intersect each other."""


class AtomMissesCurve(IetPwiError):
    """A user-supplied atom does not contain its piece of the curve."""


class UnclassifiablePoint(IetPwiError):
    """A point could not be assigned to any atom."""


class InsufficientGap(IetPwiError):
    """The singular-value gap is too small to isolate the contracting subspace."""


class ExhaustedResamples(IetPwiError):
    """Rotation-vector sampling hit the exclusion set on every attempt."""

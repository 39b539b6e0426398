"""Exception types shared across the package."""

from __future__ import annotations


class HopfcatError(Exception):
    """Base class for all library errors."""


class ParseError(HopfcatError):
    """A group spec string could not be parsed.

    Carries the character offset of the first bad token when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnknownName(ParseError):
    """Catalog name not recognized."""


class NotAGroup(HopfcatError):
    """A Cayley table failed the group axioms."""


class BoundExceeded(HopfcatError):
    """A size bound was exceeded (group order or algebra dimension)."""


class NoIntegral(HopfcatError):
    """The requested integral does not exist or is not unique."""


class NotFactorizable(HopfcatError):
    """Operation requires a bijective Drinfeld map."""


class InconsistentCharacters(HopfcatError):
    """Supplied characters fail an exact orthogonality or idempotent check."""


class InvariantViolation(HopfcatError):
    """A constructed object failed one of its defining invariants."""


class NonIntegerMultiplicity(HopfcatError):
    """A fusion multiplicity came out non-integer or negative."""


class NotClosed(HopfcatError):
    """A candidate simple-object set is not closed under fusion or duals."""


class OracleMismatch(HopfcatError):
    """Two independent computations of the same object disagree."""


class InternalMismatch(OracleMismatch):
    """Two internal routes to the same matrix disagree."""


class PreconditionViolated(HopfcatError):
    """Input data violates a documented precondition."""


class MethodPreconditionViolated(HopfcatError):
    """A centralizer method was called outside its domain of validity."""


class NoSplittingPair(HopfcatError):
    """No abelian subgroup with multiplicity-one restriction was found."""

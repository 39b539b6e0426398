"""Exception types shared across the package, one per thing a caller
tells apart, and `fail`, through which every failed self-check raises.

The command line maps them to exit codes: InvariantViolation to 1 (a
failed check); ParseError, PreconditionViolated and
MethodPreconditionViolated to 2 (a usage error); BoundExceeded to 3.
"""

from __future__ import annotations

from typing import NoReturn


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


class NotAGroup(HopfcatError):
    """A Cayley table failed the group axioms."""


class BoundExceeded(HopfcatError):
    """A size bound was exceeded (group order or algebra dimension)."""


class InvariantViolation(HopfcatError):
    """A constructed object failed one of its defining invariants, or two
    independent computations of the same object disagree."""


class PreconditionViolated(HopfcatError):
    """Input data violates a documented precondition."""


class MethodPreconditionViolated(HopfcatError):
    """A centralizer method was called outside its domain of validity."""


def fail(owner, check: str, x: int | None = None,
         subject: str = "") -> NoReturn:
    """Raise InvariantViolation naming the owner (a QTAlgebra or a
    Group), the check and, when there is one, the subject checked and
    the basis element x of an algebra where it fails."""
    on = f" on {subject}" if subject else ""
    at = f" at {owner.labels[x]}" if x is not None else ""
    raise InvariantViolation(f"{owner.name}: {check} fails{on}{at}")

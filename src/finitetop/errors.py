"""Exception types raised across the package.

Every error carries its witness data as attributes so callers can react
programmatically instead of parsing messages.
"""

from __future__ import annotations

from collections.abc import Callable


class FinitetopError(Exception):
    """Base class for all errors raised by this package."""


class InternalError(FinitetopError):
    """A failed self-check: a defect in this package, never bad input."""


class InvalidArgument(FinitetopError, ValueError):
    """A size or parameter outside the range an operation accepts."""


# ---------------------------------------------------------------------------
# space construction


class ReflexivityViolation(FinitetopError):
    """A point is missing from its own minimal neighborhood."""

    def __init__(self, point: int):
        self.point = point
        super().__init__(self.describe(str))

    def describe(self, name: Callable[[int], str]) -> str:
        """The message with each witness point written as ``name(point)``."""
        return f"point {name(self.point)} is not a member of its own neighborhood"


class MinimalityViolation(FinitetopError):
    """nbhd[y] is not contained in nbhd[x] although y lies in nbhd[x]."""

    def __init__(self, point: int, member: int):
        self.point = point
        self.member = member
        super().__init__(self.describe(str))

    def describe(self, name: Callable[[int], str]) -> str:
        """The message with each witness point written as ``name(point)``."""
        return (
            f"point {name(self.member)} lies in the neighborhood of {name(self.point)}, "
            f"but its own neighborhood is not contained there"
        )


class NotCovered(FinitetopError):
    """A basis input leaves some point outside every set."""

    def __init__(self, point: int):
        self.point = point
        super().__init__(f"no set of the family contains point {point}")


class NoMinimalSet(FinitetopError):
    """The intersection of the sets around a point is not itself a family member."""

    def __init__(self, point: int):
        self.point = point
        super().__init__(
            f"the family has no minimal member around point {point}: "
            f"the intersection of its containing sets is not in the family"
        )


class NotATopology(FinitetopError):
    """An alleged open-set family fails a closure requirement."""

    def __init__(self, reason: str, missing_bits: int):
        self.reason = reason
        self.missing_bits = missing_bits
        super().__init__(reason)


class NotReflexive(FinitetopError):
    def __init__(self, point: int):
        self.point = point
        super().__init__(f"relation is missing the pair ({point}, {point})")


class NotTransitive(FinitetopError):
    def __init__(self, x: int, y: int, z: int):
        self.triple = (x, y, z)
        super().__init__(
            f"relation contains ({x}, {y}) and ({y}, {z}) but not ({x}, {z})"
        )


class TooManyOpenSets(FinitetopError):
    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"open-set enumeration exceeds the limit of {limit} sets")


# ---------------------------------------------------------------------------
# constructions


class SizeOverflow(FinitetopError):
    def __init__(self, size: int, bound: int):
        self.size = size
        self.bound = bound
        super().__init__(f"resulting carrier would have {size} points (bound {bound})")


class PartitionMismatch(FinitetopError):
    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"partition is over {got} points, space has {expected}")


# ---------------------------------------------------------------------------
# maps


class NotContinuous(FinitetopError):
    def __init__(self, point: int):
        self.point = point
        super().__init__(f"map is not continuous at source point {point}")


class NotOpen(FinitetopError):
    def __init__(self, point: int):
        self.point = point
        super().__init__(
            f"image of the neighborhood of point {point} is not open in the image"
        )


class SearchBudgetExceeded(FinitetopError):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"search exceeded its node budget of {budget}")


class InvalidGlueData(FinitetopError):
    """Glue input violates its structural requirements."""


class NotWellDefined(FinitetopError):
    """Two local maps disagree at a shared point, so no single map exists."""

    def __init__(self, point: int):
        self.point = point
        super().__init__(self.describe(str))

    def describe(self, name: Callable[[int], str]) -> str:
        """The message with the witness point written as ``name(point)``."""
        return f"local maps disagree at point {name(self.point)}"


class ResultNotHomeomorphism(FinitetopError):
    def __init__(self) -> None:
        super().__init__("assembled map failed the final homeomorphism verification")


# ---------------------------------------------------------------------------
# invariants


class EmptySpace(FinitetopError):
    def __init__(self) -> None:
        super().__init__("invariant is undefined on the empty space")


# ---------------------------------------------------------------------------
# census


class TooLarge(FinitetopError):
    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"exhaustive enumeration is capped at {cap} points (got {n})")


# ---------------------------------------------------------------------------
# cli / document format


class ParseError(FinitetopError):
    """Syntax error in a space or glue document (1-based line and column)."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class ValidationError(FinitetopError):
    """A parsed document names a structure that fails space validation."""

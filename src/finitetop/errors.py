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


class _PointWitness(FinitetopError):
    """An error naming points: ``fields`` are their attributes, ``template`` the message."""

    fields: tuple[str, ...] = ("point",)
    template: str

    def __init__(self, *points: int):
        self.__dict__.update(zip(self.fields, points, strict=True))
        super().__init__(self.describe(str))

    def describe(self, name: Callable[[int], str]) -> str:
        """The message with each witness point written as ``name(point)``."""
        return self.template.format_map({f: name(getattr(self, f)) for f in self.fields})


# ---------------------------------------------------------------------------
# space construction


class ReflexivityViolation(_PointWitness):
    """A point is missing from its own minimal neighborhood."""

    template = "point {point} is not a member of its own neighborhood"


class MinimalityViolation(_PointWitness):
    """nbhd[y] is not contained in nbhd[x] although y lies in nbhd[x]."""

    fields = ("point", "member")
    template = (
        "point {member} lies in the neighborhood of {point}, "
        "but its own neighborhood is not contained there"
    )


class NotCovered(_PointWitness):
    """A basis input leaves some point outside every set."""

    template = "no set of the family contains point {point}"


class NoMinimalSet(_PointWitness):
    """The intersection of the sets around a point is not itself a family member."""

    template = (
        "the family has no minimal member around point {point}: "
        "the intersection of its containing sets is not in the family"
    )


class NotATopology(FinitetopError):
    """An alleged open-set family fails a closure requirement."""

    def __init__(self, reason: str, missing_bits: int):
        self.reason = reason
        self.missing_bits = missing_bits
        super().__init__(reason)


class NotReflexive(_PointWitness):
    """The relation lacks the pair (x, x) for the witness point x."""

    template = "relation is missing the pair ({point}, {point})"


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


class NotContinuous(_PointWitness):
    """f(S(x)) is not inside S(f(x)) for the witness point x."""

    template = "map is not continuous at source point {point}"


class NotOpen(_PointWitness):
    """f(S(x)) is not open in the image f(X) for the witness point x."""

    template = "image of the neighborhood of point {point} is not open in the image"


class SearchBudgetExceeded(FinitetopError):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"search exceeded its node budget of {budget}")


class InvalidGlueData(FinitetopError):
    """Glue input violates its structural requirements."""


class NotWellDefined(_PointWitness):
    """Two local maps disagree at a shared point, so no single map exists."""

    template = "local maps disagree at point {point}"


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

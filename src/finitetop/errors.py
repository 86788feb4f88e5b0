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


class _Witness(FinitetopError):
    """An error carrying data: ``fields`` name its attributes, ``template`` the message."""

    fields: tuple[str, ...] = ()
    template: str

    def __init__(self, *values: object):
        self.__dict__.update(zip(self.fields, values, strict=True))
        super().__init__(self.template.format_map(vars(self)))


class _PointWitness(_Witness):
    """An error whose ``fields`` are witness points."""

    fields = ("point",)

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


class NotATopology(_Witness):
    """An alleged open-set family fails a closure requirement."""

    fields = ("reason", "missing_bits")
    template = "{reason}"


class NotReflexive(_PointWitness):
    """The relation lacks the pair (x, x) for the witness point x."""

    template = "relation is missing the pair ({point}, {point})"


class NotTransitive(FinitetopError):
    """The relation holds (x, y) and (y, z) but not (x, z); ``triple`` is (x, y, z)."""

    def __init__(self, x: int, y: int, z: int):
        self.triple = (x, y, z)
        super().__init__(f"relation contains ({x}, {y}) and ({y}, {z}) but not ({x}, {z})")


class TooManyOpenSets(_Witness):
    fields = ("limit",)
    template = "open-set enumeration exceeds the limit of {limit} sets"


# ---------------------------------------------------------------------------
# constructions


class SizeOverflow(_Witness):
    fields = ("size", "bound")
    template = "resulting carrier would have {size} points (bound {bound})"


class PartitionMismatch(_Witness):
    fields = ("expected", "got")
    template = "partition is over {got} points, space has {expected}"


# ---------------------------------------------------------------------------
# maps


class NotContinuous(_PointWitness):
    """f(S(x)) is not inside S(f(x)) for the witness point x."""

    template = "map is not continuous at source point {point}"


class NotOpen(_PointWitness):
    """f(S(x)) is not open in the image f(X) for the witness point x."""

    template = "image of the neighborhood of point {point} is not open in the image"


class SearchBudgetExceeded(_Witness):
    fields = ("budget",)
    template = "search exceeded its node budget of {budget}"


class InvalidGlueData(FinitetopError):
    """Glue input violates its structural requirements."""


class NotWellDefined(_PointWitness):
    """Two local maps disagree at a shared point, so no single map exists."""

    template = "local maps disagree at point {point}"


class ResultNotHomeomorphism(_Witness):
    """The glued map is well defined, but source and target differ in size."""

    template = "assembled map failed the final homeomorphism verification"


# ---------------------------------------------------------------------------
# invariants


class EmptySpace(_Witness):
    template = "invariant is undefined on the empty space"


# ---------------------------------------------------------------------------
# census


class TooLarge(_Witness):
    fields = ("n", "cap")
    template = "exhaustive enumeration is capped at {cap} points (got {n})"


# ---------------------------------------------------------------------------
# cli / document format


class ParseError(_Witness):
    """Syntax error in a space or glue document (1-based line and column)."""

    fields = ("line", "column", "message")
    template = "line {line}, column {column}: {message}"


class ValidationError(FinitetopError):
    """A parsed document names a structure that fails space validation."""

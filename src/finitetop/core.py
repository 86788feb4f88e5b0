"""Finite Alexandroff spaces stored as minimal-neighborhood arrays.

A space on ``n`` points keeps one bit-vector per point: ``masks[x]`` is
the smallest open set containing ``x``.  That family is a basis for the
whole topology, so nothing else is materialized; the full open-set
lattice is only enumerated on demand and behind an explicit limit.
Spaces are validated where they enter from outside (see :class:`Space`).

Convention: ``y in nbhd[x]`` is read as ``y <= x`` in the specialization
preorder, i.e. neighborhoods are down-sets.  Both conventions appear in
the literature; this package uses the down-set reading everywhere,
including :func:`from_preorder`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, reduce
from operator import and_

from . import _refine
from ._refine import iter_bits
from ._value import Value
from .errors import (
    InvalidArgument,
    MinimalityViolation,
    NoMinimalSet,
    NotATopology,
    NotCovered,
    NotReflexive,
    NotTransitive,
    ReflexivityViolation,
    TooManyOpenSets,
)

#: Cap on the number of open sets `open_sets` will enumerate by default.
DEFAULT_OPEN_SET_LIMIT = 1 << 20


class PointSet(Value):
    """An immutable subset of ``range(size)`` stored as a bitmask."""

    def __init__(self, size: int, bits: int = 0) -> None:
        if size < 0:
            raise InvalidArgument(f"negative carrier size {size}")
        if not 0 <= bits < (1 << size):
            raise InvalidArgument(f"bitmask 0x{bits:x} does not fit a carrier of size {size}")
        self.__dict__.update(size=size, bits=bits)

    @classmethod
    def from_points(cls, size: int, points: Iterable[int]) -> "PointSet":
        bits = 0
        for p in points:
            if not 0 <= p < size:
                raise InvalidArgument(f"point {p} outside carrier of size {size}")
            bits |= 1 << p
        return cls(size, bits)

    @classmethod
    def full(cls, size: int) -> "PointSet":
        return cls(size, (1 << size) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __contains__(self, point: int) -> bool:
        return 0 <= point < self.size and self.bits >> point & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def _check(self, other: "PointSet") -> None:
        if self.size != other.size:
            raise InvalidArgument(f"carrier sizes differ: {self.size} vs {other.size}")

    def union(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.size, self.bits | other.bits)

    def intersection(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.size, self.bits & other.bits)

    def difference(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.size, self.bits & ~other.bits)

    def issubset(self, other: "PointSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def isdisjoint(self, other: "PointSet") -> bool:
        self._check(other)
        return self.bits & other.bits == 0

    def __repr__(self) -> str:
        inner = ", ".join(str(p) for p in self)
        return f"PointSet({self.size}, {{{inner}}})"


class SubsetFamily(Value):
    """An ordered family of subsets of a common carrier.

    Duplicates are permitted on input; the constructors that consume a
    family deduplicate, since families are set-valued mathematically.
    """

    def __init__(self, carrier_size: int, sets: Iterable[PointSet]) -> None:
        sets = tuple(sets)
        if carrier_size < 0:
            raise InvalidArgument(f"negative carrier size {carrier_size}")
        for s in sets:
            if s.size != carrier_size:
                raise InvalidArgument(
                    f"family member has carrier {s.size}, expected {carrier_size}"
                )
        self.__dict__.update(carrier_size=carrier_size, sets=sets)

    @classmethod
    def of(cls, carrier_size: int, sets: Iterable[Iterable[int]]) -> "SubsetFamily":
        return cls(
            carrier_size,
            (PointSet.from_points(carrier_size, s) for s in sets),
        )

    def distinct_bits(self) -> list[int]:
        return list(dict.fromkeys(s.bits for s in self.sets))


class Space(Value):
    """A finite Alexandroff space.

    ``masks[x]`` is the minimal open neighborhood of point ``x`` as a
    bitmask; ``nbhd`` is the same array as :class:`PointSet` views.  Every
    instance satisfies ``x in nbhd[x]`` and, for each ``y in nbhd[x]``,
    ``nbhd[y] <= nbhd[x]``.  ``Space(...)`` and :func:`from_neighborhoods`
    check this and the labels; code whose output is valid by theorem
    builds through the unchecked ``Space._of``.  Instances are immutable,
    hashable, and safe to share between threads.
    """

    def __init__(
        self, n: int, masks: Sequence[int], labels: Sequence[str] | None = None
    ) -> None:
        self.__dict__.update(n=n, masks=masks, labels=labels)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields ``__init__`` stored; masks and labels become tuples.

        A method of its own so that validation can be wrapped and timed
        apart from construction (``perfbench/tracing.py`` patches it).
        """
        n = self.n
        if n < 0:
            raise InvalidArgument(f"negative point count {n}")
        masks = self.__dict__["masks"] = tuple(self.masks)
        if len(masks) != n:
            raise InvalidArgument(f"expected {n} neighborhoods, got {len(masks)}")
        full = (1 << n) - 1
        for x, m in enumerate(masks):
            if not 0 <= m <= full:
                raise InvalidArgument(f"masks[{x}] = 0x{m:x} does not fit a carrier of size {n}")
        for x in range(n):
            if not masks[x] >> x & 1:
                raise ReflexivityViolation(x)
        bad = _refine.closure_violation(masks)
        if bad is not None:
            raise MinimalityViolation(*bad)
        self.__dict__["labels"] = _checked_labels(n, self.labels)

    @classmethod
    def _of(cls, n: int, masks: tuple[int, ...], labels=None) -> "Space":
        """A space from fields known to be valid; skips validation."""
        space = object.__new__(cls)
        space.__dict__.update(n=n, masks=masks, labels=labels)
        return space

    @cached_property
    def nbhd(self) -> tuple[PointSet, ...]:
        """Neighborhoods as :class:`PointSet` views, built on first use."""
        return tuple(PointSet(self.n, m) for m in self.masks)

    @cached_property
    def distinct_masks(self) -> tuple[int, ...]:
        """The distinct neighborhood bitmasks, in first-owner order."""
        return tuple(_refine.owners(self.masks))

    def le(self, y: int, x: int) -> bool:
        """Specialization order: y <= x iff y lies in the neighborhood of x."""
        return self.masks[x] >> y & 1 == 1

    def label_of(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else f"p{x}"


def _checked_labels(n: int, labels: Sequence[str] | None) -> tuple[str, ...] | None:
    if labels is None:
        return None
    labels = tuple(labels)
    if len(labels) != n:
        raise InvalidArgument(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise InvalidArgument("labels are not unique")
    return labels


def _as_mask(size: int, obj: int | PointSet | Iterable[int]) -> int:
    if isinstance(obj, int):
        return obj
    if isinstance(obj, PointSet):
        if obj.size != size:
            raise InvalidArgument(f"carrier sizes differ: {obj.size} vs {size}")
        return obj.bits
    return PointSet.from_points(size, obj).bits


def from_neighborhoods(
    n: int,
    nbhd: Sequence[int | PointSet | Iterable[int]],
    labels: Sequence[str] | None = None,
) -> Space:
    """Build a validated space from its minimal-neighborhood array.

    Each neighborhood is a bitmask, a :class:`PointSet` or an iterable of
    points.  Raises ReflexivityViolation or MinimalityViolation with the
    offending point(s) when the array is not a legal neighborhood basis.
    """
    if len(nbhd) != n:
        raise InvalidArgument(f"expected {n} neighborhoods, got {len(nbhd)}")
    return Space(n, tuple(_as_mask(n, s) for s in nbhd), labels)


def from_basis(family: SubsetFamily) -> Space:
    """Build the space whose topology is generated by the given basis.

    For each point x the intersection m(x) of all family sets containing x
    must itself be a family member; then nbhd[x] = m(x).  One pass over
    the members' bits forms every m(x).  Fails, at the least such point,
    with NotCovered when the point lies in no set, and with NoMinimalSet
    when its m(x) is not a member.
    """
    n = family.carrier_size
    bits = family.distinct_bits()
    inter = [-1] * n  # all bits set: x lies in no member seen so far
    for b in bits:
        for x in iter_bits(b):
            inter[x] &= b
    present = set(bits)
    for x, m in enumerate(inter):
        if m < 0:
            raise NotCovered(x)
        if m not in present:
            raise NoMinimalSet(x)
    return Space._of(n, tuple(inter))


def from_open_family(family: SubsetFamily) -> Space:
    """Build a space from the complete list of its open sets.

    The family must hold the empty set and the full carrier; then
    :func:`from_basis` forms each point's least member S(x), and every
    member a and distinct S(x) must have a | S(x) in the family.  A
    failure raises NotATopology naming the missing set.

    These checks hold exactly when the family is closed under union and
    intersection.  A topology passes them: S(x) is a finite
    intersection of members, and a | S(x) a union of two.  Conversely,
    each member a is the union of the S(x) for x in a, as
    x ∈ S(x) ⊆ a; and starting from the empty set, the union checks
    reach every union of S(x)'s.  So the family is exactly the set of
    such unions: the down-sets of the preorder y ≤ x iff y ∈ S(x),
    which is closed under both operations.  The checks make D lookups
    per distinct S(x) for D members, where pairwise closure makes D².
    """
    n = family.carrier_size
    bits = family.distinct_bits()
    present = set(bits)
    full = (1 << n) - 1
    if 0 not in present:
        raise NotATopology("the empty set is missing from the family", 0)
    if full not in present:
        raise NotATopology(
            f"the full carrier {{{', '.join(map(str, range(n)))}}} is missing", full
        )
    try:
        space = from_basis(family)
    except NoMinimalSet as exc:
        x = exc.point
        missing = reduce(and_, [b for b in bits if b >> x & 1])
        raise NotATopology(
            f"intersection of the members containing point {x}, 0x{missing:x}, is missing",
            missing,
        ) from None
    for s in space.distinct_masks:
        for a in bits:
            if a | s not in present:
                raise NotATopology(f"union of members 0x{a:x} and 0x{s:x} is missing", a | s)
    return space


def from_preorder(
    n: int,
    leq: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Space:
    """Build the space of a preorder given as (a, b) pairs meaning a <= b.

    The relation must be reflexive and transitive; nbhd[x] is the down-set
    {y : y <= x}.
    """
    if n < 0:
        raise InvalidArgument(f"negative point count {n}")
    up = [0] * n
    down = [0] * n
    for a, b in leq:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidArgument(f"pair ({a}, {b}) outside carrier of size {n}")
        up[a] |= 1 << b
        down[b] |= 1 << a
    for x in range(n):
        if not up[x] >> x & 1:
            raise NotReflexive(x)
    # up[a] holds every b with a <= b, so transitivity is down-closure of up.
    bad = _refine.closure_violation(up)
    if bad is not None:
        a, b = bad
        extra = up[b] & ~up[a]
        raise NotTransitive(a, b, (extra & -extra).bit_length() - 1)
    return Space._of(n, tuple(down), _checked_labels(n, labels))


def is_open(space: Space, s: PointSet) -> bool:
    """True iff s is open, i.e. contains the neighborhood of each member."""
    if s.size != space.n:
        raise InvalidArgument(f"carrier sizes differ: {s.size} vs {space.n}")
    m = s.bits
    return all(space.masks[x] & ~m == 0 for x in iter_bits(m))


def open_sets(space: Space, limit: int = DEFAULT_OPEN_SET_LIMIT) -> list[PointSet]:
    """All open sets, ascending by bitmask value.

    The opens are exactly the unions of minimal neighborhoods, so the
    family is built by closing {empty} under union with each distinct
    neighborhood in turn.  Aborts with TooManyOpenSets as soon as the
    count would exceed ``limit``; there can be exponentially many.
    """
    result = {0}
    for m in space.distinct_masks:
        fresh = [r | m for r in result if r | m not in result]
        result.update(fresh)
        if len(result) > limit:
            raise TooManyOpenSets(limit)
    return [PointSet(space.n, b) for b in sorted(result)]


def relabel(space: Space, perm: Sequence[int]) -> Space:
    """Copy of the space with point x renamed to perm[x]; labels follow."""
    n = space.n
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise InvalidArgument("perm is not a permutation of the carrier")
    order = _refine.order_map(perm, range(n))
    labels = None
    if space.labels is not None:
        labels = tuple(space.labels[x] for x in order)
    down = [list(iter_bits(m)) for m in space.masks]
    return Space._of(n, _refine.encode(down, order), labels)


def canonical_form(space: Space) -> Space:
    """A relabeled copy that is identical for all relabelings of the input.

    Points are sorted by neighborhood size, then by the sorted multiset of
    their members' neighborhood sizes, then by an iterated fingerprint
    refinement; remaining ties are resolved by an individualization
    search for the least relabeled mask table, pruned by the
    automorphisms it finds (``_refine.canonical_order``).
    Equal canonical forms therefore imply the inputs are homeomorphic.
    Labels are dropped: the canonical form identifies pure structure.
    """
    return Space._of(space.n, _refine.canonical_order(space.masks).encoding)

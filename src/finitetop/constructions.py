"""New spaces from old: products, subspaces, quotients, and disjoint sums."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce

from ._refine import closure_violation, iter_bits, owners, pack
from ._value import Value
from .core import PointSet, Space
from .errors import InternalError, InvalidArgument, PartitionMismatch, SizeOverflow

#: Default cap on result carriers; keeps bit-vector work fast at desk scale.
DEFAULT_CARRIER_BOUND = 4096


class Partition(Value):
    """Equivalence classes over a carrier.

    ``class_of[x]`` is the class id of point x.  Class ids are dense
    (0..k-1) and numbered by least member, so partitions compare and
    serialize deterministically.
    """

    def __init__(self, carrier_size: int, class_of: tuple[int, ...], k: int) -> None:
        if len(class_of) != carrier_size:
            raise InvalidArgument("class_of length differs from carrier size")
        least: dict[int, int] = {}
        for x, c in enumerate(class_of):
            if not 0 <= c < k:
                raise InvalidArgument(f"class id {c} outside 0..{k - 1}")
            least.setdefault(c, x)
        if len(least) != k:
            raise InvalidArgument("some class id is never used")
        firsts = [least[c] for c in range(k)]
        if firsts != sorted(firsts):
            raise InvalidArgument("class ids are not ordered by least member")
        self.__dict__.update(carrier_size=carrier_size, class_of=class_of, k=k)

    @classmethod
    def from_class_of(cls, assignment: Sequence[int]) -> "Partition":
        """Normalize an arbitrary point-to-class assignment; valid by construction."""
        renum: dict[int, int] = {}
        out = []
        for c in assignment:
            if c not in renum:
                renum[c] = len(renum)
            out.append(renum[c])
        return cls._of(len(assignment), tuple(out), len(renum))

    @classmethod
    def from_blocks(
        cls, carrier_size: int, blocks: Iterable[Iterable[int]]
    ) -> "Partition":
        assignment = [-1] * carrier_size
        for i, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < carrier_size:
                    raise InvalidArgument(f"point {x} outside carrier of size {carrier_size}")
                if assignment[x] != -1:
                    raise InvalidArgument(f"point {x} appears in two blocks")
                assignment[x] = i
        if -1 in assignment:
            raise InvalidArgument(f"point {assignment.index(-1)} belongs to no block")
        return cls.from_class_of(assignment)

    @classmethod
    def _of(cls, carrier_size: int, class_of: tuple[int, ...], k: int) -> "Partition":
        """A partition from fields known to be valid; skips the checks."""
        part = object.__new__(cls)
        part.__dict__.update(carrier_size=carrier_size, class_of=class_of, k=k)
        return part

    @classmethod
    def identity(cls, carrier_size: int) -> "Partition":
        return cls(carrier_size, tuple(range(carrier_size)), carrier_size)

    def class_masks(self) -> list[int]:
        # classes are numbered by least member, i.e. in first-owner order
        return list(owners(self.class_of).values())


def product(a: Space, b: Space, bound: int = DEFAULT_CARRIER_BOUND) -> Space:
    """Product space on flat ids x * b.n + y (left factor most significant).

    The minimal neighborhood of (x, y) is the set of pairs (u, v) with u
    in nbhd_a(x) and v in nbhd_b(y).  Labels are ``la.lb``, dropped when
    two of them coincide.
    """
    n = a.n * b.n
    if n > bound:
        raise SizeOverflow(n, bound)
    # spread[x] has bit u * b.n for each u in nbhd_a(x); a mask of b fits in
    # b.n bits, so multiplying places one copy per u without carries.
    spread = [sum(1 << (u * b.n) for u in iter_bits(ma)) for ma in a.masks]
    masks = tuple(s * mb for s in spread for mb in b.masks)
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = _distinct_or_none(
            tuple(f"{la}.{lb}" for la in a.labels for lb in b.labels)
        )
    return Space._of(n, masks, labels)


def product_n(spaces: Sequence[Space], bound: int = DEFAULT_CARRIER_BOUND) -> Space:
    """Left fold of binary products; flat ids are mixed-radix, leftmost most significant."""
    if not spaces:
        raise InvalidArgument("product of an empty list of spaces")
    return reduce(lambda acc, s: product(acc, s, bound), spaces)


def subspace(x: Space, a: PointSet) -> Space:
    """Subspace on the points of ``a``, re-indexed in ascending original order.

    Neighborhoods restrict by intersection: nbhd_A(p) = A & nbhd_X(p),
    packed onto the members of ``a`` in one step.
    """
    if a.size != x.n:
        raise InvalidArgument(f"carrier sizes differ: {a.size} vs {x.n}")
    members = a.members()
    masks = tuple(pack([x.masks[p] for p in members], a.bits, x.n))
    labels = None
    if x.labels is not None:
        labels = tuple(x.labels[p] for p in members)
    return Space._of(len(members), masks, labels)


def quotient(x: Space, p: Partition) -> Space:
    """Quotient space whose points are the classes of ``p``.

    The preimage W of the neighborhood of a class c is the least set that
    holds c and is closed under taking neighborhoods and completing
    classes.  It is grown from c in rounds.  A neighborhood is down-closed,
    so the points it brings in already have theirs inside W; only the
    points added by completing a class join the frontier whose
    neighborhoods the next round takes, and a frontier point inside a
    neighborhood already taken is skipped.  Classes of one point need no
    completing, so on a T0 input each class costs one round.

    The classes are grown in ascending size of the union of their
    members' neighborhoods, which tends to finish a class before the
    classes above it, and each finished preimage is kept.  When the
    growth of W_c has to complete a finished class d, W_c holds all of
    d, being saturated, and so holds W_d, the least such set.  W_d is
    taken in whole, and its points, already closed under neighborhoods
    and classes, leave the frontier, which so only ever holds points of
    unfinished classes.  Completing d then costs one step, not one per
    class that W_d holds.

    The preimages are then re-verified together by ``_check_preimages``:
    each W_c holds its class and is open and saturated, in n steps plus
    one near-linear closure check.  Being saturated, W_c meets the
    classes it holds at their least members, which are the class ids in
    ascending order, so the neighborhood of c is W_c packed onto those
    members.  Labels join the class members' labels with ``+``, dropped
    when two of them coincide.
    """
    if p.carrier_size != x.n:
        raise PartitionMismatch(x.n, p.carrier_size)
    masks = x.masks
    class_of = p.class_of
    cmasks = p.class_masks()
    # the points whose class has other members; only they need completing
    shared = 0
    for cm in cmasks:
        if cm & (cm - 1):
            shared |= cm
    reach = [0] * p.k  # the union of each class's neighborhoods
    for m, c in zip(masks, class_of):
        reach[c] |= m
    pre = [0] * p.k  # nonzero once a class is finished
    for c in sorted(range(p.k), key=lambda c: reach[c].bit_count()):
        w = fresh = cmasks[c]
        while fresh:
            grown = w
            while fresh:
                s = masks[fresh.bit_length() - 1]
                grown |= s
                fresh &= ~s
            rest = grown & ~w & shared
            w = grown
            while rest:
                d = class_of[rest.bit_length() - 1]
                s = pre[d]
                if s:
                    fresh &= ~s
                else:
                    s = cmasks[d]
                    fresh |= s & ~w
                w |= s
                rest &= ~s
        pre[c] = w
    _check_preimages(masks, cmasks, class_of, pre)
    nb = pack(pre, sum(cm & -cm for cm in cmasks), x.n)
    return Space._of(p.k, tuple(nb), _joined_labels(x, class_of, p.k))


def _joined_labels(x: Space, class_of: Sequence[int], k: int) -> tuple[str, ...] | None:
    """Each class's members' labels joined with ``+``, or None when two coincide."""
    if x.labels is None:
        return None
    grouped: list[list[str]] = [[] for _ in range(k)]
    for pt, c in enumerate(class_of):
        grouped[c].append(x.labels[pt])
    return _distinct_or_none(tuple("+".join(g) for g in grouped))


def _check_preimages(
    masks: Sequence[int], cmasks: Sequence[int], class_of: Sequence[int], pre: Sequence[int]
) -> None:
    """Raise InternalError unless every pre[c] holds class c and is open and saturated.

    With A[y] = pre[class_of[y]], the three checks are: each class lies
    in its own preimage, S(y) lies in A[y] for every y, and A is
    down-closed.  For z in pre[c] of class d, down-closure gives
    pre[d] = A[z] inside pre[c], which holds S(z) and class d, so pre[c]
    is open and saturated.  Cost: k + n mask steps and one
    ``closure_violation``, which needs the reflexivity the first check gives.
    """
    for c, (cm, w) in enumerate(zip(cmasks, pre)):
        if cm & ~w:
            raise InternalError(f"the preimage of class {c} misses part of that class")
    a = [pre[c] for c in class_of]
    for y, (m, w) in enumerate(zip(masks, a)):
        if m & ~w:
            raise InternalError(
                f"the preimage of the class of point {y} misses part of its neighborhood"
            )
    bad = closure_violation(a)
    if bad is not None:
        raise InternalError(
            f"the preimage of the class of point {bad[0]} holds point {bad[1]} "
            f"but not all of its class's preimage"
        )


def t0_quotient(x: Space) -> tuple[Space, Partition]:
    """Collapse points with equal neighborhoods; the result is T0.

    Returns the quotient space together with the partition used, whose
    classes are numbered by least member.  One pass numbers the distinct
    neighborhoods in first-owner order, which is class order, hashing
    each mask once.  For a class of points with neighborhood S, the
    preimage of its neighborhood is S itself: S is open, it is saturated
    (y in S and S(y') = S(y) give y' in S(y), inside S), and every open
    set holding the class holds S.  So the quotient's masks are the
    distinct neighborhoods packed onto the classes' least members, with
    no growth and no re-check.  A T0 input is its own T0 quotient,
    returned with the identity partition.
    """
    ids: dict[int, int] = {}
    class_of = tuple(ids.setdefault(m, len(ids)) for m in x.masks)
    k = len(ids)
    part = Partition._of(x.n, class_of, k)
    if k == x.n:
        return Space._of(x.n, x.masks, x.labels), part
    keep = seen = 0  # the least member of each class
    for pt, c in enumerate(class_of):
        if c == seen:
            keep |= 1 << pt
            seen += 1
    nb = pack(list(ids), keep, x.n)
    if len(set(nb)) != k:
        raise InternalError("quotient classes share a neighborhood")
    return Space._of(k, tuple(nb), _joined_labels(x, class_of, k)), part


def disjoint_sum(a: Space, b: Space, bound: int = DEFAULT_CARRIER_BOUND) -> Space:
    """Disjoint union; points of ``b`` are shifted up by a.n.

    Labels are kept unless a label of ``a`` also labels a point of ``b``.
    """
    n = a.n + b.n
    if n > bound:
        raise SizeOverflow(n, bound)
    masks = a.masks + tuple(m << a.n for m in b.masks)
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = _distinct_or_none(a.labels + b.labels)
    return Space._of(n, masks, labels)


def _distinct_or_none(labels: tuple[str, ...]) -> tuple[str, ...] | None:
    """The merged labels of a construction, or None when two coincide."""
    return labels if len(set(labels)) == len(labels) else None

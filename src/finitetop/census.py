"""Exhaustive enumeration of all spaces on n labeled points.

Spaces on a fixed carrier correspond exactly to preorders, so the
enumerator walks every candidate neighborhood array (one subset
containing x per point x) and keeps the ones closed under the
minimality condition.  Grouping into homeomorphism classes takes one
canonical search per labeled space, which also gives |Aut|.  Each class is checked against the orbit-stabilizer
identity size · |Aut| = n!, which fails for both halves of a class that a
non-canonical form splits.  The cap is deliberate: the walk over
candidate arrays grows like 2^(n(n-1)).
"""

from __future__ import annotations

from itertools import product as iproduct
from math import factorial

from ._refine import canonical_order, first_violation
from ._value import Value
from .core import Space
from .errors import InternalError, InvalidArgument, TooLarge
from .invariants import index_of, min_of

#: Hard cap on exhaustive enumeration.
CENSUS_CAP = 5


def enumerate_spaces(n: int):
    """Yield every valid space on n labeled points exactly once.

    Deterministic order: neighborhood arrays ascending lexicographically
    by bitmask.  Guarded by CENSUS_CAP.
    """
    if n > CENSUS_CAP:
        raise TooLarge(n, CENSUS_CAP)
    choices = [
        [m for m in range(1 << n) if m >> x & 1] for x in range(n)
    ]
    for masks in iproduct(*choices):
        if first_violation(masks) is None:
            yield Space._of(n, masks)


class CensusClass(Value):
    def __init__(self, representative: Space, size: int, min_x: int, index_x: int) -> None:
        self.__dict__.update(
            representative=representative, size=size, min_x=min_x, index_x=index_x
        )


class CensusRow(Value):
    def __init__(
        self, n: int, total_labeled: int, class_count: int, per_class: tuple[CensusClass, ...]
    ) -> None:
        self.__dict__.update(
            n=n, total_labeled=total_labeled, class_count=class_count, per_class=per_class
        )


def census(n: int) -> CensusRow:
    """Group all spaces on n labeled points into homeomorphism classes.

    Classes are keyed by canonical form.  A class of size k whose
    representative has |Aut| automorphisms must satisfy k · |Aut| = n!,
    so a canonicalization defect raises InternalError here rather than
    skew the counts.
    """
    if n < 1:
        raise InvalidArgument("census needs at least one point")
    if n > CENSUS_CAP:
        raise TooLarge(n, CENSUS_CAP)
    # Each class keyed by its canonical table, holding [size, |Aut|].
    buckets: dict[tuple[int, ...], list[int]] = {}
    total = 0
    for space in enumerate_spaces(n):
        total += 1
        found = canonical_order(space.masks)
        bucket = buckets.get(found.encoding)
        if bucket is None:
            buckets[found.encoding] = [1, found.aut]
        else:
            bucket[0] += 1

    classes = []
    for key in sorted(buckets):
        count, aut = buckets[key]
        if count * aut != factorial(n):
            raise InternalError(
                f"class of size {count} breaks size · |Aut| = {n}!; "
                "canonicalization is broken"
            )
        rep = Space._of(n, key)
        classes.append(
            CensusClass(
                representative=rep,
                size=count,
                min_x=min_of(rep)[0],
                index_x=index_of(rep),
            )
        )
    return CensusRow(
        n=n,
        total_labeled=total,
        class_count=len(classes),
        per_class=tuple(classes),
    )

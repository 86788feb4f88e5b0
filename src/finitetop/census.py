"""Exhaustive enumeration of all spaces on n labeled points.

Spaces on a fixed carrier correspond exactly to preorders, so the
enumerator walks every candidate neighborhood array (one subset
containing x per point x) and keeps the ones closed under the
minimality condition.  Grouping into homeomorphism classes goes through
canonical forms, with a pairwise search over class representatives as an
independent cross-check.  The cap is deliberate: at six points the class
refinement is already beyond desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .core import Space, canonical_form
from .errors import InternalError, TooLarge
from .invariants import index_of, min_of
from .maps import find_homeomorphism

#: Hard cap on exhaustive enumeration.
CENSUS_CAP = 5


def enumerate_spaces(n: int):
    """Yield every valid space on n labeled points exactly once.

    Deterministic order: neighborhood arrays ascending lexicographically
    by bitmask.  Guarded by CENSUS_CAP.
    """
    if n > CENSUS_CAP:
        raise TooLarge(n, CENSUS_CAP)
    if n == 0:
        yield Space._of(0, ())
        return
    choices = [
        [m for m in range(1 << n) if m >> x & 1] for x in range(n)
    ]
    for masks in iproduct(*choices):
        ok = True
        for x in range(n):
            mx = masks[x]
            m = mx
            while m:
                low = m & -m
                if masks[low.bit_length() - 1] & ~mx:
                    ok = False
                    break
                m ^= low
            if not ok:
                break
        if ok:
            yield Space._of(n, masks)


@dataclass(frozen=True)
class CensusClass:
    representative: Space
    size: int
    min_x: int
    index_x: int


@dataclass(frozen=True)
class CensusRow:
    n: int
    total_labeled: int
    class_count: int
    per_class: tuple[CensusClass, ...]


def census(n: int) -> CensusRow:
    """Group all spaces on n labeled points into homeomorphism classes.

    Classes are keyed by canonical form; representatives are then checked
    pairwise with the homeomorphism search, so a canonicalization defect
    would surface here rather than skew the counts.
    """
    if n < 1:
        raise ValueError("census needs at least one point")
    if n > CENSUS_CAP:
        raise TooLarge(n, CENSUS_CAP)
    buckets: dict[tuple[int, ...], tuple[Space, int]] = {}
    total = 0
    for space in enumerate_spaces(n):
        total += 1
        canon = canonical_form(space)
        key = canon.masks
        if key in buckets:
            rep, count = buckets[key]
            buckets[key] = (rep, count + 1)
        else:
            buckets[key] = (canon, 1)

    reps = [rep for rep, _ in buckets.values()]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if find_homeomorphism(reps[i], reps[j]) is not None:
                raise InternalError(
                    "two canonical classes are homeomorphic; canonicalization is broken"
                )

    classes = []
    for key in sorted(buckets):
        rep, count = buckets[key]
        classes.append(
            CensusClass(
                representative=rep,
                size=count,
                min_x=min_of(rep)[0],
                index_x=index_of(rep),
            )
        )
    if sum(c.size for c in classes) != total:
        raise InternalError("class sizes do not add up to the labeled count")
    return CensusRow(
        n=n,
        total_labeled=total,
        class_count=len(classes),
        per_class=tuple(classes),
    )

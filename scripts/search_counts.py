#!/usr/bin/env python3
"""Print what one canonical search costs on fixed spaces: its counters, |Aut| and time.

For each space the script runs ``_refine.canonical_order`` k times and
prints the individualizations, the leaves, the leaf automorphisms, the
twin swaps, the class swaps, the first-path orbit skips and the
first-path depth, ``len(base)``, of the search (``-`` for a counter the
checkout's ``SearchResult`` lacks), then |Aut|
(exactly up to 10^9, in scientific notation above) and the best of k
wall-clock times in milliseconds.  The counts repeat exactly, so two
checkouts can be compared row by row.  The spaces are block spaces,
crowns and crowns blown up into classes (each point replaced by an
indiscrete class), divisibility spaces up to the given bound, a discrete
space and seeded random spaces.  Run with::

    PYTHONPATH=src python scripts/search_counts.py [max_bound] [k]

The defaults are 500 and 3.
"""

import sys
import time

from finitetop._refine import canonical_order
from finitetop.constructions import disjoint_sum
from finitetop.core import Space, from_neighborhoods
from finitetop.generators import blocks, discrete, divisor, random_space

COUNTERS = (
    "individualizations", "leaves", "leaf_automorphisms", "twin_swaps", "class_swaps",
    "orbit_skips",
)


def crown(k: int) -> Space:
    """k minimal points and k maximal ones, max i above min i and min i + 1 (mod k)."""
    nbhds = [{i} for i in range(k)] + [{k + i, i, (i + 1) % k} for i in range(k)]
    return from_neighborhoods(2 * k, nbhds)


def blown_up(base: Space, m: int) -> Space:
    """base with every point replaced by an indiscrete class of m points."""
    group = (1 << m) - 1
    masks = []
    for mask in base.masks:
        out = 0
        for y in range(base.n):
            if mask >> y & 1:
                out |= group << (y * m)
        masks += [out] * m
    return Space._of(base.n * m, tuple(masks))


def spaces(max_bound: int):
    for b, m in ((4, 2), (5, 2), (6, 2), (7, 2), (4, 3), (3, 4), (8, 8)):
        yield f"blocks({b}, {m})", blocks(b, m)
    yield "disjoint_sum(blocks(6, 3), blocks(6, 3))", disjoint_sum(blocks(6, 3), blocks(6, 3))
    yield "crown(8)", crown(8)
    for k, m in ((4, 2), (6, 2), (4, 3)):
        yield f"crown({k}) blown up by {m}", blown_up(crown(k), m)
    yield "crown(2) + crown(2) blown up by 2", blown_up(disjoint_sum(crown(2), crown(2)), 2)
    for bound in (60, 250, 500, 1000):
        if bound <= max_bound:
            yield f"divisor({bound})", divisor(bound)
    yield "discrete(64)", discrete(64)
    for seed in (1, 2, 3):
        yield f"random_space(64, {seed})", random_space(64, seed)


def main(max_bound: int, k: int) -> None:
    heads = ("indiv", "leaves", "leafaut", "twin", "class", "orbit", "depth")
    print(f"{'space':<42} " + " ".join(f"{h:>7}" for h in heads) + f" {'|Aut|':>12} {'best ms':>9}")
    for name, space in spaces(max_bound):
        best = float("inf")
        for _ in range(k):
            start = time.perf_counter()
            found = canonical_order(space.masks)
            best = min(best, time.perf_counter() - start)
        counts = " ".join(f"{getattr(found, c, '-'):>7}" for c in COUNTERS)
        depth = len(found.base) if hasattr(found, "base") else "-"
        aut = f"{found.aut}" if found.aut <= 10**9 else f"{found.aut:.6e}"
        print(f"{name:<42} {counts} {depth:>7} {aut:>12} {best * 1e3:>9.3f}", flush=True)


if __name__ == "__main__":
    max_bound = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    main(max_bound, k)

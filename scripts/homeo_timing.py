#!/usr/bin/env python3
"""Time ``find_homeomorphism`` on fixed pairs, in both directions.

Each space is paired with a relabeling of itself by a permutation drawn
from ``random.Random(7)``; the "no" pairs at the end pair a space with
a relabeling of another one of the same size: two crown pairs that
color refinement cannot separate, and two block spaces whose
neighborhood sizes differ.  For each direction the script prints the
best of k wall-clock runs in seconds and the first 16 hex digits of the
sha256 of the map, or ``none`` when there is no homeomorphism, so two
checkouts can be compared for speed and for identical answers.
Divisibility spaces run up to the given bound.  Run with::

    PYTHONPATH=src python scripts/homeo_timing.py [max_bound] [k]

The defaults are 250 and 3; ``max_bound`` 500 adds ``divisor(500)``,
whose relabeled → original direction takes several seconds.
"""

import hashlib
import random
import sys
import time

from finitetop.constructions import disjoint_sum
from finitetop.core import from_neighborhoods, relabel
from finitetop.generators import blocks, discrete, divisor
from finitetop.maps import find_homeomorphism

SEED = 7


def crown(k: int):
    """k minimal points and k maximal ones, max i above min i and min i + 1 (mod k)."""
    nbhds = [{i} for i in range(k)] + [{k + i, i, (i + 1) % k} for i in range(k)]
    return from_neighborhoods(2 * k, nbhds)


def pairs(max_bound: int):
    """(name, a, b) with b the second space before relabeling."""
    for bound in (60, 250, 500):
        if bound <= max_bound:
            yield f"divisor({bound})", divisor(bound), divisor(bound)
    yield "blocks(8, 8)", blocks(8, 8), blocks(8, 8)
    yield "discrete(64)", discrete(64), discrete(64)
    sum_of_blocks = disjoint_sum(blocks(6, 3), blocks(6, 3))
    yield "disjoint_sum(blocks(6, 3), blocks(6, 3))", sum_of_blocks, sum_of_blocks
    yield "crown(5)", crown(5), crown(5)
    yield "blocks(5, 2)", blocks(5, 2), blocks(5, 2)
    yield "crown(4) vs crown(2) + crown(2)", crown(4), disjoint_sum(crown(2), crown(2))
    yield "crown(5) vs crown(2) + crown(3)", crown(5), disjoint_sum(crown(2), crown(3))
    yield "blocks(5, 2) vs blocks(2, 5)", blocks(5, 2), blocks(2, 5)


def main(max_bound: int, k: int) -> None:
    print(f"{'space':<42} {'direction':<22} {'best s':>9}  map sha256")
    for name, space, other in pairs(max_bound):
        perm = list(range(other.n))
        random.Random(SEED).shuffle(perm)
        relabeled = relabel(other, perm)
        for direction, (a, b) in (
            ("original → relabeled", (space, relabeled)),
            ("relabeled → original", (relabeled, space)),
        ):
            best = float("inf")
            for _ in range(k):
                start = time.perf_counter()
                h = find_homeomorphism(a, b)
                best = min(best, time.perf_counter() - start)
            sha = "none" if h is None else hashlib.sha256(repr(h.f).encode()).hexdigest()[:16]
            print(f"{name:<42} {direction:<22} {best:>9.4f}  {sha}", flush=True)


if __name__ == "__main__":
    max_bound = int(sys.argv[1]) if len(sys.argv) > 1 else 250
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    main(max_bound, k)

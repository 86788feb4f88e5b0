#!/usr/bin/env python3
"""Time ``find_homeomorphism`` on fixed pairs, in both directions.

Each space is paired with a relabeling of itself by a permutation drawn
from ``random.Random(7)``; the "no" pairs near the end pair a space
with a relabeling of another one of the same size: two crown pairs that
color refinement cannot separate and two block spaces whose
neighborhood sizes differ.  Last come the Cai–Fürer–Immerman poset of
a seeded random cubic graph paired with itself and with its twisted
copy, which refinement cannot separate either.  For each direction the
script prints the best of k wall-clock runs in seconds and the first 16
hex digits of the sha256 of the map, or ``none`` when there is no
homeomorphism, so two checkouts can be compared for speed and for
identical answers.  For a found map it also prints the best of k times
of ``is_continuous`` and of the homeomorphism check
``find_homeomorphism`` ends with, in milliseconds, each with its
answer.  Check-only rows follow: the same two checks on larger spaces
and their known relabeling, with no search.  Divisibility spaces run up
to the given bound.  Run with::

    PYTHONPATH=src python scripts/homeo_timing.py [max_bound] [k]

The defaults are 250 and 3; ``max_bound`` 500 adds ``divisor(500)`` and
1000 adds ``divisor(1000)``.
"""

import hashlib
import sys

from finitetop.constructions import disjoint_sum, product
from finitetop.generators import blocks, chain, discrete, divisor, random_space
from finitetop.maps import SpaceMap, _is_structure_isomorphism, find_homeomorphism, is_continuous

from corpus import best_of, cfi, crown, random_cubic, shuffled

SEED = 7


def pairs(max_bound: int):
    """(name, a, b) with b the second space before relabeling."""
    for bound in (60, 250, 500, 1000):
        if bound <= max_bound:
            yield f"divisor({bound})", divisor(bound), divisor(bound)
    yield "blocks(8, 8)", blocks(8, 8), blocks(8, 8)
    yield "discrete(64)", discrete(64), discrete(64)
    sum_of_blocks = disjoint_sum(blocks(6, 3), blocks(6, 3))
    yield "disjoint_sum(blocks(6, 3), blocks(6, 3))", sum_of_blocks, sum_of_blocks
    yield "crown(5)", crown(5), crown(5)
    yield "blocks(5, 2)", blocks(5, 2), blocks(5, 2)
    crowns = disjoint_sum(disjoint_sum(crown(6), disjoint_sum(crown(3), crown(3))), blocks(3, 2))
    yield "crown(6)+crown(3)+crown(3)+blocks(3,2)", crowns, crowns
    yield "crown(4) vs crown(2) + crown(2)", crown(4), disjoint_sum(crown(2), crown(2))
    yield "crown(5) vs crown(2) + crown(3)", crown(5), disjoint_sum(crown(2), crown(3))
    yield "blocks(5, 2) vs blocks(2, 5)", blocks(5, 2), blocks(2, 5)
    cubic = random_cubic(16, 1)
    yield "CFI(cubic 16, seed 1)", cfi(*cubic), cfi(*cubic)
    yield "CFI(cubic 16, seed 1) vs twisted", cfi(*cubic), cfi(*cubic, twisted=True)


def checks(h: SpaceMap, k: int) -> str:
    """Best-of-k milliseconds and answers of is_continuous and the homeomorphism check."""
    tc, cont = best_of(k, lambda: is_continuous(h))
    ti, iso = best_of(k, lambda: _is_structure_isomorphism(h.source, h.target, h.f))
    return f"{tc * 1e3:>9.3f} {cont!s:<5} {ti * 1e3:>9.3f} {iso}"


def main(max_bound: int, k: int) -> None:
    print(f"{'space':<42} {'direction':<22} {'best s':>9}  {'map sha256':<16} "
          f"{'cont ms':>9} {'':<5} {'check ms':>9}")
    for name, space, other in pairs(max_bound):
        relabeled = shuffled(other, SEED)[0]
        for direction, (a, b) in (
            ("original → relabeled", (space, relabeled)),
            ("relabeled → original", (relabeled, space)),
        ):
            best, h = best_of(k, lambda: find_homeomorphism(a, b))
            if h is None:
                print(f"{name:<42} {direction:<22} {best:>9.4f}  none", flush=True)
                continue
            sha = hashlib.sha256(repr(h.f).encode()).hexdigest()[:16]
            print(f"{name:<42} {direction:<22} {best:>9.4f}  {sha:<16} {checks(h, k)}", flush=True)
    for name, space in (
        ("random_space(1024, 2)", random_space(1024, 2)),
        ("product(chain(64), chain(64))", product(chain(64), chain(64))),
    ):
        relabeled, perm = shuffled(space, SEED)
        h = SpaceMap(space, relabeled, tuple(perm))
        print(f"{name:<42} {'check only, known map':<22} {'':>9}  {'':<16} {checks(h, k)}",
              flush=True)


if __name__ == "__main__":
    max_bound = int(sys.argv[1]) if len(sys.argv) > 1 else 250
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    main(max_bound, k)

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
indiscrete class), sums of crowns that color refinement cannot tell
apart, shuffled by a seeded permutation, divisibility spaces up to the
given bound, a discrete space, seeded random spaces, the
Cai–Fürer–Immerman posets of K4, Petersen and seeded random cubic
graphs, and the incidence posets of four strongly regular graphs (the
builders are in ``corpus.py``).  Run with::

    PYTHONPATH=src python scripts/search_counts.py [max_bound] [k]

The defaults are 500 and 3.
"""

import sys

from finitetop._refine import canonical_order
from finitetop.constructions import disjoint_sum
from finitetop.generators import blocks, discrete, divisor, random_space

from corpus import (
    CUBIC, best_of, blown_up, cfi, crown, incidence_poset, random_cubic, shuffled_sum,
    strongly_regular,
)

COUNTERS = (
    "individualizations", "leaves", "leaf_automorphisms", "twin_swaps", "class_swaps",
    "orbit_skips",
)


def spaces(max_bound: int):
    for b, m in ((4, 2), (5, 2), (6, 2), (7, 2), (4, 3), (3, 4), (8, 8)):
        yield f"blocks({b}, {m})", blocks(b, m)
    yield "disjoint_sum(blocks(6, 3), blocks(6, 3))", disjoint_sum(blocks(6, 3), blocks(6, 3))
    yield "crown(8)", crown(8)
    for k, m in ((4, 2), (6, 2), (4, 3)):
        yield f"crown({k}) blown up by {m}", blown_up(crown(k), m)
    yield "crown(2) + crown(2) blown up by 2", blown_up(disjoint_sum(crown(2), crown(2)), 2)
    yield "shuffled crown(6) + 2·crown(3)", shuffled_sum(crown(6), crown(3), crown(3))
    for k in (2, 3):
        parts = (crown(6), *[crown(3)] * k, blocks(3, 2))
        yield f"shuffled crown(6) + {k}·crown(3) + blocks(3, 2)", shuffled_sum(*parts)
    yield "shuffled crown(10) + crown(4) + crown(6)", shuffled_sum(crown(10), crown(4), crown(6))
    for bound in (60, 250, 500, 1000):
        if bound <= max_bound:
            yield f"divisor({bound})", divisor(bound)
    yield "discrete(64)", discrete(64)
    for seed in (1, 2, 3):
        yield f"random_space(64, {seed})", random_space(64, seed)
    for name in ("K4", "Petersen"):
        yield f"CFI({name})", cfi(*CUBIC[name][0])
    for nv in (10, 16, 24):
        yield f"CFI(cubic {nv}, seed 1)", cfi(*random_cubic(nv, 1))
    for name, g in strongly_regular():
        yield f"incidence poset of {name}", incidence_poset(*g)


def main(max_bound: int, k: int) -> None:
    heads = ("indiv", "leaves", "leafaut", "twin", "class", "orbit", "depth")
    print(f"{'space':<46} " + " ".join(f"{h:>7}" for h in heads) + f" {'|Aut|':>12} {'best ms':>9}")
    for name, space in spaces(max_bound):
        best, found = best_of(k, lambda: canonical_order(space.masks))
        counts = " ".join(f"{getattr(found, c, '-'):>7}" for c in COUNTERS)
        depth = len(found.base) if hasattr(found, "base") else "-"
        aut = f"{found.aut}" if found.aut <= 10**9 else f"{found.aut:.6e}"
        print(f"{name:<46} {counts} {depth:>7} {aut:>12} {best * 1e3:>9.3f}", flush=True)


if __name__ == "__main__":
    max_bound = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    main(max_bound, k)

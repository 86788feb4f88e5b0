#!/usr/bin/env python3
"""Spaces and a timer shared by the timing scripts.

The builders make crowns, spaces blown up into indiscrete classes,
seeded shuffles, the incidence posets of graphs (a graph is a pair
``(vertices, edges)``) and Cai–Fürer–Immerman posets (Combinatorica
12, 1992), which color refinement cannot split.  Run as a script, it
checks the CFI builder on five named cubic graphs: |Aut| of CFI(G) must
be |Aut(G)| · 2^(m − v + 1), and the twisted copy's canonical table must
differ from the untwisted one.  It exits 1 on any mismatch::

    PYTHONPATH=src python scripts/corpus.py
"""

import random
import sys
import time
from functools import reduce
from itertools import combinations

from finitetop._refine import canonical_order
from finitetop.constructions import disjoint_sum
from finitetop.core import Space, from_neighborhoods, relabel


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


def shuffled(space: Space, seed: int) -> tuple[Space, list[int]]:
    """space relabeled by a permutation drawn from ``random.Random(seed)``, and the permutation."""
    perm = list(range(space.n))
    random.Random(seed).shuffle(perm)
    return relabel(space, perm), perm


def shuffled_sum(*parts: Space) -> Space:
    """The disjoint sum of parts, shuffled by seed 1."""
    return shuffled(reduce(disjoint_sum, parts), 1)[0]


def best_of(k: int, call):
    """The least wall-clock seconds of k calls, and the last call's answer."""
    best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return best, out


def incidence_poset(vertices: int, edges: list[tuple[int, int]]) -> Space:
    """Vertices 0.., then one point per edge lying above its two ends."""
    nbhds = [{v} for v in range(vertices)]
    nbhds += [{vertices + i, u, w} for i, (u, w) in enumerate(edges)]
    return from_neighborhoods(len(nbhds), nbhds)


def graph(vertices: int, adjacent) -> tuple[int, list[tuple[int, int]]]:
    """The graph on 0..vertices − 1 with an edge u < w wherever adjacent(u, w)."""
    return vertices, [(u, w) for u, w in combinations(range(vertices), 2) if adjacent(u, w)]


_PAIRS = list(combinations(range(5), 2))

#: name: (graph, |Aut(G)|); Heawood is the point–line incidence graph of the Fano plane.
CUBIC = {
    "K4": (graph(4, lambda u, w: True), 24),
    "K3,3": (graph(6, lambda u, w: u < 3 <= w), 72),
    "cube": (graph(8, lambda u, w: (u ^ w).bit_count() == 1), 48),
    "Petersen": (graph(10, lambda u, w: not set(_PAIRS[u]) & set(_PAIRS[w])), 120),
    "Heawood": (graph(14, lambda u, w: u < 7 <= w and (u - w) % 7 in (0, 1, 3)), 336),
}


def strongly_regular():
    """(name, graph) for Petersen, Paley(13), K4□K4 and Shrikhande."""
    squares = {x * x % 13 for x in range(1, 13)}
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    yield "Petersen", CUBIC["Petersen"][0]
    yield "Paley(13)", graph(13, lambda u, w: (w - u) % 13 in squares)
    yield "K4□K4", graph(16, lambda u, w: u // 4 == w // 4 or u % 4 == w % 4)
    yield "Shrikhande", graph(
        16, lambda u, w: ((w // 4 - u // 4) % 4, (w % 4 - u % 4) % 4) in steps
    )


def random_cubic(nv: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A cubic graph on nv points: its 3·nv stubs, in order, shuffled and paired in turn.

    One ``random.Random(seed)`` reshuffles the stubs, from their order,
    until the pairing has no loop and no repeated edge.
    """
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(nv) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i:i + 2])) for i in range(0, 3 * nv, 2)}
        if len(edges) == 3 * nv // 2 and all(u != w for u, w in edges):
            return nv, sorted(edges)


def cfi(vertices: int, edges: list[tuple[int, int]], twisted: bool = False) -> Space:
    """The incidence poset of the Cai–Fürer–Immerman graph of (vertices, edges).

    Each vertex v has two points a(v, e, 0) and a(v, e, 1) per edge e at
    it and, for each even-size set S of its edges, a point joined to
    a(v, e, [e ∈ S]) for every e.  Each edge e = (u, w) joins a(u, e, b)
    to a(w, e, b), crossed on edge 0 when twisted.  Points are numbered
    on first use.
    """
    ids = {}

    def point(key) -> int:
        return ids.setdefault(key, len(ids))

    joins = []
    for v in range(vertices):
        at = [e for e, ends in enumerate(edges) if v in ends]
        for size in range(0, len(at) + 1, 2):
            for s in combinations(at, size):
                gadget = point((v, s))
                joins += [(gadget, point((v, e, e in s))) for e in at]
    for e, (u, w) in enumerate(edges):
        for b in (False, True):
            joins.append((point((u, e, b)), point((w, e, b != (twisted and e == 0)))))
    return incidence_poset(len(ids), joins)


def main() -> int:
    failed = False
    print(f"{'CFI(G)':<10} {'points':>6} {'|Aut|':>8} {'expected':>8}  twisted table differs")
    for name, ((vertices, edges), aut_g) in CUBIC.items():
        found = canonical_order(cfi(vertices, edges).masks)
        twisted = canonical_order(cfi(vertices, edges, twisted=True).masks)
        expected = aut_g * 2 ** (len(edges) - vertices + 1)
        differs = twisted.encoding != found.encoding
        failed |= found.aut != expected or not differs
        print(f"{name:<10} {len(found.order):>6} {found.aut:>8} {expected:>8}  {differs}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Hypothesis strategies and space builders shared by the test suites."""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations

from hypothesis import strategies as st

from finitetop.constructions import disjoint_sum
from finitetop.core import PointSet, Space, from_neighborhoods, relabel
from finitetop.generators import blocks


def crown(k: int) -> Space:
    """k minimal points and k maximal ones, max i above min i and min i + 1 (mod k)."""
    return from_neighborhoods(2 * k, [{i} for i in range(k)] + [{k + i, i, (i + 1) % k} for i in range(k)])


def shuffled(space: Space, seed: int) -> Space:
    """space relabeled by a seeded random permutation."""
    perm = list(range(space.n))
    random.Random(seed).shuffle(perm)
    return relabel(space, perm)


def crown_sums():
    """(name, space) for disjoint sums of crowns that color refinement cannot tell apart.

    Their searches meet repeated leaf tables other than the first leaf's.
    """
    for name, parts in (
        ("crown(6) + 2·crown(3)", [crown(6), crown(3), crown(3)]),
        ("crown(6) + 2·crown(3) + blocks(3, 2)", [crown(6), crown(3), crown(3), blocks(3, 2)]),
        ("crown(6) + 3·crown(3) + blocks(3, 2)", [crown(6), *[crown(3)] * 3, blocks(3, 2)]),
        ("crown(10) + crown(4) + crown(6)", [crown(10), crown(4), crown(6)]),
    ):
        yield name, reduce(disjoint_sum, parts)


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
    on first use.  Color refinement cannot tell the twisted copy from
    the untwisted one.
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


@st.composite
def spaces(draw, max_classes: int = 5, max_class_size: int = 2) -> Space:
    """A space built from a random poset of classes inflated to point groups.

    Drawing the T0 skeleton and the class sizes separately covers both
    poset-like and heavily non-T0 inputs; a final shuffle decouples the
    structure from index order.
    """
    k = draw(st.integers(min_value=0, max_value=max_classes))
    above = [
        [draw(st.booleans()) for _ in range(k - i - 1)] for i in range(k)
    ]
    reach = [0] * k
    for i in reversed(range(k)):
        r = 1 << i
        for off, flag in enumerate(above[i]):
            if flag:
                r |= reach[i + 1 + off]
        reach[i] = r
    sizes = [draw(st.integers(1, max_class_size)) for _ in range(k)]
    n = sum(sizes)
    starts = []
    acc = 0
    for s in sizes:
        starts.append(acc)
        acc += s
    group = [((1 << sizes[i]) - 1) << starts[i] for i in range(k)]
    down_of_class = [0] * k
    for i in range(k):
        for j in range(k):
            if reach[j] >> i & 1:  # i is reachable upward from j, so j <= i
                down_of_class[i] |= group[j]
    masks = []
    for i in range(k):
        masks.extend([down_of_class[i]] * sizes[i])
    perm = draw(st.permutations(range(n)))
    shuffled = [0] * n
    for x in range(n):
        m = masks[x]
        t = 0
        while m:
            low = m & -m
            t |= 1 << perm[low.bit_length() - 1]
            m ^= low
        shuffled[perm[x]] = t
    return from_neighborhoods(n, [PointSet(n, m) for m in shuffled])


@st.composite
def nonempty_spaces(draw, max_classes: int = 5, max_class_size: int = 2) -> Space:
    space = draw(spaces(max_classes, max_class_size))
    if space.n == 0:
        space = draw(spaces(max_classes, max_class_size).filter(lambda s: s.n > 0))
    return space


@st.composite
def space_pairs_with_map(draw, max_classes: int = 4):
    """Two spaces and an arbitrary point function between them."""
    src = draw(spaces(max_classes))
    dst = draw(nonempty_spaces(max_classes))
    f = tuple(draw(st.integers(0, dst.n - 1)) for _ in range(src.n))
    return src, dst, f

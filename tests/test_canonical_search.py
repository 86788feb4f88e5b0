"""The canonical search where refinement alone settles nothing, and its exact cost.

The incidence poset of a graph has the vertices as minimal points and
one point above the two ends of each edge.  For a strongly regular
graph every vertex and every edge point looks alike to color
refinement, so |Aut| and the homeomorphism answers rest on the
individualization search and its pruning.  The individualization counts
at the budget edge pin how much of the tree the search walks, and the
search reports the same count in ``SearchResult.individualizations``.
"""

from itertools import combinations

import pytest

from finitetop._refine import canonical_order
from finitetop.constructions import disjoint_sum
from finitetop.core import Space, from_neighborhoods
from finitetop.errors import SearchBudgetExceeded
from finitetop.generators import blocks, discrete, divisor
from finitetop.maps import find_homeomorphism

from oracles import least_isomorphism_backtracking
from strategies import crown, shuffled


def incidence_poset(vertices: int, edges: list[tuple[int, int]]) -> Space:
    """Vertices 0.., then one point per edge lying above its two ends."""
    nbhds = [{v} for v in range(vertices)]
    nbhds += [{vertices + i, u, w} for i, (u, w) in enumerate(edges)]
    return from_neighborhoods(len(nbhds), nbhds)


def graph(vertices: int, adjacent) -> Space:
    pairs = combinations(range(vertices), 2)
    return incidence_poset(vertices, [(u, w) for u, w in pairs if adjacent(u, w)])


def petersen() -> Space:
    pairs = list(combinations(range(5), 2))
    return graph(len(pairs), lambda u, w: not set(pairs[u]) & set(pairs[w]))


def paley(q: int) -> Space:
    squares = {x * x % q for x in range(1, q)}
    return graph(q, lambda u, w: (w - u) % q in squares)


def rook_4x4() -> Space:
    """K4□K4: points of a 4 × 4 grid, adjacent when they share a row or a column."""
    return graph(16, lambda u, w: u // 4 == w // 4 or u % 4 == w % 4)


def shrikhande() -> Space:
    """Z4 × Z4, adjacent when they differ by ±(1, 0), ±(0, 1) or ±(1, 1)."""
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return graph(16, lambda u, w: ((w // 4 - u // 4) % 4, (w % 4 - u % 4) % 4) in steps)


@pytest.mark.parametrize(
    "build, aut",
    [(petersen, 120), (lambda: paley(13), 78), (rook_4x4, 1152), (shrikhande, 192)],
    ids=["petersen", "paley13", "k4xk4", "shrikhande"],
)
def test_automorphism_counts_of_strongly_regular_incidence_posets(build, aut):
    space = build()
    for seed in range(3):
        assert canonical_order(shuffled(space, seed).masks).aut == aut


def test_graphs_with_equal_parameters_are_not_homeomorphic():
    # Both are strongly regular with parameters (16, 6, 2, 2).
    a, b = rook_4x4(), shuffled(shrikhande(), 1)
    assert a.n == b.n == 64
    assert find_homeomorphism(a, b) is None


def test_least_map_on_a_petersen_incidence_poset():
    a = petersen()
    b = shuffled(a, 7)
    h = find_homeomorphism(a, b)
    assert h is not None
    assert h.f == least_isomorphism_backtracking(list(a.masks), list(b.masks), 10**6)


@pytest.mark.parametrize(
    "build, spent",
    [
        (lambda: discrete(6), 5),
        (lambda: blocks(6, 2), 6),
        (lambda: blocks(8, 8), 56),
        (lambda: crown(8), 5),
        (lambda: divisor(60), 11),
        (lambda: divisor(250), 157),
        (lambda: divisor(500), 536),
        (lambda: blocks(7, 2), 7),
        (lambda: blocks(5, 2), 5),
        (lambda: blocks(4, 3), 8),
        (lambda: blocks(3, 4), 9),
        (lambda: disjoint_sum(blocks(6, 3), blocks(6, 3)), 24),
    ],
    ids=[
        "discrete6",
        "blocks6x2",
        "blocks8x8",
        "crown8",
        "divisor60",
        "divisor250",
        "divisor500",
        "blocks7x2",
        "blocks5x2",
        "blocks4x3",
        "blocks3x4",
        "blocks6x3-twice",
    ],
)
def test_individualizations_at_the_budget_edge(build, spent):
    masks = build().masks
    assert canonical_order(masks).individualizations == spent
    canonical_order(masks, budget=spent)
    with pytest.raises(SearchBudgetExceeded):
        canonical_order(masks, budget=spent - 1)


# Counted by hand.  discrete(6): every pair of points is a twin pair, so
# the first path individualizes 0..4; each of its five cells (sizes 6..2)
# has one twin swap and skips the rest, 4 + 3 + 2 + 1 + 0, as lying in
# the orbit of its first point.  blocks(6, 2): the first path takes the
# first point of each block, and each block-mate is a twin swap; every
# cell holding two or more blocks has one class swap, onto the next
# block, and skips its other points by orbits: 9 + 7 + 5 + 3 + 1.
# crown(8), a 16-cycle on two levels: individualizing minimal point 0
# leaves mirror pairs, so one more point ends the first path; its mirror
# point gives a second equal leaf (the reflection fixing 0).  At the
# root, point 1 and one more point give a third (a reflection sending 1
# to 0).  The two reflections are transitive on the eight minimal
# points, so the root skips 2..7.  ``base`` is the first path: 0..4,
# the even points (the first of each block), and 0, 1.
@pytest.mark.parametrize(
    "build, counts",
    [
        (lambda: discrete(6), dict(leaves=1, leaf_automorphisms=0, twin_swaps=5,
                                   class_swaps=0, orbit_skips=10, base=(0, 1, 2, 3, 4))),
        (lambda: blocks(6, 2), dict(leaves=1, leaf_automorphisms=0, twin_swaps=6,
                                    class_swaps=5, orbit_skips=25,
                                    base=(0, 2, 4, 6, 8, 10))),
        (lambda: crown(8), dict(leaves=3, leaf_automorphisms=2, twin_swaps=0,
                                class_swaps=0, orbit_skips=6, base=(0, 1))),
    ],
    ids=["discrete6", "blocks6x2", "crown8"],
)
def test_search_counters(build, counts):
    found = canonical_order(build().masks)
    assert {name: getattr(found, name) for name in counts} == counts
    swaps = found.leaf_automorphisms + found.twin_swaps + found.class_swaps
    assert len(found.generators) == swaps

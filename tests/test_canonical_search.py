"""The canonical search where refinement alone settles nothing, and its exact cost.

The incidence poset of a graph has the vertices as minimal points and
one point above the two ends of each edge.  For a strongly regular
graph every vertex and every edge point looks alike to color
refinement, so |Aut| and the homeomorphism answers rest on the
individualization search and its pruning.  The same holds for the
Cai–Fürer–Immerman posets of cubic graphs, which refinement cannot tell
from their twisted copies.  The individualization counts
at the budget edge pin how much of the tree the search walks, and the
search reports the same count in ``SearchResult.individualizations``.
"""

from functools import reduce
from math import factorial

import pytest

from finitetop._refine import canonical_order
from finitetop.constructions import disjoint_sum
from finitetop.core import Space
from finitetop.errors import SearchBudgetExceeded
from finitetop.generators import blocks, discrete, divisor
from finitetop.maps import find_homeomorphism

from oracles import least_isomorphism_backtracking
from strategies import CUBIC, cfi, crown, graph, incidence_poset, shuffled


def petersen() -> Space:
    return incidence_poset(*CUBIC["Petersen"][0])


def paley(q: int) -> Space:
    squares = {x * x % q for x in range(1, q)}
    return incidence_poset(*graph(q, lambda u, w: (w - u) % q in squares))


def rook_4x4() -> Space:
    """K4□K4: points of a 4 × 4 grid, adjacent when they share a row or a column."""
    return incidence_poset(*graph(16, lambda u, w: u // 4 == w // 4 or u % 4 == w % 4))


def shrikhande() -> Space:
    """Z4 × Z4, adjacent when they differ by ±(1, 0), ±(0, 1) or ±(1, 1)."""
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return incidence_poset(
        *graph(16, lambda u, w: ((w // 4 - u // 4) % 4, (w % 4 - u % 4) % 4) in steps)
    )


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


# For these graphs |Aut(CFI(G))| = |Aut(G)| · 2^(m − v + 1), with m
# edges and v vertices: every automorphism of G lifts, and those fixing
# each gadget flip the point pairs along a cycle, one per element of
# the cycle space of G.
@pytest.mark.parametrize(
    "name, aut",
    [("K4", 192), ("K3,3", 1152), ("cube", 1536), ("Petersen", 7680), ("Heawood", 86016)],
)
def test_automorphism_counts_of_cfi_posets(name, aut):
    (vertices, edges), aut_g = CUBIC[name]
    assert aut == aut_g * 2 ** (len(edges) - vertices + 1)
    space = cfi(vertices, edges)
    for seed in range(2):
        assert canonical_order(shuffled(space, seed).masks).aut == aut


@pytest.mark.parametrize("name", ["K4", "Petersen"])
def test_cfi_posets_match_their_shuffles_and_not_their_twisted_copies(name):
    g = CUBIC[name][0]
    space = cfi(*g)
    assert find_homeomorphism(space, shuffled(space, 1)) is not None
    assert find_homeomorphism(space, shuffled(cfi(*g, twisted=True), 1)) is None


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
        (lambda: reduce(disjoint_sum, [crown(6), crown(3), crown(3)]), 96),
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
        "crown6+2crown3",
    ],
)
def test_individualizations_at_the_budget_edge(build, spent):
    masks = build().masks
    assert canonical_order(masks).individualizations == spent
    canonical_order(masks, budget=spent)
    with pytest.raises(SearchBudgetExceeded):
        canonical_order(masks, budget=spent - 1)


def test_leaves_repeating_any_earlier_table_prune_a_crown_sum():
    # Refinement does not tell crown(6) from crown(3) + crown(3), so the
    # walk explores subtrees off the first path, and their leaves repeat
    # tables met before, not only the first leaf's.  Each repeat is an
    # automorphism that ends the subtree; comparing with the first leaf
    # alone walks every automorphic copy, over 10^6 individualizations.
    parts = [crown(6), *[crown(3)] * 5, blocks(3, 2)]
    space = shuffled(reduce(disjoint_sum, parts), 1)
    found = canonical_order(space.masks, budget=5000)
    assert found.aut == 12 * 6**5 * factorial(5) * 2**3 * factorial(3)
    assert find_homeomorphism(space, shuffled(space, 2), budget=5000) is not None


# Counted by hand.  The empty space is one leaf, reached with no
# individualization.  discrete(6): every pair of points is a twin pair, so
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
        (lambda: discrete(0), dict(individualizations=0, leaves=1, leaf_automorphisms=0,
                                   twin_swaps=0, class_swaps=0, orbit_skips=0, base=())),
        (lambda: discrete(6), dict(individualizations=5, leaves=1, leaf_automorphisms=0,
                                   twin_swaps=5, class_swaps=0, orbit_skips=10,
                                   base=(0, 1, 2, 3, 4))),
        (lambda: blocks(6, 2), dict(individualizations=6, leaves=1, leaf_automorphisms=0,
                                    twin_swaps=6, class_swaps=5, orbit_skips=25,
                                    base=(0, 2, 4, 6, 8, 10))),
        (lambda: crown(8), dict(individualizations=5, leaves=3, leaf_automorphisms=2,
                                twin_swaps=0, class_swaps=0, orbit_skips=6, base=(0, 1))),
    ],
    ids=["empty", "discrete6", "blocks6x2", "crown8"],
)
def test_search_counters(build, counts):
    found = canonical_order(build().masks)
    assert {name: getattr(found, name) for name in counts} == counts
    swaps = found.leaf_automorphisms + found.twin_swaps + found.class_swaps
    assert len(found.generators) == swaps

"""The search's first path as a base: its generators alone are a strong generating set.

``canonical_order`` reports in ``SearchResult.base`` the points its
first path individualizes.  |Aut| is the product of the first-path orbit
sizes (McKay & Piperno, "Practical graph isomorphism II", 2014), so a
``Chain`` along that base built from the search's generators, with no
Schreier generator sifted, must reach |Aut|.  ``least_map`` relies on
this: when the chain along f falls short it checks that chain, then
completes the one along f with draws from a local ``random.Random(0)``.
These tests check the first claim on a seeded corpus and that the draws
repeat, leave the global random state alone and give the oracle's map.
"""

import random

import pytest

from finitetop._refine import Chain, canonical_order
from finitetop.constructions import disjoint_sum, product
from finitetop.generators import blocks, discrete, divisor, indiscrete, random_space
from finitetop.maps import find_homeomorphism

from oracles import least_isomorphism_backtracking
from strategies import crown, shuffled

STOCK = [
    blocks(4, 2), blocks(3, 3), blocks(6, 2), crown(4), crown(5), crown(8), divisor(60),
    discrete(8), disjoint_sum(crown(3), crown(3)), product(crown(2), indiscrete(2)),
    disjoint_sum(blocks(3, 2), crown(4)),
]


def corpus():
    """Shuffled stock spaces and random spaces of 8 to 64 points, sparse ones included."""
    for space in STOCK:
        for seed in range(8):
            yield shuffled(space, seed)
    for n in (8, 16, 32, 64):
        for density in (0.05, 0.1, 0.2, 0.5):
            for seed in range(20):
                yield random_space(n, seed, density)


def test_the_first_path_chain_reaches_aut():
    symmetric = 0
    for space in corpus():
        found = canonical_order(space.masks)
        chain = Chain(found.base, space.n, map(list, found.generators))
        assert chain.size == found.aut, space
        symmetric += found.aut > 1
    assert symmetric > 250  # most of the corpus has a nontrivial group


#: Shuffled crown pairs (seed, 100 + seed) whose generators fall short
#: along f, so that ``least_map`` draws.
DRAWING = [(4, 1), (4, 6), (4, 10), (5, 7), (5, 10)]


@pytest.mark.parametrize("k, seed", DRAWING)
def test_draws_repeat_and_leave_the_global_state_alone(k, seed, monkeypatch):
    a, b = shuffled(crown(k), seed), shuffled(crown(k), 100 + seed)
    seeds = []

    class Counted(random.Random):
        def __init__(self, *args):
            seeds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", Counted)
    state = random.getstate()
    first, second = find_homeomorphism(a, b), find_homeomorphism(a, b)
    assert seeds == [(0,), (0,)]
    assert random.getstate() == state
    assert first.f == second.f
    assert first.f == least_isomorphism_backtracking(list(a.masks), list(b.masks), 10**6)

"""The search's first path as a base: its generators alone are a strong generating set.

``canonical_order`` reports in ``SearchResult.base`` the points its
first path individualizes.  |Aut| is the product of the first-path orbit
sizes (McKay & Piperno, "Practical graph isomorphism II", 2014), so a
``Chain`` along that base built from the search's generators, with no
Schreier generator sifted, must reach |Aut|.  ``least_map`` relies on
this: when the chain along f falls short it checks that chain, then
changes its base by conjugation and adjacent swaps as it reads the map.
These tests check the first claim on a seeded corpus, and that the base
change repeats, gives the oracle's map and has its reading checked.
"""

import pytest

from finitetop._refine import Chain, _tree, canonical_order, order_map
from finitetop.constructions import disjoint_sum, product
from finitetop.errors import InternalError
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
#: along f, so that ``least_map`` changes the base of the first-path chain.
FALLING_SHORT = [(4, 1), (4, 6), (4, 10), (5, 7), (5, 10)]


@pytest.mark.parametrize("k, seed", FALLING_SHORT)
def test_the_base_change_repeats_and_gives_the_oracle_map(k, seed):
    a, b = shuffled(crown(k), seed), shuffled(crown(k), 100 + seed)
    ra = canonical_order(a.masks)
    phi = order_map(ra.order, canonical_order(b.masks, target=ra.encoding).order)
    gens = [order_map(phi, [phi[y] for y in g]) for g in ra.generators]
    assert Chain(phi, b.n, gens).size < ra.aut
    first, second = find_homeomorphism(a, b), find_homeomorphism(a, b)
    assert first.f == second.f
    assert first.f == least_isomorphism_backtracking(list(a.masks), list(b.masks), 10**6)


@pytest.mark.parametrize("k, seed", FALLING_SHORT)
def test_a_swap_that_drops_a_generator_is_caught(k, seed, monkeypatch):
    swap = Chain.swap

    def lossy(chain, i):
        swap(chain, i)
        b, gens, _ = chain.levels[i + 1]
        chain.levels[i + 1] = (b, gens[:-1], _tree(b, gens[:-1]))

    monkeypatch.setattr(Chain, "swap", lossy)
    a, b = shuffled(crown(k), seed), shuffled(crown(k), 100 + seed)
    with pytest.raises(InternalError, match="orbits read"):
        find_homeomorphism(a, b)

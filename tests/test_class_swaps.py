"""Class swaps: the search skips a candidate whose twin class maps onto an explored sibling's.

A class is the set of points that share a mask.  When the classes A of
a candidate p and B of an explored sibling q have equal sizes of at
least two, and swapping them (p with q, the other members paired in
ascending order) is an automorphism that moves no individualized point,
``canonical_order`` records the swap and skips p.  These tests check the
search's |Aut|, maps and generators on shuffled spaces made of such
classes against the brute-force oracles, including inputs where the
members of A and B do not sit at the same ranks, and check a pair of
equal-size classes in one cell that the swap must refuse.
"""

import random
from math import factorial

import pytest

from finitetop import _refine
from finitetop._refine import canonical_order, least_map, order_map
from finitetop.constructions import disjoint_sum
from finitetop.core import Space
from finitetop.generators import blocks, random_space
from finitetop.maps import find_homeomorphism

from oracles import all_isomorphisms_bruteforce, bits_of, least_isomorphism_backtracking
from strategies import crown, shuffled


def blown_up(base: Space, sizes: list[int]) -> Space:
    """base with point i replaced by an indiscrete class of sizes[i] points."""
    group, start = [], 0
    for size in sizes:
        group.append(((1 << size) - 1) << start)
        start += size
    masks = []
    for m, size in zip(base.masks, sizes):
        mask = 0
        for y in bits_of(m):
            mask |= group[y]
        masks += [mask] * size
    return Space(start, tuple(masks))


def is_automorphism(masks: tuple[int, ...], g: tuple[int, ...]) -> bool:
    """g permutes the points and sends S(x) onto S(g[x]) for every x."""
    return sorted(g) == list(range(len(masks))) and all(
        sum(1 << g[y] for y in bits_of(m)) == masks[g[x]] for x, m in enumerate(masks)
    )


def small_blown_up_spaces(count: int) -> list[tuple[str, Space]]:
    """Shuffled blow-ups of random T0 spaces, at most 8 points, classes of 1-3 points."""
    rng = random.Random(2024)
    out = []
    while len(out) < count:
        k = rng.randint(2, 5)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        if sum(sizes) > 8:
            continue
        seed = rng.randrange(10**6)
        space = shuffled(blown_up(random_space(k, seed, rng.random()), sizes), seed)
        out.append((f"k{k}-seed{seed}-sizes{''.join(map(str, sizes))}", space))
    return out


SMALL = small_blown_up_spaces(40)


@pytest.mark.parametrize("name, space", SMALL, ids=[s[0] for s in SMALL])
def test_aut_and_generators_equal_the_bruteforce_group(name, space):
    found = canonical_order(space.masks)
    assert found.aut == len(all_isomorphisms_bruteforce(space, space))
    assert all(is_automorphism(space.masks, g) for g in found.generators)


def test_the_small_corpus_takes_class_swaps():
    assert sum(canonical_order(space.masks).class_swaps for _, space in SMALL) > 0


@pytest.mark.parametrize("name, space", SMALL, ids=[s[0] for s in SMALL])
def test_maps_equal_the_backtracking_oracle_both_ways(name, space):
    other = shuffled(space, 99)
    for a, b in ((space, other), (other, space)):
        h = find_homeomorphism(a, b)
        assert h is not None
        assert h.f == least_isomorphism_backtracking(list(a.masks), list(b.masks), 10**6)


BLOCKS = [(b, m, seed) for m in (3, 4) for b in (2, 3, 4, 5) for seed in range(3)]


@pytest.mark.parametrize("b, m, seed", BLOCKS, ids=[f"blocks{b}x{m}-{s}" for b, m, s in BLOCKS])
def test_shuffled_block_generators_are_automorphisms(b, m, seed):
    # Every cell that holds two or more blocks on the first path swaps one
    # pair of them; the deeper cells' swaps join the rest.
    space = shuffled(blocks(b, m), seed)
    found = canonical_order(space.masks)
    assert found.class_swaps == b - 1
    assert all(is_automorphism(space.masks, g) for g in found.generators)


OFF_PATH = [(b, m, seed) for b, m in ((2, 2), (3, 2), (2, 3)) for seed in range(2)]


@pytest.mark.parametrize(
    "b, m, seed", OFF_PATH, ids=[f"crowns+blocks{b}x{m}-{s}" for b, m, s in OFF_PATH]
)
def test_class_swaps_below_the_first_path(b, m, seed):
    # Refinement does not tell crown(6) from crown(3) + crown(3), so the
    # root cell mixes minimal points of two orbits and the walk explores
    # whole subtrees off the first path.  The block classes are swapped in
    # those subtrees too, where a candidate need not be the least point of
    # its class.  |Aut| is 12 for crown(6), 6 · 6 · 2 for the two crown(3),
    # and m!^b · b! for the blocks.
    base = disjoint_sum(disjoint_sum(crown(6), disjoint_sum(crown(3), crown(3))), blocks(b, m))
    space, other = shuffled(base, seed), shuffled(base, 40 + seed)
    found = canonical_order(space.masks)
    assert found.class_swaps > b - 1
    assert found.aut == 12 * 72 * factorial(m) ** b * factorial(b)
    assert all(is_automorphism(space.masks, g) for g in found.generators)
    assert found.encoding == canonical_order(other.masks).encoding
    assert find_homeomorphism(space, other) is not None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_least_map_gets_each_generator_once(seed, monkeypatch):
    # Off the first path the search records a swap again at every node
    # where it applies, so its generator list repeats itself.
    # The least map is unique, so one copy of each gives the map that the
    # whole list gives.
    base = disjoint_sum(disjoint_sum(crown(6), disjoint_sum(crown(3), crown(3))), blocks(3, 2))
    a, b = shuffled(base, seed), shuffled(base, 40 + seed)
    ra = canonical_order(a.masks)
    rb = canonical_order(b.masks)
    assert len(ra.generators) > len(set(ra.generators))
    phi = order_map(ra.order, rb.order)
    every_copy = [order_map(phi, [phi[y] for y in g]) for g in ra.generators]
    received = []

    def recording(gens, f, order, base):
        received.append([tuple(g) for g in gens])
        return least_map(gens, f, order, base)

    monkeypatch.setattr(_refine, "least_map", recording)
    h = find_homeomorphism(a, b)
    assert len(received) == 1
    assert sorted(received[0]) == sorted(set(map(tuple, every_copy)))
    assert list(h.f) == least_map(every_copy, phi, ra.aut, [phi[y] for y in ra.base])


def test_equal_classes_with_different_points_above_are_not_swapped():
    # Blown up by two, crown(4)'s minimal classes share one cell and have
    # equal sizes and disjoint masks, but different maximal classes above
    # them, so no class swap applies.  crown(4) has |Aut| = 8 and
    # crown(2) + crown(2) has 4 · 4 · 2; each class adds a factor 2! = 2.
    ring = shuffled(blown_up(crown(4), [2] * 8), 5)
    pair = shuffled(blown_up(disjoint_sum(crown(2), crown(2)), [2] * 8), 6)
    found = canonical_order(ring.masks)
    assert found.class_swaps == 0
    assert found.aut == 8 * 2**8
    assert canonical_order(pair.masks).aut == 32 * 2**8
    assert find_homeomorphism(ring, pair) is None
    assert find_homeomorphism(pair, ring) is None
    assert all(is_automorphism(ring.masks, g) for g in found.generators)

"""Least homeomorphisms pinned byte for byte past the backtracking oracle's reach.

``tests/test_maps.py`` checks ``find_homeomorphism`` against the
backtracking oracle on spaces of up to 64 points.  This digest hashes
the maps on larger or more symmetric pairs, each space against a seeded
relabeling of itself in both directions: a divisibility space of 250
points, whose Aut moves 102 of them, and block, discrete and summed
block spaces, whose Aut moves every point.  A change to the stabilizer
chain or to how the least map is read off it that picks another map
shows here.  Two more relabelings of the divisibility space are pinned
one direction at a time, so that a failure names the direction, and so
are relabeled → original ``divisor(500)``, where the chain along f
falls short and the base change runs, and the maps between two
shuffles of each sum of crowns in ``strategies.crown_sums``.
"""

import hashlib

import pytest

from finitetop.constructions import disjoint_sum
from finitetop.generators import blocks, discrete, divisor
from finitetop.maps import find_homeomorphism

from strategies import crown_sums, shuffled

#: sha256 of the maps below, recorded before the chain was built on Aut's support.
MAPS_SHA256 = "11842cdedf329c394d5840251ac81e7b0234bf5bcd975bdedbd8ac132d07abcf"


def pairs():
    spaces = [
        ("divisor(250)", divisor(250)),
        ("blocks(8, 8)", blocks(8, 8)),
        ("discrete(64)", discrete(64)),
        ("disjoint_sum(blocks(6, 3), blocks(6, 3))", disjoint_sum(blocks(6, 3), blocks(6, 3))),
    ]
    for name, space in spaces:
        relabeled = shuffled(space, 7)
        yield name, space, relabeled
        yield name + " reversed", relabeled, space


def test_least_homeomorphisms_are_byte_identical():
    h = hashlib.sha256()
    for name, a, b in pairs():
        h.update(repr((name, find_homeomorphism(a, b).f)).encode())
    assert h.hexdigest() == MAPS_SHA256


#: sha256 of repr(f) per (seed, direction), recorded before random draws completed the chain.
DIVISOR_SHA256 = {
    (1, "original → relabeled"): "bb76efd8e9e47e820b6912a00a3aaf5c02d9ccf7e93e244a2e53c02154d51845",
    (1, "relabeled → original"): "0a73cf32860acdee1fb6fd90970ddd012be25289e6f027a130c3b3cc2987c509",
    (2, "original → relabeled"): "80806739944ad29969bd511ae25092fd8794d30b05fc3b475d8dcc428261899e",
    (2, "relabeled → original"): "d7dbdf0075c565d8871a74a11debbd3609dd2a4472a7ed5d5e439f731916b3c6",
}


@pytest.mark.parametrize("seed, direction", list(DIVISOR_SHA256))
def test_relabeled_divisor_maps_are_byte_identical(seed, direction):
    space = divisor(250)
    relabeled = shuffled(space, seed)
    a, b = (space, relabeled) if direction == "original → relabeled" else (relabeled, space)
    f = find_homeomorphism(a, b).f
    assert hashlib.sha256(repr(f).encode()).hexdigest() == DIVISOR_SHA256[seed, direction]


#: sha256 of repr(f) for relabeled → original divisor(500), shuffle seed 7, recorded while
#: random draws still completed the chain along f, which falls short on this pair.
DIVISOR_500_SHA256 = "533e5ce0e7215457d0ce8740566657676edfacb751b82b691f37aa58eda025d4"


def test_relabeled_divisor_500_map_is_byte_identical():
    space = divisor(500)
    f = find_homeomorphism(shuffled(space, 7), space).f
    assert hashlib.sha256(repr(f).encode()).hexdigest() == DIVISOR_500_SHA256


#: sha256 of the crown-sum maps below, recorded before any repeated leaf table gave an automorphism.
CROWN_SUM_MAPS_SHA256 = "2416ff90ab6ee143b501667238bcf9205ef035957bbefb1528e6d108a67a6d13"


def test_crown_sum_maps_are_byte_identical():
    h = hashlib.sha256()
    for name, space in crown_sums():
        a, b = shuffled(space, 1), shuffled(space, 2)
        for direction, (x, y) in (("1 → 2", (a, b)), ("2 → 1", (b, a))):
            h.update(repr((name, direction, find_homeomorphism(x, y).f)).encode())
    assert h.hexdigest() == CROWN_SUM_MAPS_SHA256

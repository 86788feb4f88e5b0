"""Least homeomorphisms pinned byte for byte past the backtracking oracle's reach.

``tests/test_maps.py`` checks ``find_homeomorphism`` against the
backtracking oracle on spaces of up to 64 points.  This digest hashes
the maps on larger or more symmetric pairs, each space against a seeded
relabeling of itself in both directions: a divisibility space of 250
points, whose Aut moves 102 of them, and block, discrete and summed
block spaces, whose Aut moves every point.  A change to the stabilizer
chain or to how the least map is read off it that picks another map
shows here.
"""

import hashlib

from finitetop.constructions import disjoint_sum
from finitetop.generators import blocks, discrete, divisor
from finitetop.maps import find_homeomorphism

from strategies import shuffled

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

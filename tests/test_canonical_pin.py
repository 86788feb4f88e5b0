"""Canonical searches pinned byte for byte on a fixed corpus.

The census pin covers spaces of at most five points.  This one hashes
the whole ``canonical_order`` result (order, generators, |Aut| and the
canonical table) of random spaces up to 64 points, block spaces,
divisibility spaces up to 250 points and crowns, so a change to the
refinement or the search that renumbers colors, reorders generators or
picks another leaf shows here even when it still finds a valid form.
A second digest covers larger searches: divisibility spaces of 500 and
1000 points, whose first paths run dozens of levels deep, and the
block spaces ``blocks(7, 2)`` and ``blocks(8, 8)``.
"""

import hashlib

from finitetop._refine import canonical_order
from finitetop.generators import blocks, divisor, random_space

from strategies import crown

#: sha256 of the corpus below, recorded before the cell-local refinement.
CORPUS_SHA256 = "7fae4c5a7241e96945d3fb47dd1b69fcde88d41aec9a1c0c620c6942f1614f59"

#: sha256 of the larger searches below, recorded before searches refined from their parent's cells.
LARGE_SHA256 = "e909e500cd7a6199b54558d0f7d167f6b7c85e3ee6bc09504712789e57710868"


def corpus():
    for n in range(65):
        for seed in range(6):
            yield f"random_space({n}, {seed})", random_space(n, seed)
    for b in range(1, 7):
        for m in range(1, 4):
            yield f"blocks({b}, {m})", blocks(b, m)
    for bound in (60, 125, 250):
        yield f"divisor({bound})", divisor(bound)
    for k in range(2, 9):
        yield f"crown({k})", crown(k)


def large():
    for bound in (500, 1000):
        yield f"divisor({bound})", divisor(bound)
    yield "blocks(7, 2)", blocks(7, 2)
    yield "blocks(8, 8)", blocks(8, 8)


def digest(spaces) -> str:
    h = hashlib.sha256()
    for name, space in spaces:
        r = canonical_order(space.masks)
        h.update(repr((name, r.order, r.generators, r.aut, r.encoding)).encode())
    return h.hexdigest()


def test_canonical_searches_are_byte_identical_on_the_pinned_corpus():
    assert digest(corpus()) == CORPUS_SHA256


def test_larger_canonical_searches_are_byte_identical():
    assert digest(large()) == LARGE_SHA256

"""Canonical searches pinned byte for byte on a fixed corpus.

The census pin covers spaces of at most five points.  This one hashes
the whole ``canonical_order`` result (order, generators, |Aut| and the
canonical table) of random spaces up to 64 points, block spaces,
divisibility spaces up to 250 points and crowns, so a change to the
refinement or the search that renumbers colors, reorders generators or
picks another leaf shows here even when it still finds a valid form.
A second digest covers larger searches: divisibility spaces of 500 and
1000 points, whose first paths run dozens of levels deep, and the
block spaces ``blocks(7, 2)`` and ``blocks(8, 8)``.  A third digest
covers shuffled sums of crowns, whose searches meet a leaf table that
repeats an earlier leaf other than the first; it leaves out the
generators, which depend on which repeated leaves the search meets.
A fourth digest covers Cai–Fürer–Immerman posets, which color
refinement cannot split, with the first path ``base`` and without the
generators, so that a change to which subtrees the search prunes
shows only if it changes the result.  A fifth digest covers every
search counter and ``base`` over all four corpora, so a change that
keeps the result but walks the tree differently, or miscounts the walk,
shows there.
"""

import hashlib
from itertools import chain
from operator import attrgetter

from finitetop._refine import canonical_order
from finitetop.generators import blocks, divisor, random_space

from strategies import CUBIC, cfi, crown, crown_sums, random_cubic, shuffled

#: sha256 of the corpus below, recorded before the cell-local refinement.
CORPUS_SHA256 = "7fae4c5a7241e96945d3fb47dd1b69fcde88d41aec9a1c0c620c6942f1614f59"

#: sha256 of the larger searches below, recorded before searches refined from their parent's cells.
LARGE_SHA256 = "e909e500cd7a6199b54558d0f7d167f6b7c85e3ee6bc09504712789e57710868"

#: sha256 of the crown sums below, recorded before any repeated leaf table gave an automorphism.
CROWN_SUMS_SHA256 = "dfed3848659a38fe754a2dfd0bf002278c0a41dd8603cce55a14ac95db2b02dd"

#: sha256 of the CFI posets below, recorded before automorphism pruning at every node.
CFI_SHA256 = "024b356f0d590a6c8eca51f5b5c6734b50cc54aadb63906b6368f55165dae059"

#: sha256 of the counters and base over all four corpora, recorded before named search state.
COUNTERS_SHA256 = "df01e0a845313ee558f1d83e92719fac52e2c5715c5af1f5c3a0b371bd57cba1"


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


def shuffled_crown_sums():
    for name, space in crown_sums():
        for seed in (1, 2):
            yield f"{name}, shuffled by {seed}", shuffled(space, seed)


def cfi_posets():
    for name, g in (
        ("K4", CUBIC["K4"][0]),
        ("Petersen", CUBIC["Petersen"][0]),
        ("cubic 10, seed 1", random_cubic(10, 1)),
    ):
        space = cfi(*g)
        yield f"CFI({name})", space
        for seed in (1, 2):
            yield f"CFI({name}), shuffled by {seed}", shuffled(space, seed)


def digest(spaces, fields=attrgetter("order", "generators", "aut", "encoding")) -> str:
    h = hashlib.sha256()
    for name, space in spaces:
        h.update(repr((name, *fields(canonical_order(space.masks)))).encode())
    return h.hexdigest()


def test_canonical_searches_are_byte_identical_on_the_pinned_corpus():
    assert digest(corpus()) == CORPUS_SHA256


def test_larger_canonical_searches_are_byte_identical():
    assert digest(large()) == LARGE_SHA256


def test_crown_sum_searches_keep_order_aut_and_table():
    fields = attrgetter("order", "aut", "encoding")
    assert digest(shuffled_crown_sums(), fields) == CROWN_SUMS_SHA256


def test_cfi_searches_keep_order_aut_table_and_base():
    fields = attrgetter("order", "aut", "encoding", "base")
    assert digest(cfi_posets(), fields) == CFI_SHA256


def test_search_counters_are_pinned_on_every_corpus():
    fields = attrgetter(
        "base", "individualizations", "leaves", "leaf_automorphisms", "twin_swaps",
        "class_swaps", "orbit_skips",
    )
    spaces = chain(corpus(), large(), shuffled_crown_sums(), cfi_posets())
    assert digest(spaces, fields) == COUNTERS_SHA256

"""The matching search: b's tree walked only until a leaf reaches a's canonical table.

``find_homeomorphism(a, b)`` runs one full canonical search on a and
then ``canonical_order(b.masks, target=...)``, which stops at the first
leaf whose table is at most a's.  These tests check its maps against
the backtracking oracle, both of its "no" exits, that it never walks
more of b's tree than b's own full search, and that spaces with unequal
neighborhood sizes are answered before any search.
"""

import pytest

import finitetop._refine as refine

from finitetop._refine import canonical_order
from finitetop.constructions import disjoint_sum
from finitetop.generators import blocks, chain, divisor, random_space
from finitetop.maps import find_homeomorphism

from oracles import least_isomorphism_backtracking
from strategies import crown, shuffled

#: The benchmark's non-homeomorphic pairs of equal point counts: the
#: crowns are not separated by color refinement, and the block spaces
#: only by their neighborhood sizes.
NO_PAIRS = [
    ("crown4-vs-2crown2", crown(4), disjoint_sum(crown(2), crown(2))),
    ("crown5-vs-crown2+3", crown(5), disjoint_sum(crown(2), crown(3))),
    ("blocks5x2-vs-2x5", blocks(5, 2), blocks(2, 5)),
]

YES_SPACES = [
    ("crown4", crown(4)),
    ("crown5", crown(5)),
    ("crown6", crown(6)),
    ("blocks5x2", blocks(5, 2)),
    ("blocks3x4", blocks(3, 4)),
    ("divisor12", divisor(12)),
    ("chain10", chain(10)),
    ("sum-crown3-crown3", disjoint_sum(crown(3), crown(3))),
] + [(f"random{n}-{s}", random_space(n, s)) for n in (6, 9, 12) for s in (1, 2, 3)]


def shuffled_pairs():
    for name, space in YES_SPACES:
        for seed in range(2):
            yield f"{name}-{seed}", shuffled(space, seed), shuffled(space, 50 + seed)
    for name, a, b in NO_PAIRS:
        for seed in range(2):
            yield f"{name}-{seed}", shuffled(a, seed), shuffled(b, 50 + seed)
            yield f"{name}-{seed}-reversed", shuffled(b, seed), shuffled(a, 50 + seed)


PAIRS = list(shuffled_pairs())


@pytest.mark.parametrize("name, a, b", PAIRS, ids=[p[0] for p in PAIRS])
def test_maps_equal_the_backtracking_oracle(name, a, b):
    want = least_isomorphism_backtracking(list(a.masks), list(b.masks), 10**6)
    h = find_homeomorphism(a, b)
    assert (None if h is None else h.f) == want
    assert (want is None) == name.startswith(tuple(p[0] for p in NO_PAIRS))


@pytest.mark.parametrize("name, a, b", PAIRS, ids=[p[0] for p in PAIRS])
def test_walk_is_no_longer_than_the_full_search(name, a, b):
    target = canonical_order(a.masks).encoding
    walk = canonical_order(b.masks, target=target)
    assert walk.individualizations <= canonical_order(b.masks).individualizations


def test_a_leaf_below_the_target_answers_no():
    a, b = shuffled(crown(5), 0), shuffled(disjoint_sum(crown(2), crown(3)), 10)
    target = canonical_order(a.masks).encoding
    walk = canonical_order(b.masks, target=target)
    full = canonical_order(b.masks)
    assert walk.encoding < target
    assert walk.individualizations < full.individualizations
    assert find_homeomorphism(a, b) is None


def test_an_exhausted_walk_answers_no():
    a, b = shuffled(disjoint_sum(crown(2), crown(2)), 0), shuffled(crown(4), 10)
    target = canonical_order(a.masks).encoding
    walk = canonical_order(b.masks, target=target)
    assert walk.encoding > target
    assert walk.individualizations == canonical_order(b.masks).individualizations
    assert find_homeomorphism(a, b) is None


def test_unequal_neighborhood_sizes_answer_no_without_a_search(monkeypatch):
    a, b = shuffled(blocks(5, 2), 0), shuffled(blocks(2, 5), 10)
    calls = []
    monkeypatch.setattr(refine, "canonical_order", lambda *args, **kwargs: calls.append(1))
    assert find_homeomorphism(a, b) is None and find_homeomorphism(b, a) is None
    assert calls == []


def test_a_match_relabels_b_onto_the_target():
    a, b = shuffled(crown(5), 3), shuffled(crown(5), 4)
    ra = canonical_order(a.masks)
    walk = canonical_order(b.masks, target=ra.encoding)
    assert walk.encoding == ra.encoding
    assert tuple(sorted(walk.order)) == tuple(range(b.n))

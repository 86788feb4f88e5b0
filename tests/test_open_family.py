"""``from_open_family`` and ``from_basis`` against their per-pair and per-point oracles.

``from_open_family`` checks a family through ``from_basis`` and one
union pass; ``open_family_missing_pairwise`` checks it by the union and
intersection of every pair of members.  The two must accept exactly the
same families, on a seeded corpus of open-set families with members
dropped or added.  A rejection's ``missing_bits`` must be a set the
family lacks that closure would need: the empty set, the full carrier,
an intersection of members, or the union of two members.
``from_basis`` must give the per-point oracle's masks, or its error at
its point.
"""

import random

from finitetop.constructions import product
from finitetop.core import PointSet, SubsetFamily, from_basis, from_open_family, open_sets
from finitetop.errors import NoMinimalSet, NotATopology, NotCovered
from finitetop.generators import chain, indiscrete, random_space

from oracles import basis_by_points, open_family_missing_pairwise

SEED = 23


def family_of(n: int, bits: list[int]) -> SubsetFamily:
    return SubsetFamily(n, tuple(PointSet(n, b) for b in bits))


def random_open_family(rng: random.Random) -> tuple[int, list[int]]:
    """The open sets of a random space on at most 6 points, some dropped or some added."""
    k = rng.randint(0, 6)
    space = random_space(k, rng.randrange(10**6), rng.random())
    if 1 <= k <= 3 and rng.random() < 0.3:
        space = product(space, indiscrete(2))  # classes of two points, not T0
    n = space.n
    bits = [p.bits for p in open_sets(space)]
    rng.shuffle(bits)
    kind = rng.randrange(4)
    if kind in (1, 3):
        for _ in range(rng.randint(1, 2)):
            if bits:
                bits.pop(rng.randrange(len(bits)))
    if kind in (2, 3):
        for _ in range(rng.randint(1, 2)):
            bits.insert(rng.randint(0, len(bits)), rng.randrange(1 << n))
    return n, bits


def random_basis(rng: random.Random) -> tuple[int, list[int]]:
    """Random subsets of at most 6 points, or a space's neighborhoods with extra subsets."""
    n = rng.randint(0, 6)
    extra = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.5:
        return n, extra
    masks = list(random_space(n, rng.randrange(10**6), rng.random()).masks)
    return n, masks + extra


def witness_kind(missing: int, n: int, bits: list[int]) -> str | None:
    """Why closure needs missing: "empty", "full", "intersection" or "union"; else None."""
    if missing == 0:
        return "empty"
    if missing == (1 << n) - 1:
        return "full"
    above = [b for b in bits if b & missing == missing]
    inter = (1 << n) - 1
    for b in above:
        inter &= b
    if above and inter == missing:
        return "intersection"
    if any(a | b == missing for a in bits for b in bits):
        return "union"
    return None


def test_open_families_agree_with_the_pairwise_check():
    rng = random.Random(SEED)
    accepted = 0
    kinds = {"empty": 0, "full": 0, "intersection": 0, "union": 0}
    for _ in range(2400):
        n, bits = random_open_family(rng)
        expected = open_family_missing_pairwise(n, bits)
        try:
            space = from_open_family(family_of(n, bits))
        except NotATopology as exc:
            assert expected is not None, (n, bits)
            assert exc.missing_bits not in bits
            kind = witness_kind(exc.missing_bits, n, bits)
            assert kind is not None, (n, bits, exc.missing_bits)
            kinds[kind] += 1
        else:
            assert expected is None, (n, bits)
            assert [p.bits for p in open_sets(space)] == sorted(set(bits))
            accepted += 1
    assert accepted > 500
    assert min(kinds.values()) > 50, kinds


def test_bases_agree_with_the_per_point_oracle():
    rng = random.Random(SEED)
    outcomes = {"space": 0, "NotCovered": 0, "NoMinimalSet": 0}
    for _ in range(2400):
        n, bits = random_basis(rng)
        expected = basis_by_points(n, bits)
        try:
            got = from_basis(family_of(n, bits)).masks
        except (NotCovered, NoMinimalSet) as exc:
            got = (type(exc).__name__, exc.point)
        assert got == expected, (n, bits)
        outcomes[got[0] if got and isinstance(got[0], str) else "space"] += 1
    assert min(outcomes.values()) > 300, outcomes


def test_the_open_sets_of_a_product_of_chains_rebuild_it():
    space = product(chain(8), chain(8))
    opens = open_sets(space)
    assert len(opens) == 12870
    assert from_open_family(SubsetFamily(space.n, tuple(opens))).masks == space.masks


import pytest

from finitetop.constructions import (
    Partition,
    disjoint_sum,
    product,
    product_n,
    quotient,
    subspace,
    t0_quotient,
)
from finitetop.core import (
    PointSet,
    Space,
    canonical_form,
    from_neighborhoods,
    is_open,
    open_sets,
)
from finitetop.errors import PartitionMismatch, SizeOverflow
from finitetop.generators import blocks, chain, discrete, indiscrete, random_space
from finitetop.invariants import is_irreducible, min_of

from oracles import least_saturated_open_superset, quotient_masks_by_fixpoint

SIERP = from_neighborhoods(2, [{0}, {0, 1}])


def product_mask_by_hand(a, b, x, y):
    m = 0
    for u in a.nbhd[x].members():
        for v in b.nbhd[y].members():
            m |= 1 << (u * b.n + v)
    return m


class TestProduct:
    def test_one_point_unit(self):
        one = from_neighborhoods(1, [{0}])
        for b in (SIERP, chain(3), discrete(2)):
            assert product(one, b).masks == b.masks

    def test_sierpinski_squared_top_point(self):
        p = product(SIERP, SIERP)
        assert p.n == 4
        assert p.nbhd[3].members() == (0, 1, 2, 3)

    def test_discrete_times_discrete(self):
        assert product(discrete(2), discrete(2)).masks == discrete(4).masks

    def test_neighborhood_formula(self):
        pairs = [(SIERP, chain(3)), (blocks(2, 2), SIERP), (indiscrete(2), discrete(3))]
        for a, b in pairs:
            p = product(a, b)
            for x in range(a.n):
                for y in range(b.n):
                    assert p.masks[x * b.n + y] == product_mask_by_hand(a, b, x, y)

    def test_size_overflow(self):
        with pytest.raises(SizeOverflow):
            product(discrete(3), discrete(3), bound=8)

    def test_labels_combine(self):
        a = from_neighborhoods(1, [{0}], labels=["a"])
        b = from_neighborhoods(2, [{0}, {1}], labels=["x", "y"])
        assert product(a, b).labels == ("a.x", "a.y")

    def test_colliding_labels_dropped(self):
        # ("x", "y.z") and ("x.y", "z") both join to "x.y.z"
        a = from_neighborhoods(2, [{0}, {0, 1}], labels=["x", "x.y"])
        b = from_neighborhoods(2, [{0}, {1}], labels=["y.z", "z"])
        p = product(a, b)
        assert p.labels is None
        assert p.masks == product(chain(2), discrete(2)).masks


class TestProductN:
    def test_singleton_fold(self):
        assert product_n([chain(3)]).masks == chain(3).masks

    def test_sierpinski_cubed(self):
        p = product_n([SIERP] * 3)
        assert p.n == 8
        assert p.nbhd[7].members() == tuple(range(8))

    def test_mixed_factors_singleton_count(self):
        p = product_n([discrete(2), chain(2)])
        assert p.n == 4
        singletons = [x for x in range(4) if len(p.nbhd[x]) == 1]
        assert len(singletons) == 2

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            product_n([])

    def test_associative_up_to_canonical_form(self):
        a, b, c = SIERP, chain(2), discrete(2)
        left = product(product(a, b), c)
        right = product(a, product(b, c))
        assert canonical_form(left) == canonical_form(right)


class TestSubspace:
    def test_full_carrier(self):
        s = chain(3)
        assert subspace(s, PointSet.full(3)).masks == s.masks

    def test_chain_tail(self):
        sub = subspace(chain(3), PointSet.from_points(3, [1, 2]))
        assert sub.masks == (1, 3)

    def test_sierpinski_top_only(self):
        sub = subspace(SIERP, PointSet.from_points(2, [1]))
        assert sub.masks == (1,)

    def test_empty_selection(self):
        assert subspace(chain(2), PointSet(2, 0)).n == 0

    def test_intersection_formula(self):
        s = from_neighborhoods(4, [{0}, {0, 1}, {0, 2}, {0, 1, 2, 3}])
        a = PointSet.from_points(4, [1, 2, 3])
        sub = subspace(s, a)
        members = a.members()
        for i, p in enumerate(members):
            expected = {q for q in s.nbhd[p].members() if q in members}
            got = {members[j] for j in sub.nbhd[i].members()}
            assert got == expected

    def test_labels_kept(self):
        s = from_neighborhoods(3, [{0}, {0, 1}, {0, 1, 2}], labels=["a", "b", "c"])
        assert subspace(s, PointSet.from_points(3, [0, 2])).labels == ("a", "c")


class TestQuotient:
    def test_identity_partition(self):
        s = from_neighborhoods(3, [{0}, {0, 1}, {0, 2}])
        assert quotient(s, Partition.identity(3)).masks == s.masks

    def test_chain_collapse(self):
        q = quotient(chain(3), Partition.from_blocks(3, [[0, 1], [2]]))
        assert q.masks == chain(2).masks

    def test_discrete_quotient_discrete(self):
        q = quotient(discrete(4), Partition.from_blocks(4, [[0, 1], [2, 3]]))
        assert q.masks == discrete(2).masks

    def test_partition_mismatch(self):
        with pytest.raises(PartitionMismatch):
            quotient(chain(3), Partition.identity(2))

    def test_preimages_are_least_saturated_opens(self):
        cases = [
            (chain(4), [[0, 1], [2], [3]]),
            (from_neighborhoods(4, [{0}, {0, 1}, {0, 2}, {0, 1, 2, 3}]), [[1, 2], [0], [3]]),
            (blocks(2, 2), [[0, 2], [1], [3]]),
        ]
        for space, blks in cases:
            part = Partition.from_blocks(space.n, blks)
            q = quotient(space, part)
            cmasks = part.class_masks()
            for c in range(part.k):
                preimage = 0
                for d in q.nbhd[c].members():
                    preimage |= cmasks[d]
                assert is_open(space, PointSet(space.n, preimage))
                assert preimage == least_saturated_open_superset(space, cmasks, c)

    def test_quotient_open_sets_pull_back_open(self):
        space = from_neighborhoods(4, [{0}, {0, 1}, {0, 2}, {0, 1, 2, 3}])
        part = Partition.from_blocks(4, [[1, 2], [0], [3]])
        q = quotient(space, part)
        cmasks = part.class_masks()
        for o in open_sets(q):
            preimage = 0
            for c in o.members():
                preimage |= cmasks[c]
            assert is_open(space, PointSet(space.n, preimage))

    def test_labels_joined(self):
        s = from_neighborhoods(2, [{0, 1}, {0, 1}], labels=["a", "b"])
        q = quotient(s, Partition.from_blocks(2, [[0, 1]]))
        assert q.labels == ("a+b",)

    def test_colliding_labels_dropped(self):
        s = from_neighborhoods(3, [{0}, {1}, {0, 1, 2}], labels=["a", "b", "a+b"])
        q = quotient(s, Partition.from_blocks(3, [[0, 1], [2]]))
        assert q.labels is None
        assert q.masks == chain(2).masks

    def test_fence_needing_many_rounds_matches_fixpoint_oracle(self):
        # fence a0 < b0 > a1 < b1 > ... a64 (a_i = 2i, b_i = 2i + 1), with
        # b_i and a_(i+1) in one class: the hull of class i + 1 reaches a0
        # only after i rounds, and the quotient is a chain
        pairs = 64
        n = 2 * pairs + 1
        fence = from_neighborhoods(
            n, [1 << x if x % 2 == 0 else 0b111 << (x - 1) for x in range(n)]
        )
        part = Partition.from_blocks(n, [[0]] + [[2 * i + 1, 2 * i + 2] for i in range(pairs)])
        q = quotient(fence, part)
        assert list(q.masks) == quotient_masks_by_fixpoint(fence, part.class_of)
        assert q.masks == chain(pairs + 1).masks


class TestT0Quotient:
    def test_indiscrete_collapses_to_point(self):
        q, part = t0_quotient(indiscrete(3))
        assert q.n == 1
        assert part.k == 1

    def test_t0_space_unchanged(self):
        s = from_neighborhoods(3, [{0}, {0, 1}, {0, 2}])
        q, part = t0_quotient(s)
        assert part.k == 3
        assert q.masks == s.masks

    @pytest.mark.parametrize(
        "s",
        [chain(1), chain(5), product(chain(3), chain(4)), product(chain(8), chain(8))]
        + [t0_quotient(random_space(n, seed))[0] for n, seed in ((6, 0), (24, 1), (64, 2))],
    )
    @pytest.mark.parametrize("labeled", [False, True])
    def test_t0_input_is_its_own_quotient(self, s, labeled):
        if labeled:
            s = Space(s.n, s.masks, tuple(f"v{x}" for x in range(s.n)))
        identity = Partition.identity(s.n)
        q, part = t0_quotient(s)
        assert q == s == quotient(s, identity)
        assert part == identity

    def test_blocks_collapse_to_discrete(self):
        q, _ = t0_quotient(blocks(2, 3))
        assert q.masks == discrete(2).masks

    def test_idempotent_up_to_canonical_form(self):
        for s in (blocks(3, 2), indiscrete(4), chain(3), product(SIERP, indiscrete(2))):
            once, _ = t0_quotient(s)
            twice, _ = t0_quotient(once)
            assert canonical_form(once) == canonical_form(twice)

    def test_discrete_iff_all_irreducible(self):
        for s in (blocks(2, 2), chain(3), indiscrete(4), product(SIERP, SIERP)):
            q, _ = t0_quotient(s)
            all_irr = all(is_irreducible(s, x) for x in range(s.n))
            assert (q.masks == discrete(q.n).masks) == all_irr


class TestDisjointSum:
    def test_two_points(self):
        one = from_neighborhoods(1, [{0}])
        assert disjoint_sum(one, one).masks == discrete(2).masks

    def test_two_chains_min(self):
        s = disjoint_sum(chain(2), chain(2))
        assert min_of(s)[0] == 2

    def test_empty_unit(self):
        empty = from_neighborhoods(0, [])
        assert disjoint_sum(chain(3), empty).masks == chain(3).masks
        assert disjoint_sum(empty, chain(3)).masks == chain(3).masks

    def test_size_overflow(self):
        with pytest.raises(SizeOverflow):
            disjoint_sum(discrete(3), discrete(3), bound=5)

    def test_associative_up_to_canonical_form(self):
        a, b, c = SIERP, chain(2), discrete(1)
        left = disjoint_sum(disjoint_sum(a, b), c)
        right = disjoint_sum(a, disjoint_sum(b, c))
        assert canonical_form(left) == canonical_form(right)


class TestPartition:
    def test_from_class_of_renumbers_by_least_member(self):
        p = Partition.from_class_of([5, 2, 5, 9])
        assert p.class_of == (0, 1, 0, 2)
        assert p.k == 3

    def test_from_blocks_requires_cover(self):
        with pytest.raises(ValueError):
            Partition.from_blocks(3, [[0, 1]])

    def test_from_blocks_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition.from_blocks(2, [[0, 1], [1]])

    def test_direct_construction_checks_ordering(self):
        with pytest.raises(ValueError):
            Partition(2, (1, 0), 2)

    def test_class_masks(self):
        p = Partition.from_blocks(3, [[0, 2], [1]])
        assert p.class_masks() == [0b101, 0b010]

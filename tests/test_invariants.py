import pytest
from hypothesis import given

from finitetop.census import enumerate_spaces
from finitetop.constructions import disjoint_sum, product
from finitetop.core import from_neighborhoods
from finitetop.errors import EmptySpace
from finitetop.generators import blocks, chain, discrete, divisor, indiscrete
from finitetop.invariants import (
    index_of,
    is_basic,
    is_discrete,
    is_hausdorff,
    is_irreducible,
    min_of,
    report,
)

from oracles import (
    index_by_definition,
    is_basic_by_definition,
    is_hausdorff_by_definition,
    is_irreducible_by_definition,
    maximal_masks_by_definition,
    min_cover_bruteforce,
)
from strategies import nonempty_spaces, shuffled

# two incomparable points over a shared bottom
VEE = from_neighborhoods(3, [{0}, {0, 1}, {0, 2}])
# bottomless mix: two isolated points under a full top
FAN = from_neighborhoods(3, [{0}, {1}, {0, 1, 2}])


class TestIrreducible:
    def test_discrete_all_irreducible(self):
        for x in range(4):
            assert is_irreducible(discrete(4), x)

    def test_chain_top_not_irreducible(self):
        assert not is_irreducible(chain(3), 2)

    def test_chain_bottom_irreducible(self):
        assert is_irreducible(chain(3), 0)

    def test_indiscrete_irreducible(self):
        for x in range(3):
            assert is_irreducible(indiscrete(3), x)


class TestBasic:
    def test_chain_bottom_only(self):
        for k in (1, 2, 3, 5):
            s = chain(k)
            assert is_basic(s, 0)
            for x in range(1, k):
                assert not is_basic(s, x)

    def test_divisor_unit_only(self):
        s = divisor(6)
        assert is_basic(s, 0)  # the point of order 1
        for x in range(1, 6):
            assert not is_basic(s, x)

    def test_blocks_every_point(self):
        s = blocks(3, 2)
        for x in range(s.n):
            assert is_basic(s, x)

    def test_vee_only_bottom(self):
        assert is_basic(VEE, 0)
        assert not is_basic(VEE, 1)
        assert not is_basic(VEE, 2)

    def test_fan_has_no_basic_set(self):
        for x in range(3):
            assert not is_basic(FAN, x)

    def test_basic_implies_irreducible(self):
        for s in (chain(4), VEE, FAN, blocks(2, 3), divisor(8, with_top=True)):
            for x in range(s.n):
                if is_basic(s, x):
                    assert is_irreducible(s, x)


class TestMin:
    def test_chain_is_one(self):
        count, witness = min_of(chain(5))
        assert count == 1
        assert witness[0].members() == tuple(range(5))

    def test_divisor_six(self):
        count, witness = min_of(divisor(6))
        assert count == 3
        # maximal divisibility neighborhoods belong to 4, 5, 6
        tops = {frozenset(w.members()) for w in witness}
        assert tops == {
            frozenset({0, 1, 3}),   # divisors of 4
            frozenset({0, 4}),      # divisors of 5
            frozenset({0, 1, 2, 5}),  # divisors of 6
        }

    def test_divisor_with_top_is_one(self):
        assert min_of(divisor(6, with_top=True))[0] == 1

    def test_disjoint_blocks(self):
        for k in (1, 2, 4):
            s = blocks(k, 2)
            count, witness = min_of(s)
            assert count == k == min_cover_bruteforce(s)
            covered = 0
            for w in witness:
                covered |= w.bits
            assert covered == (1 << s.n) - 1

    def test_matches_bruteforce_cover(self):
        for s in (chain(4), VEE, FAN, divisor(8), blocks(2, 2), discrete(5)):
            assert min_of(s)[0] == min_cover_bruteforce(s)

    def test_empty_space(self):
        with pytest.raises(EmptySpace):
            min_of(from_neighborhoods(0, []))


class TestIndex:
    def test_chain_is_one(self):
        for k in (1, 3, 8):
            assert index_of(chain(k)) == 1

    def test_divisor_with_top_is_one(self):
        for n in (1, 6, 12):
            assert index_of(divisor(n, with_top=True)) == 1

    def test_discrete_counts_points(self):
        for n in (1, 2, 5):
            assert index_of(discrete(n)) == n

    def test_fan_has_index_zero(self):
        assert index_of(FAN) == 0

    def test_shared_basic_set_counts_once(self):
        assert index_of(indiscrete(5)) == 1
        assert index_of(blocks(2, 3)) == 2

    def test_empty_space(self):
        with pytest.raises(EmptySpace):
            index_of(from_neighborhoods(0, []))


class TestSeparation:
    def test_discrete_hausdorff(self):
        assert is_hausdorff(discrete(4))
        assert is_discrete(discrete(4))

    def test_sierpinski_not_hausdorff(self):
        s = from_neighborhoods(2, [{0}, {0, 1}])
        assert not is_hausdorff(s)

    def test_indiscrete_not_hausdorff(self):
        assert not is_hausdorff(indiscrete(2))

    def test_hausdorff_iff_discrete(self):
        for s in (discrete(3), chain(3), indiscrete(2), blocks(2, 2), VEE, FAN):
            assert is_hausdorff(s) == is_discrete(s)

    @pytest.mark.parametrize("tail", [chain(2), indiscrete(2), discrete(1)])
    def test_singletons_first(self, tail):
        # the running sum of neighborhood sizes stays at most n until the tail
        s = disjoint_sum(discrete(5), tail)
        assert is_hausdorff(s) == is_hausdorff_by_definition(s) == is_discrete(s)


class TestReport:
    def test_chain(self):
        rep = report(chain(3))
        assert (rep.min_x, rep.index_x) == (1, 1)
        assert not rep.is_discrete
        assert rep.is_t0

    def test_discrete(self):
        rep = report(discrete(4))
        assert (rep.min_x, rep.index_x) == (4, 4)
        assert rep.is_discrete and rep.is_hausdorff and rep.is_t0

    def test_indiscrete(self):
        rep = report(indiscrete(5))
        assert (rep.min_x, rep.index_x) == (1, 1)
        assert not rep.is_t0
        assert rep.distinct_neighborhoods == 1

    def test_cover_witness_shape(self):
        rep = report(blocks(3, 2))
        assert len(rep.maximal_nbhds) == rep.min_x == 3

    def test_representatives_are_consistent(self):
        rep = report(VEE)
        assert rep.basic_points.members() == (0,)
        assert rep.basic_points.issubset(rep.irreducible_points)

    def test_empty_space(self):
        with pytest.raises(EmptySpace):
            report(from_neighborhoods(0, []))

    def test_each_neighborhood_contains_at_most_one_basic_set(self):
        for s in (chain(5), VEE, FAN, blocks(3, 2), divisor(12, with_top=True)):
            basics = set()
            for x in range(s.n):
                if is_basic(s, x):
                    basics.add(s.masks[x])
            for m in s.masks:
                inside = sum(1 for b in basics if b & ~m == 0)
                assert inside <= 1


def _least_ids(space, pred):
    """Least point of each class of equal neighborhoods whose member satisfies pred."""
    firsts = {}
    for x, m in enumerate(space.masks):
        firsts.setdefault(m, x)
    return {x for x in firsts.values() if pred(space, x)}


def _assert_matches_definitions(s):
    for x in range(s.n):
        assert is_irreducible(s, x) == is_irreducible_by_definition(s, x)
        assert is_basic(s, x) == is_basic_by_definition(s, x)
    maximal = maximal_masks_by_definition(s)
    count, witness = min_of(s)
    assert count == len(maximal)
    assert [w.bits for w in witness] == maximal
    assert index_of(s) == index_by_definition(s)
    assert is_hausdorff(s) == is_hausdorff_by_definition(s)
    rep = report(s)
    assert set(rep.basic_points) == _least_ids(s, is_basic_by_definition)
    assert set(rep.irreducible_points) == _least_ids(s, is_irreducible_by_definition)


class TestAgainstDefinitions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_space_on_n_points(self, n):
        for s in enumerate_spaces(n):
            _assert_matches_definitions(s)

    @given(nonempty_spaces(max_classes=6, max_class_size=3))
    def test_random_spaces(self, s):
        _assert_matches_definitions(s)

    def test_shuffled_non_t0_sum(self):
        s = shuffled(disjoint_sum(product(chain(16), chain(16)), product(blocks(8, 4), chain(16))), 0)
        _assert_matches_definitions(s)

from math import factorial

import pytest

from finitetop._refine import canonical_order
from finitetop.census import enumerate_spaces
from finitetop.core import (
    PointSet,
    Space,
    SubsetFamily,
    canonical_form,
    from_basis,
    from_neighborhoods,
    from_open_family,
    from_preorder,
    is_open,
    open_sets,
    relabel,
)
from finitetop.errors import (
    MinimalityViolation,
    NoMinimalSet,
    NotATopology,
    NotCovered,
    NotReflexive,
    NotTransitive,
    ReflexivityViolation,
    SearchBudgetExceeded,
    TooManyOpenSets,
)
from finitetop.generators import blocks, chain, discrete, indiscrete

from oracles import all_isomorphisms_bruteforce, homeomorphic_bruteforce, open_masks_by_definition

SIERP = from_neighborhoods(2, [{0}, {0, 1}])


class TestPointSet:
    def test_membership_and_iteration(self):
        s = PointSet.from_points(5, [0, 3])
        assert 0 in s and 3 in s and 1 not in s
        assert list(s) == [0, 3]
        assert len(s) == 2
        assert s.members() == (0, 3)

    def test_set_algebra(self):
        a = PointSet.from_points(4, [0, 1])
        b = PointSet.from_points(4, [1, 2])
        assert a.union(b).members() == (0, 1, 2)
        assert a.intersection(b).members() == (1,)
        assert a.difference(b).members() == (0,)
        assert not a.issubset(b)
        assert a.intersection(b).issubset(a)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PointSet.from_points(2, [2])
        with pytest.raises(ValueError):
            PointSet(2, 4)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PointSet(2, 1).union(PointSet(3, 1))


class TestFromNeighborhoods:
    def test_one_point(self):
        s = from_neighborhoods(1, [{0}])
        assert s.nbhd[0].members() == (0,)

    def test_chain_is_valid(self):
        s = from_neighborhoods(3, [{0}, {0, 1}, {0, 1, 2}])
        assert s.masks == (1, 3, 7)

    def test_larger_neighborhood_on_bottom_is_valid(self):
        # nbhd[1] = {1} sits inside nbhd[0] = {0,1}, so both axioms hold
        s = from_neighborhoods(2, [{0, 1}, {1}])
        assert s.masks == (3, 2)

    def test_reflexivity_violation(self):
        with pytest.raises(ReflexivityViolation) as exc:
            from_neighborhoods(2, [{0, 1}, {0}])
        assert exc.value.point == 1

    def test_minimality_violation(self):
        with pytest.raises(MinimalityViolation) as exc:
            from_neighborhoods(3, [{0, 1}, {1, 2}, {2}])
        assert (exc.value.point, exc.value.member) == (0, 1)

    def test_empty_space(self):
        assert from_neighborhoods(0, []).n == 0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            from_neighborhoods(2, [{0}, {1}], labels=["a", "a"])

    def test_bitmasks_accepted(self):
        s = from_neighborhoods(2, [1, PointSet(2, 3)])
        assert s.masks == (1, 3)
        assert s.nbhd == (PointSet(2, 1), PointSet(2, 3))

    def test_public_constructor_validates(self):
        assert Space(2, (1, 3), ("a", "b")).labels == ("a", "b")
        with pytest.raises(ReflexivityViolation):
            Space(2, (3, 1))
        with pytest.raises(MinimalityViolation):
            Space(3, (3, 6, 4))
        with pytest.raises(ValueError):
            Space(2, (1, 4))
        with pytest.raises(ValueError):
            Space(2, (1, 3), ("a",))


class TestFromBasis:
    def test_chain_basis(self):
        fam = SubsetFamily.of(3, [{0}, {0, 1}, {0, 1, 2}])
        s = from_basis(fam)
        assert s.nbhd[1].members() == (0, 1)
        assert s.masks == (1, 3, 7)

    def test_single_covering_set(self):
        s = from_basis(SubsetFamily.of(2, [{0, 1}]))
        assert s.masks == (3, 3)

    def test_no_minimal_set(self):
        with pytest.raises(NoMinimalSet) as exc:
            from_basis(SubsetFamily.of(3, [{0, 1}, {1, 2}]))
        assert exc.value.point == 1

    def test_not_covered(self):
        with pytest.raises(NotCovered) as exc:
            from_basis(SubsetFamily.of(2, [{0}]))
        assert exc.value.point == 1

    def test_surviving_basis_sets_are_open(self):
        fam = SubsetFamily.of(4, [{0}, {0, 1}, {0, 2}, {0, 1, 2, 3}])
        s = from_basis(fam)
        for member in fam.sets:
            if member.bits in s.masks:
                assert is_open(s, member)

    def test_negative_carrier_rejected(self):
        # The family never exists, so from_basis and from_open_family
        # cannot build a space with a negative point count from it.
        for make in (lambda: SubsetFamily(-1, ()), lambda: SubsetFamily.of(-1, [])):
            with pytest.raises(ValueError, match="negative carrier size -1"):
                make()

    def test_duplicates_deduplicated(self):
        s = from_basis(SubsetFamily.of(1, [{0}, {0}, {0}]))
        assert s.n == 1


class TestFromOpenFamily:
    def test_sierpinski(self):
        s = from_open_family(SubsetFamily.of(2, [set(), {0}, {0, 1}]))
        assert s.masks == (1, 3)

    def test_one_point(self):
        s = from_open_family(SubsetFamily.of(1, [set(), {0}]))
        assert s.masks == (1,)

    def test_missing_union(self):
        with pytest.raises(NotATopology) as exc:
            from_open_family(SubsetFamily.of(2, [set(), {0}, {1}]))
        assert exc.value.missing_bits == 0b11

    def test_missing_empty_set(self):
        with pytest.raises(NotATopology):
            from_open_family(SubsetFamily.of(1, [{0}]))

    def test_missing_intersection(self):
        with pytest.raises(NotATopology) as exc:
            from_open_family(
                SubsetFamily.of(3, [set(), {0, 1}, {1, 2}, {0, 1, 2}])
            )
        assert exc.value.missing_bits == 0b010

    def test_missing_union_with_a_least_set(self):
        # Every intersection is present, but {0} | S(2) = {0, 2} is not.
        with pytest.raises(NotATopology) as exc:
            from_open_family(
                SubsetFamily.of(3, [set(), {0}, {1}, {0, 1}, {2}, {0, 1, 2}])
            )
        assert exc.value.missing_bits == 0b101


class TestFromPreorder:
    def test_sierpinski(self):
        s = from_preorder(2, [(0, 0), (1, 1), (0, 1)])
        assert s.nbhd[1].members() == (0, 1)

    def test_identity_gives_discrete(self):
        s = from_preorder(3, [(x, x) for x in range(3)])
        assert s.masks == (1, 2, 4)

    def test_not_transitive(self):
        with pytest.raises(NotTransitive) as exc:
            from_preorder(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
        assert exc.value.triple == (0, 1, 2)

    def test_not_reflexive(self):
        with pytest.raises(NotReflexive) as exc:
            from_preorder(2, [(0, 0), (0, 1)])
        assert exc.value.point == 1

    def test_negative_point_count_rejected(self):
        with pytest.raises(ValueError, match="negative point count -1"):
            from_preorder(-1, [])

    def test_labels_checked(self):
        pairs = [(0, 0), (1, 1), (0, 1)]
        assert from_preorder(2, pairs, ["a", "b"]).labels == ("a", "b")
        with pytest.raises(ValueError):
            from_preorder(2, pairs, ["a", "a"])
        with pytest.raises(ValueError):
            from_preorder(2, pairs, ["a"])

    def test_roundtrip_with_extracted_relation(self):
        for s in (SIERP, chain(4), indiscrete(3), discrete(3)):
            pairs = [
                (y, x) for x in range(s.n) for y in s.nbhd[x].members()
            ]
            assert from_preorder(s.n, pairs).masks == s.masks


class TestIsOpen:
    def test_chain_prefix_open(self):
        assert is_open(chain(3), PointSet.from_points(3, [0, 1]))

    def test_chain_nonprefix_closed(self):
        assert not is_open(chain(3), PointSet.from_points(3, [1, 2]))

    def test_empty_always_open(self):
        for s in (SIERP, chain(3), discrete(2)):
            assert is_open(s, PointSet(s.n, 0))

    def test_every_neighborhood_around_x_contains_its_minimal_one(self):
        # any basis set containing x admits {S(x)} as a one-set subcover
        for s in (chain(4), SIERP, indiscrete(3), discrete(3)):
            for z in range(s.n):
                for x in s.nbhd[z].members():
                    assert s.nbhd[x].issubset(s.nbhd[z])


class TestOpenSets:
    def test_sierpinski(self):
        assert [o.members() for o in open_sets(SIERP)] == [(), (0,), (0, 1)]

    def test_discrete_powerset(self):
        assert len(open_sets(discrete(2))) == 4

    def test_chain_prefix_count(self):
        for k in range(1, 7):
            assert len(open_sets(chain(k))) == k + 1

    def test_matches_powerset_filter(self):
        for s in (SIERP, chain(3), discrete(3), indiscrete(4),
                  from_neighborhoods(3, [{0}, {0, 1}, {0, 2}])):
            assert [o.bits for o in open_sets(s)] == open_masks_by_definition(s)

    def test_limit_guard(self):
        with pytest.raises(TooManyOpenSets):
            open_sets(discrete(8), limit=10)

    def test_closed_under_union_and_intersection(self):
        s = from_neighborhoods(4, [{0}, {0, 1}, {0, 2}, {0, 1, 2, 3}])
        opens = {o.bits for o in open_sets(s)}
        for a in opens:
            for b in opens:
                assert a | b in opens
                assert a & b in opens

    def test_open_family_roundtrip(self):
        for s in (SIERP, chain(4), indiscrete(3),
                  from_neighborhoods(3, [{0}, {0, 1}, {0, 2}])):
            fam = SubsetFamily(s.n, tuple(open_sets(s)))
            assert from_open_family(fam).nbhd == s.nbhd


class TestCanonicalForm:
    def test_permuted_copy_has_same_form(self):
        s = from_neighborhoods(4, [{0}, {0, 1}, {0, 2}, {0, 1, 2, 3}])
        assert canonical_form(s) == canonical_form(relabel(s, [2, 0, 3, 1]))

    def test_sierpinski_sorts_small_neighborhood_first(self):
        flipped = from_neighborhoods(2, [{0, 1}, {1}])
        c = canonical_form(flipped)
        assert len(c.nbhd[0]) == 1

    def test_discrete_is_fixed_point(self):
        d = discrete(6)
        assert canonical_form(d).masks == d.masks

    def test_equal_forms_imply_homeomorphic(self):
        a = from_neighborhoods(3, [{0}, {0, 1}, {0, 2}])
        b = relabel(a, [1, 2, 0])
        assert canonical_form(a) == canonical_form(b)
        assert homeomorphic_bruteforce(a, b) is not None


class TestCanonicalOrder:
    def test_automorphisms_match_bruteforce(self):
        for n in range(5):
            for s in enumerate_spaces(n):
                _, gens, aut = canonical_order(s.masks)
                autos = set(all_isomorphisms_bruteforce(s, s))
                assert aut == len(autos)
                # the generators are automorphisms and generate all of them
                group = {tuple(range(n))}
                frontier = list(group)
                for g in frontier:
                    for h in gens:
                        gh = tuple(h[x] for x in g)
                        if gh not in group:
                            group.add(gh)
                            frontier.append(gh)
                assert group == autos

    def test_orbit_pruning_bounds_the_search(self):
        # with twin swaps alone the search visits all 8! orders of the blocks
        _, gens, aut = canonical_order(blocks(8, 8).masks, budget=400)
        assert aut == factorial(8) ** 9
        assert len(gens) < 64

    def test_budget_exceeded(self):
        with pytest.raises(SearchBudgetExceeded):
            canonical_order(discrete(6).masks, budget=3)


class TestRelabel:
    def test_relabeling_preserves_validity(self):
        s = from_neighborhoods(3, [{0}, {0, 1}, {0, 1, 2}], labels=["a", "b", "c"])
        r = relabel(s, [2, 0, 1])
        assert isinstance(r, Space)
        assert r.labels == ("b", "c", "a")
        # old bottom point 0 moved to id 2 and keeps a singleton neighborhood
        assert r.nbhd[2].members() == (2,)
        assert r.nbhd[0].members() == (0, 2)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            relabel(SIERP, [0, 0])

"""Cross-module laws checked on randomized inputs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.constructions import (
    Partition,
    disjoint_sum,
    product,
    quotient,
    subspace,
    t0_quotient,
)
from finitetop.core import (
    PointSet,
    SubsetFamily,
    canonical_form,
    from_open_family,
    from_preorder,
    is_open,
    open_sets,
    relabel,
)
from finitetop.invariants import (
    index_of,
    is_basic,
    is_discrete,
    is_hausdorff,
    is_irreducible,
    min_of,
)
from finitetop.maps import SpaceMap, find_homeomorphism, is_continuous

from oracles import (
    continuous_by_preimage,
    homeomorphic_bruteforce,
    min_cover_bruteforce,
    open_masks_by_definition,
    quotient_masks_by_fixpoint,
)
from strategies import nonempty_spaces, space_pairs_with_map, spaces


@given(spaces())
def test_space_axioms_hold(s):
    for x in range(s.n):
        assert x in s.nbhd[x]
        for y in s.nbhd[x].members():
            assert s.nbhd[y].issubset(s.nbhd[x])


@given(spaces(max_classes=4))
def test_open_sets_match_powerset_filter(s):
    assert [o.bits for o in open_sets(s)] == open_masks_by_definition(s)


@given(spaces(max_classes=4))
def test_open_sets_closed_under_union_and_intersection(s):
    opens = {o.bits for o in open_sets(s)}
    listed = sorted(opens)
    for a in listed:
        for b in listed:
            assert a | b in opens
            assert a & b in opens


@given(spaces(max_classes=4), st.randoms(use_true_random=False))
def test_arbitrary_intersections_of_opens_are_open(s, rng):
    opens = open_sets(s)
    for _ in range(10):
        k = rng.randint(0, len(opens))
        chosen = rng.sample(opens, k) if k else []
        inter = (1 << s.n) - 1
        for o in chosen:
            inter &= o.bits
        assert is_open(s, PointSet(s.n, inter))


@given(spaces(max_classes=4))
def test_open_family_roundtrip(s):
    fam = SubsetFamily(s.n, tuple(open_sets(s)))
    assert from_open_family(fam).nbhd == s.nbhd


@given(spaces())
def test_preorder_extraction_roundtrip(s):
    pairs = [(y, x) for x in range(s.n) for y in s.nbhd[x].members()]
    assert from_preorder(s.n, pairs).masks == s.masks


@given(spaces(), st.permutations(range(12)))
def test_canonical_form_is_relabeling_invariant(s, prefix_perm):
    perm = [p for p in prefix_perm if p < s.n]
    assert canonical_form(s) == canonical_form(relabel(s, perm))


@given(spaces(max_classes=3), spaces(max_classes=3))
def test_equal_canonical_forms_decide_homeomorphism(a, b):
    same = canonical_form(a) == canonical_form(b)
    assert same == (homeomorphic_bruteforce(a, b) is not None)


@given(spaces(max_classes=3), spaces(max_classes=3))
def test_product_neighborhood_formula(a, b):
    p = product(a, b)
    for x in range(a.n):
        for y in range(b.n):
            expected = 0
            for u in a.nbhd[x].members():
                for v in b.nbhd[y].members():
                    expected |= 1 << (u * b.n + v)
            assert p.masks[x * b.n + y] == expected


@given(spaces(), st.data())
def test_subspace_neighborhood_formula(s, data):
    bits = data.draw(st.integers(0, (1 << s.n) - 1))
    a = PointSet(s.n, bits)
    sub = subspace(s, a)
    members = a.members()
    for i, p in enumerate(members):
        expected = s.masks[p] & a.bits
        got = 0
        for j in sub.nbhd[i].members():
            got |= 1 << members[j]
        assert got == expected


@given(spaces(), st.data())
def test_quotient_validates_and_pulls_back_open(s, data):
    assignment = [data.draw(st.integers(0, max(s.n - 1, 0))) for _ in range(s.n)]
    if s.n == 0:
        part = Partition(0, (), 0)
    else:
        part = Partition.from_class_of(assignment)
    q = quotient(s, part)
    cmasks = part.class_masks()
    for c in range(q.n):
        preimage = 0
        for d in q.nbhd[c].members():
            preimage |= cmasks[d]
        assert is_open(s, PointSet(s.n, preimage))


@given(spaces(max_classes=6, max_class_size=3), st.data())
def test_quotient_matches_fixpoint_oracle(s, data):
    k = data.draw(st.integers(1, max(s.n, 1)))
    assignment = [data.draw(st.integers(0, k - 1)) for _ in range(s.n)]
    part = Partition.from_class_of(assignment) if s.n else Partition(0, (), 0)
    assert list(quotient(s, part).masks) == quotient_masks_by_fixpoint(s, part.class_of)


@given(spaces())
def test_t0_quotient_discrete_iff_all_irreducible(s):
    q, _ = t0_quotient(s)
    assert is_discrete(q) == all(is_irreducible(s, x) for x in range(s.n))


@given(spaces())
def test_t0_quotient_idempotent(s):
    once, _ = t0_quotient(s)
    twice, _ = t0_quotient(once)
    assert canonical_form(once) == canonical_form(twice)


@given(nonempty_spaces())
def test_basic_implies_irreducible(s):
    for x in range(s.n):
        if is_basic(s, x):
            assert is_irreducible(s, x)


@given(nonempty_spaces())
def test_distinct_irreducible_neighborhoods_are_disjoint(s):
    irreducible = {s.masks[x] for x in range(s.n) if is_irreducible(s, x)}
    listed = sorted(irreducible)
    for i, a in enumerate(listed):
        for b in listed[i + 1 :]:
            assert a & b == 0


@given(nonempty_spaces())
def test_each_neighborhood_contains_at_most_one_basic_set(s):
    basics = {s.masks[x] for x in range(s.n) if is_basic(s, x)}
    for m in s.masks:
        assert sum(1 for b in basics if b & ~m == 0) <= 1


@given(nonempty_spaces())
def test_index_at_most_min(s):
    assert index_of(s) <= min_of(s)[0]


@given(nonempty_spaces())
def test_min_matches_bruteforce_cover(s):
    assert min_of(s)[0] == min_cover_bruteforce(s)


@given(nonempty_spaces(), st.permutations(range(12)))
def test_min_and_index_invariant_under_relabeling(s, prefix_perm):
    perm = [p for p in prefix_perm if p < s.n]
    r = relabel(s, perm)
    assert min_of(r)[0] == min_of(s)[0]
    assert index_of(r) == index_of(s)


@given(spaces())
def test_hausdorff_iff_discrete(s):
    assert is_hausdorff(s) == is_discrete(s)


@given(space_pairs_with_map())
def test_continuity_criteria_agree_on_arbitrary_maps(triple):
    src, dst, f = triple
    assert is_continuous(SpaceMap(src, dst, f)) == continuous_by_preimage(src, dst, f)


@settings(max_examples=30)
@given(spaces(max_classes=3), spaces(max_classes=3))
def test_homeomorphism_search_matches_bruteforce(a, b):
    found = find_homeomorphism(a, b)
    brute = homeomorphic_bruteforce(a, b)
    assert (found is None) == (brute is None)
    if found is not None:
        assert homeomorphic_bruteforce(a, b) is not None


@settings(max_examples=30)
@given(spaces(max_classes=3), spaces(max_classes=3))
def test_homeomorphism_search_is_symmetric(a, b):
    assert (find_homeomorphism(a, b) is None) == (find_homeomorphism(b, a) is None)


@given(spaces(), st.permutations(range(12)))
def test_relabeling_preserves_space_axioms(s, prefix_perm):
    perm = [p for p in prefix_perm if p < s.n]
    r = relabel(s, perm)  # would raise if the axioms broke
    assert sorted(len(ps) for ps in r.nbhd) == sorted(len(ps) for ps in s.nbhd)


@given(spaces(max_classes=3), spaces(max_classes=3), spaces(max_classes=2))
def test_sum_and_product_associativity(a, b, c):
    assert canonical_form(disjoint_sum(disjoint_sum(a, b), c)) == canonical_form(
        disjoint_sum(a, disjoint_sum(b, c))
    )
    if a.n * b.n * c.n <= 64:
        assert canonical_form(product(product(a, b), c)) == canonical_form(
            product(a, product(b, c))
        )


@given(st.data())
def test_basis_members_that_survive_are_open(data):
    s = data.draw(spaces(max_classes=4))
    fam = SubsetFamily(s.n, s.nbhd)
    for member in fam.sets:
        if member.bits in s.masks:
            assert is_open(s, member)


@given(nonempty_spaces())
def test_strategy_emits_valid_nonempty_spaces(s):
    assert s.n > 0
    assert len(s.nbhd) == s.n


if __name__ == "__main__":
    pytest.main([__file__, "-q"])

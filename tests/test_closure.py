"""The down-closure check behind `Space`, `from_preorder`, the census walk and
continuity, and the point `glue` names on a conflict, pinned against
set-based and pairwise references."""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop._refine import closure_violation, first_violation, image, owners
from finitetop.census import enumerate_spaces
from finitetop.core import Space, from_preorder, relabel
from finitetop.errors import (
    MinimalityViolation,
    NotReflexive,
    NotTransitive,
    NotWellDefined,
    ReflexivityViolation,
    ResultNotHomeomorphism,
)
from finitetop.maps import GlueData, glue

from oracles import (
    first_intransitive_triple,
    first_violation_by_sets,
    glue_conflict_pairwise,
)
from strategies import spaces


def reflexive_arrays(n):
    choices = [[m for m in range(1 << n) if m >> x & 1] for x in range(n)]
    return iproduct(*choices)


def space_outcome(n, masks):
    """The witness Space(...) reports, as (point, member), or None when it accepts."""
    try:
        Space(n, masks)
    except MinimalityViolation as err:
        return err.point, err.member
    return None


class TestPrimitives:
    def test_owners_in_first_owner_order(self):
        assert list(owners([3, 1, 3, 4]).items()) == [(3, 0b101), (1, 0b010), (4, 0b1000)]
        assert owners([]) == {}

    def test_image_of_list_and_dict(self):
        assert image(0b1011, [2, 0, 5, 0]) == 0b101
        assert image(0b110, {1: 3, 2: 3}) == 0b1000
        assert image(0, {}) == 0


class TestClosureCheck:
    def test_every_reflexive_array_up_to_four_points(self):
        for n in range(5):
            for masks in reflexive_arrays(n):
                want = first_violation_by_sets(masks)
                assert first_violation(masks) == want, masks
                assert closure_violation(masks) == want, masks

    @settings(max_examples=300)
    @given(st.integers(0, 12).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    ))
    def test_reflexive_arrays_up_to_twelve_points(self, raw):
        masks = [m | 1 << x for x, m in enumerate(raw)]
        want = first_violation_by_sets(masks)
        assert first_violation(masks) == want
        assert closure_violation(masks) == want
        assert space_outcome(len(masks), masks) == want

    @settings(max_examples=300)
    @given(spaces(max_classes=6, max_class_size=2), st.data())
    def test_valid_spaces_with_flipped_bits(self, s, data):
        masks = list(s.masks)
        assert closure_violation(masks) is None
        if s.n < 2:
            return
        for _ in range(data.draw(st.integers(1, 2))):
            x = data.draw(st.integers(0, s.n - 1))
            y = data.draw(st.integers(0, s.n - 1).filter(lambda y: y != x))
            masks[x] ^= 1 << y
        want = first_violation_by_sets(masks)
        assert closure_violation(masks) == want
        assert space_outcome(s.n, masks) == want

    def test_large_valid_spaces_pass(self):
        grid = tuple(
            sum(1 << (u * 30 + v) for u in range(i + 1) for v in range(j + 1))
            for i in range(30) for j in range(30)
        )
        assert closure_violation(grid) is None
        shuffled = relabel(Space._of(900, grid), [(x * 7) % 900 for x in range(900)])
        assert closure_violation(shuffled.masks) is None

    def test_reflexivity_is_checked_first(self):
        # Checked after the closure test, the first array would raise
        # MinimalityViolation and the second would be accepted.
        for masks in [(0b10, 0b11), (0b01, 0b01)]:
            with pytest.raises(ReflexivityViolation):
                Space(len(masks), masks)


class TestClosureCheckWithImages:
    """The violation of y in masks[x] with images[y] not inside images[x]."""

    def test_owners_whose_images_differ(self):
        # indiscrete(2): the owners 0 and 1 share a mask, so their images must agree
        for images, want in [((1, 2), (0, 1)), ((3, 1), (1, 0)), ((1, 3), (0, 1)), ((2, 2), None)]:
            assert first_violation_by_sets([3, 3], list(images)) == want
            assert first_violation([3, 3], images) == want
            assert closure_violation([3, 3], images) == want

    def test_every_image_table_on_spaces_up_to_three_points(self):
        for n in range(4):
            for s in enumerate_spaces(n):
                for images in iproduct(range(8), repeat=n):
                    want = first_violation_by_sets(list(s.masks), list(images))
                    assert first_violation(s.masks, images) == want, (s.masks, images)
                    assert closure_violation(s.masks, images) == want, (s.masks, images)

    @settings(max_examples=300)
    @given(spaces(max_classes=6, max_class_size=3), spaces(max_classes=4), st.data())
    def test_images_of_maps_between_spaces(self, s, t, data):
        # the images a map into t gives: target neighborhoods, often shared
        if t.n == 0:
            return
        f = data.draw(st.lists(st.integers(0, t.n - 1), min_size=s.n, max_size=s.n))
        images = [t.masks[y] for y in f]
        want = first_violation_by_sets(list(s.masks), images)
        assert first_violation(s.masks, images) == want
        assert closure_violation(s.masks, images) == want

    @settings(max_examples=300)
    @given(spaces(max_classes=6, max_class_size=3), st.data())
    def test_arbitrary_image_tables(self, s, data):
        images = data.draw(st.lists(st.integers(0, 15), min_size=s.n, max_size=s.n))
        want = first_violation_by_sets(list(s.masks), images)
        assert first_violation(s.masks, images) == want
        assert closure_violation(s.masks, images) == want

    def test_masks_as_their_own_images(self):
        grid = relabel(Space._of(16, tuple(
            sum(1 << (u * 4 + v) for u in range(i + 1) for v in range(j + 1))
            for i in range(4) for j in range(4)
        )), [(x * 5) % 16 for x in range(16)]).masks
        assert closure_violation(grid, grid) is None
        assert first_violation(grid, grid) is None


class TestFromPreorder:
    @settings(max_examples=300)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
        )
    ))
    def test_first_missing_pair_matches_brute_force(self, case):
        n, pairs = case
        pairs = pairs + [(x, x) for x in range(n)]
        try:
            from_preorder(n, pairs)
            got = None
        except NotTransitive as err:
            got = err.triple
        assert got == first_intransitive_triple(n, pairs)

    def test_not_reflexive_before_not_transitive(self):
        with pytest.raises(NotReflexive):
            from_preorder(3, [(0, 0), (1, 1), (0, 1), (1, 2)])


@st.composite
def glue_inputs(draw):
    """A space, a relabeling of it and glue data whose local maps are the
    relabeling on about half of the listed neighborhoods and a random
    bijection onto the target neighborhood on the rest."""
    x = draw(spaces(max_classes=6, max_class_size=2).filter(lambda s: s.n > 0))
    perm = draw(st.permutations(range(x.n)))
    y = relabel(x, perm)
    first: dict[int, int] = {}
    for r, m in enumerate(x.masks):
        first.setdefault(m, r)
    reps = draw(st.permutations(list(first.values())))
    locals_ = []
    for r in reps:
        members = [p for p in range(x.n) if x.masks[r] >> p & 1]
        images = [perm[p] for p in members]
        if draw(st.booleans()):
            images = draw(st.permutations(images))
        locals_.append(dict(zip(members, images)))
    return x, y, reps, perm, locals_


@settings(max_examples=300)
@given(glue_inputs())
def test_glue_names_the_pairwise_conflict_point(case):
    x, y, reps, perm, locals_ = case
    data = GlueData.build([(r, perm[r]) for r in reps], locals_)
    want = glue_conflict_pairwise(x, reps, locals_)
    try:
        glue(x, y, data)
        got = None
    except NotWellDefined as err:
        got = err.point
    except ResultNotHomeomorphism:
        got = None
    assert got == want

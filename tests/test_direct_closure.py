"""DOT covers read off the owners map, and generator masks built by direct
closure, pinned against the old triple loop, trial division and a
Warshall closure of the same random draws."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.census import enumerate_spaces
from finitetop.cli import to_dot
from finitetop.constructions import disjoint_sum, product
from finitetop.core import relabel
from finitetop.generators import chain, divisor, random_space

from oracles import (
    divisor_masks_by_trial_division,
    hasse_edges_pairwise,
    random_space_masks_by_warshall,
)
from strategies import spaces

EDGE_RE = re.compile(r"^  p(\d+) -> p(\d+);$", re.M)


def dot_edges(space):
    return [(int(y), int(x)) for y, x in EDGE_RE.findall(to_dot(space))]


@st.composite
def relabeled_products_and_sums(draw, max_points: int = 40):
    """Non-T0 products and sums of drawn spaces, renamed by a drawn permutation."""
    a = draw(spaces(5, 3))
    b = draw(spaces(3, 2))
    if draw(st.booleans()) and a.n * b.n <= max_points:
        s = product(a, b)
    else:
        s = disjoint_sum(a, b)
    return relabel(s, draw(st.permutations(range(s.n))))


class TestDotCovers:
    def test_every_space_up_to_four_points(self):
        count = 0
        for n in range(5):
            for space in enumerate_spaces(n):
                assert dot_edges(space) == hasse_edges_pairwise(list(space.masks))
                count += 1
        assert count == 1 + 1 + 4 + 29 + 355

    @settings(max_examples=200, deadline=None)
    @given(relabeled_products_and_sums())
    def test_relabeled_products_and_sums(self, space):
        assert dot_edges(space) == hasse_edges_pairwise(list(space.masks))

    def test_long_chain_is_a_path(self):
        assert dot_edges(chain(1500)) == [(i, i + 1) for i in range(1499)]


class TestGeneratorMasks:
    def test_divisor_matches_trial_division(self):
        # divisors of m never exceed m, so the masks for b are a prefix of those for 300
        ref = divisor_masks_by_trial_division(300)
        for b in range(1, 301):
            assert divisor(b).masks == tuple(ref[:b])
            top = divisor(b, with_top=True)
            assert top.masks == tuple(ref[:b]) + ((1 << (b + 1)) - 1,)
            assert top.labels == tuple(str(m) for m in range(1, b + 1)) + ("w",)

    @pytest.mark.parametrize("density", [0, 0.1, 0.5, 1])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_space_matches_warshall_closure(self, seed, density):
        for n in (0, 1, 2, 3, 5, 9, 17, 40, 64):
            space = random_space(n, seed, density)
            assert list(space.masks) == random_space_masks_by_warshall(n, seed, density)
            assert space.labels is None

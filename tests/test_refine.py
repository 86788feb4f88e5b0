"""The refinement and the bit iterator against their definitions.

``refine_colors`` re-signs only the cells next to last round's splits;
``oracles.refine_colors_by_rounds`` re-ranks every point every round,
which is how the colors are defined, so the two must agree on every
input, both from the structural start and from the individualized
colorings a search makes.  The search itself refines each child from
its parent's stable cells (``_child``); that path must reach the same
colors as a fresh refinement of the individualized coloring.
"""

import random
from itertools import count

from hypothesis import given
from hypothesis import strategies as st

from finitetop._refine import _child, _stable, image, iter_bits, refine_colors
from finitetop.core import PointSet
from finitetop.generators import blocks, divisor

from oracles import refine_colors_by_rounds
from strategies import crown, spaces

WIDTH = 4096


def bits_by_definition(m: int) -> list[int]:
    return [i for i in range(m.bit_length()) if m >> i & 1]


def random_masks(count: int, seed: int) -> list[int]:
    """Masks of random length up to WIDTH bits, with densities from 1/2 down to 1/16."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        length = rng.randint(0, WIDTH)
        m = rng.getrandbits(length)
        for _ in range(rng.randint(0, 3)):
            m &= rng.getrandbits(length)
        out.append(m)
    return out


EDGE_MASKS = [0, 1, 1 << (WIDTH - 1), (1 << WIDTH) - 1]


def test_iter_bits_matches_the_definition():
    for m in EDGE_MASKS + random_masks(10_000, 0):
        assert list(iter_bits(m)) == bits_by_definition(m)


def test_image_and_point_set_iteration_match_the_definition():
    rng = random.Random(1)
    f = list(range(WIDTH))
    rng.shuffle(f)
    for m in EDGE_MASKS + random_masks(400, 2):
        bits = bits_by_definition(m)
        assert image(m, f) == sum(1 << f[i] for i in bits)
        assert list(PointSet(WIDTH, m)) == bits
        assert PointSet(WIDTH, m).members() == tuple(bits)


def neighbor_lists(masks):
    down = [bits_by_definition(m) for m in masks]
    up = [[] for _ in masks]
    for z, ys in enumerate(down):
        for y in ys:
            up[y].append(z)
    return down, up


def individualized(colors, p):
    return [2 * c + (q != p) for q, c in enumerate(colors)]


def dense(colors):
    ranks = dict(zip(sorted(set(colors)), count()))
    return [ranks[c] for c in colors]


def check_state(state):
    """Colors are first positions and cells are the non-singleton ones, members ascending."""
    colors, cells = state
    for c in colors:
        assert c == sum(1 for d in colors if d < c)
    expected = {}
    for q, c in enumerate(colors):
        expected.setdefault(c, []).append(q)
    assert cells == {c: qs for c, qs in expected.items() if len(qs) > 1}


def check_child(down, up, state, p, expected):
    """The child refined from its parent's cells has the expected colors; the parent is kept."""
    before = (list(state[0]), {c: list(qs) for c, qs in state[1].items()})
    child = _child(down, up, *state, p)
    assert state == before
    check_state(child)
    assert dense(child[0]) == expected
    return child


def check_against_rounds(masks, points):
    """Agreement from the structural start, and after individualizing each point in turn.

    Each individualized coloring is refined once more at a second point
    of a tied cell, as a search one level deeper would.  A point of a
    tied cell is also individualized from the parent's stable cells, as
    the search does it, at both levels.
    """
    down, up = neighbor_lists(masks)
    colors = refine_colors(down, up)
    assert colors == refine_colors_by_rounds(down, up)
    root = _stable(down, up)
    check_state(root)
    assert dense(root[0]) == colors
    for p in points:
        start = individualized(colors, p)
        node = refine_colors(down, up, start)
        assert node == refine_colors_by_rounds(down, up, start)
        child = check_child(down, up, root, p, node) if root[0][p] in root[1] else None
        tied = [q for q in range(len(masks)) if node.count(node[q]) > 1]
        if tied:
            deeper = individualized(node, tied[-1])
            expected = refine_colors_by_rounds(down, up, deeper)
            assert refine_colors(down, up, deeper) == expected
            if child is not None:
                check_child(down, up, child, tied[-1], expected)


@given(spaces(max_classes=6, max_class_size=3))
def test_refinement_matches_rounds_on_random_spaces(space):
    check_against_rounds(space.masks, range(space.n))


@given(st.integers(1, 6), st.integers(1, 4))
def test_refinement_matches_rounds_on_blocks(b, m):
    space = blocks(b, m)
    check_against_rounds(space.masks, range(space.n))


@given(st.integers(2, 10))
def test_refinement_matches_rounds_on_crowns(k):
    space = crown(k)
    check_against_rounds(space.masks, range(space.n))


@given(st.data(), st.integers(1, 250))
def test_refinement_matches_rounds_on_divisor_spaces(data, bound):
    points = data.draw(st.lists(st.integers(0, bound - 1), min_size=1, max_size=3))
    check_against_rounds(divisor(bound).masks, points)

"""Hypothesis strategies and space builders shared by the test suites."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from finitetop.core import PointSet, Space, from_neighborhoods, relabel


def crown(k: int) -> Space:
    """k minimal points and k maximal ones, max i above min i and min i + 1 (mod k)."""
    return from_neighborhoods(2 * k, [{i} for i in range(k)] + [{k + i, i, (i + 1) % k} for i in range(k)])


def shuffled(space: Space, seed: int) -> Space:
    """space relabeled by a seeded random permutation."""
    perm = list(range(space.n))
    random.Random(seed).shuffle(perm)
    return relabel(space, perm)


@st.composite
def spaces(draw, max_classes: int = 5, max_class_size: int = 2) -> Space:
    """A space built from a random poset of classes inflated to point groups.

    Drawing the T0 skeleton and the class sizes separately covers both
    poset-like and heavily non-T0 inputs; a final shuffle decouples the
    structure from index order.
    """
    k = draw(st.integers(min_value=0, max_value=max_classes))
    above = [
        [draw(st.booleans()) for _ in range(k - i - 1)] for i in range(k)
    ]
    reach = [0] * k
    for i in reversed(range(k)):
        r = 1 << i
        for off, flag in enumerate(above[i]):
            if flag:
                r |= reach[i + 1 + off]
        reach[i] = r
    sizes = [draw(st.integers(1, max_class_size)) for _ in range(k)]
    n = sum(sizes)
    starts = []
    acc = 0
    for s in sizes:
        starts.append(acc)
        acc += s
    group = [((1 << sizes[i]) - 1) << starts[i] for i in range(k)]
    down_of_class = [0] * k
    for i in range(k):
        for j in range(k):
            if reach[j] >> i & 1:  # i is reachable upward from j, so j <= i
                down_of_class[i] |= group[j]
    masks = []
    for i in range(k):
        masks.extend([down_of_class[i]] * sizes[i])
    perm = draw(st.permutations(range(n)))
    shuffled = [0] * n
    for x in range(n):
        m = masks[x]
        t = 0
        while m:
            low = m & -m
            t |= 1 << perm[low.bit_length() - 1]
            m ^= low
        shuffled[perm[x]] = t
    return from_neighborhoods(n, [PointSet(n, m) for m in shuffled])


@st.composite
def nonempty_spaces(draw, max_classes: int = 5, max_class_size: int = 2) -> Space:
    space = draw(spaces(max_classes, max_class_size))
    if space.n == 0:
        space = draw(spaces(max_classes, max_class_size).filter(lambda s: s.n > 0))
    return space


@st.composite
def space_pairs_with_map(draw, max_classes: int = 4):
    """Two spaces and an arbitrary point function between them."""
    src = draw(spaces(max_classes))
    dst = draw(nonempty_spaces(max_classes))
    f = tuple(draw(st.integers(0, dst.n - 1)) for _ in range(src.n))
    return src, dst, f

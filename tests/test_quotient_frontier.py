"""The packing step shared by `subspace` and `quotient`, the preimage
self-check behind every quotient, and both constructions at benchmark
scale against set-based references."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finitetop._refine import image, iter_bits, pack
from finitetop.constructions import (
    Partition,
    _check_preimages,
    product,
    quotient,
    subspace,
    t0_quotient,
)
from finitetop.core import PointSet, Space, relabel
from finitetop.errors import InternalError
from finitetop.generators import blocks, chain

from oracles import bits_of, quotient_masks_by_fixpoint


def pack_by_image(masks, keep):
    rank = {p: i for i, p in enumerate(iter_bits(keep))}
    return [image(m & keep, rank) for m in masks]


#: Carrier sizes at and beside the powers of two, where the compress's word width changes.
EDGE_SIZES = (127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 2048, 4095, 4096)


@st.composite
def masks_and_keep(draw):
    n = draw(st.one_of(st.integers(0, 80), st.sampled_from(EDGE_SIZES)))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    keep = draw(
        st.one_of(
            st.integers(0, (1 << n) - 1),
            st.just(0),
            st.just((1 << n) - 1),
            st.just(1 if n else 0),
            st.just(1 << (n - 1) if n else 0),
            st.integers(0, max(n - 1, 0)).map(lambda b: 1 << b if n else 0),
        )
    )
    return n, masks, keep


class TestPack:
    @given(masks_and_keep())
    def test_matches_image_onto_ranks(self, case):
        n, masks, keep = case
        assert pack(masks, keep, n) == pack_by_image(masks, keep)

    def test_empty_keep(self):
        assert pack([0b101, 0b11], 0, 3) == [0, 0]

    def test_full_carrier_returns_the_masks(self):
        masks = (0b101, 0b11, 0b111)
        assert pack(masks, 0b111, 3) == list(masks)

    def test_single_bit_keep(self):
        assert pack([0b100, 0b011, 0b110], 0b100, 3) == [1, 0, 1]

    def test_empty_carrier(self):
        assert pack([], 0, 0) == []
        assert pack([0], 0, 0) == [0]

    def test_high_bits_lead(self):
        # keep {1, 3, 4}: bit 4 of the mask becomes bit 2 of the result
        assert pack([0b10010, 0b01010, 0b11000], 0b11010, 5) == [0b101, 0b011, 0b110]


class TestPreimageCheck:
    # chain 0 < 1 < 2 with the classes {0}, {1}, {2}
    MASKS = chain(3).masks
    CMASKS = [0b001, 0b010, 0b100]
    CLASS_OF = (0, 1, 2)

    def test_accepts_the_true_preimages(self):
        _check_preimages(self.MASKS, self.CMASKS, self.CLASS_OF, [0b001, 0b011, 0b111])

    def test_rejects_a_preimage_missing_its_class(self):
        with pytest.raises(InternalError):
            _check_preimages(self.MASKS, self.CMASKS, self.CLASS_OF, [0b001, 0b001, 0b111])

    def test_rejects_a_non_open_preimage(self):
        # {2} holds point 2 but not its neighborhood {0, 1, 2}
        with pytest.raises(InternalError):
            _check_preimages(self.MASKS, self.CMASKS, self.CLASS_OF, [0b001, 0b011, 0b100])

    def test_rejects_an_unsaturated_preimage(self):
        # discrete points 0, 1, 2 with the classes {0, 1} and {2}: the
        # family {0, 1}, {1, 2} is open and holds each class, but the
        # second preimage meets class {0, 1} at 1 only, which only the
        # down-closure check sees
        masks = (0b001, 0b010, 0b100)
        with pytest.raises(InternalError):
            _check_preimages(masks, [0b011, 0b100], (0, 0, 1), [0b011, 0b110])


def relabeled(space, seed):
    perm = list(range(space.n))
    random.Random(seed).shuffle(perm)
    return relabel(space, perm), perm


class TestAtBenchmarkScale:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pairs_quotient_of_grid16(self, seed):
        x, perm = relabeled(product(chain(16), chain(16)), seed)
        classes = [0] * x.n
        for p in range(x.n):
            classes[perm[p]] = p // 2
        part = Partition.from_class_of(classes)
        q = quotient(x, part)
        assert list(q.masks) == quotient_masks_by_fixpoint(x, part.class_of)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_t0_quotient_of_blocks_times_chain(self, seed):
        x, _ = relabeled(product(blocks(16, 8), chain(8)), seed)
        q, part = t0_quotient(x)
        first: dict[int, int] = {}
        assert part.class_of == tuple(first.setdefault(m, len(first)) for m in x.masks)
        assert list(q.masks) == quotient_masks_by_fixpoint(x, part.class_of)
        assert q.n == 16 * 8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_half_of_grid32(self, seed):
        x, perm = relabeled(product(chain(32), chain(32)), seed)
        members = sorted(perm[p] for p in range(0, x.n, 2))
        a = PointSet.from_points(x.n, members)
        sub = subspace(x, a)
        index = {p: i for i, p in enumerate(members)}
        expected = [
            sum(1 << index[q] for q in bits_of(x.masks[p]) if q in index) for p in members
        ]
        assert list(sub.masks) == expected


def pairing(n, seed):
    """Class ids pairing the points of range(n) at random."""
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    classes = [0] * n
    for i, p in enumerate(ids):
        classes[p] = i // 2
    return classes


class TestFinishedPreimages:
    """Quotients whose growth meets classes already finished."""

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_random_pairing_of_grid16(self, seed):
        x = product(chain(16), chain(16))
        perm = list(range(x.n))
        if seed is not None:
            x, perm = relabeled(x, seed)
        classes = [0] * x.n
        for p, c in enumerate(pairing(x.n, 5)):
            classes[perm[p]] = c
        part = Partition.from_class_of(classes)
        assert list(quotient(x, part).masks) == quotient_masks_by_fixpoint(x, part.class_of)

    @pytest.mark.parametrize("seed", [None, 0])
    def test_classes_with_equal_preimages(self, seed):
        # chain(16) by residues mod 4 makes every preimage the whole carrier,
        # and grid(8) by (i + j) mod 5 ties classes across the grid: a class
        # finished first is met in whole by the growth of the others
        for x, class_of in (
            (chain(16), [p % 4 for p in range(16)]),
            (product(chain(8), chain(8)), [(p // 8 + p % 8) % 5 for p in range(64)]),
        ):
            perm = list(range(x.n))
            if seed is not None:
                x, perm = relabeled(x, seed)
            classes = [0] * x.n
            for p, c in enumerate(class_of):
                classes[perm[p]] = c
            part = Partition.from_class_of(classes)
            q = quotient(x, part)
            assert list(q.masks) == quotient_masks_by_fixpoint(x, part.class_of)
            assert len(set(q.masks)) < q.n

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_t0_quotient_equals_the_general_quotient(self, seed):
        x = product(blocks(4, 3), chain(4))
        if seed is not None:
            x, _ = relabeled(x, seed)
        x = Space(x.n, x.masks, tuple(f"v{p}" for p in range(x.n)))
        q, part = t0_quotient(x)
        general = quotient(x, part)
        assert q.masks == general.masks
        assert q.labels == general.labels is not None

import hashlib

import pytest

import finitetop.census
from finitetop.census import CensusRow, census, enumerate_spaces
from finitetop.core import relabel
from finitetop.errors import TooLarge

from oracles import count_preorders_bruteforce


class TestEnumerate:
    def test_counts_small(self):
        assert sum(1 for _ in enumerate_spaces(1)) == 1
        assert sum(1 for _ in enumerate_spaces(2)) == 4
        assert sum(1 for _ in enumerate_spaces(3)) == 29

    def test_counts_match_relation_filter(self):
        for n in (1, 2, 3):
            assert sum(1 for _ in enumerate_spaces(n)) == count_preorders_bruteforce(n)

    def test_no_duplicates(self):
        seen = set()
        for s in enumerate_spaces(3):
            assert s.masks not in seen
            seen.add(s.masks)

    def test_relabeling_closure(self):
        from itertools import permutations

        all_masks = {s.masks for s in enumerate_spaces(3)}
        for s in enumerate_spaces(3):
            for perm in permutations(range(3)):
                assert relabel(s, list(perm)).masks in all_masks

    def test_cap(self):
        with pytest.raises(TooLarge):
            list(enumerate_spaces(6))

    def test_deterministic_order(self):
        first = [s.masks for s in enumerate_spaces(3)]
        second = [s.masks for s in enumerate_spaces(3)]
        assert first == second

    def test_five_point_sequence_pinned(self):
        """The labeled spaces on five points, in yield order, as first recorded."""
        lines = [repr(s.masks) for s in enumerate_spaces(5)]
        assert len(lines) == 6942
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "7b430c0cc10257b557bead2c19083cff7d61526b89daf3de9312b61840463790"
        )


class TestCensus:
    def test_one_point(self):
        row = census(1)
        assert row.total_labeled == 1 and row.class_count == 1
        cls = row.per_class[0]
        assert (cls.min_x, cls.index_x) == (1, 1)

    def test_two_points(self):
        row = census(2)
        assert row.total_labeled == 4
        assert row.class_count == 3
        assert sorted(c.size for c in row.per_class) == [1, 1, 2]

    def test_three_points(self):
        row = census(3)
        assert row.total_labeled == 29
        assert row.class_count == 9
        assert sum(c.size for c in row.per_class) == 29

    def test_index_at_most_min_in_every_class(self):
        for n in (1, 2, 3):
            for cls in census(n).per_class:
                assert cls.index_x <= cls.min_x

    def test_members_of_a_class_share_invariants(self):
        from finitetop.core import canonical_form
        from finitetop.invariants import index_of, min_of

        by_class: dict[tuple, list] = {}
        for s in enumerate_spaces(3):
            by_class.setdefault(canonical_form(s).masks, []).append(s)
        row = census(3)
        assert len(by_class) == row.class_count
        for members in by_class.values():
            values = {(min_of(m)[0], index_of(m)) for m in members}
            assert len(values) == 1

    def test_result_type(self):
        assert isinstance(census(2), CensusRow)

    def test_rejects_zero_and_large(self):
        with pytest.raises(ValueError):
            census(0)
        with pytest.raises(TooLarge):
            census(6)

    def test_one_canonical_search_per_labeled_space(self, monkeypatch):
        calls = []
        search = finitetop.census.canonical_order

        def counted(masks):
            calls.append(masks)
            return search(masks)

        monkeypatch.setattr(finitetop.census, "canonical_order", counted)
        row = census(4)
        assert (row.total_labeled, row.class_count) == (355, 33)
        assert len(calls) == 355

"""The package's self-checks fire on a broken helper, with the typed error.

Each test monkeypatches one helper so that it returns a wrong result, as
a defect would, and asserts that the self-check behind it raises
``InternalError`` instead of letting the wrong answer through.  Where the
check sits under a CLI command, that command exits 3.
"""

from types import SimpleNamespace

import pytest

import finitetop._refine as refine
import finitetop.census
import finitetop.constructions
import finitetop.invariants
import finitetop.maps
from finitetop.cli import run
from finitetop.constructions import t0_quotient
from finitetop.core import from_neighborhoods
from finitetop.errors import InternalError
from finitetop.generators import chain, discrete
from finitetop.invariants import _Classes, _classify, report
from finitetop.maps import SpaceMap, find_homeomorphism, image_space

DISCRETE_TEXT = "space D\npoints a b\nnbhd a: a\nnbhd b: b\n"


def assert_report_exits_3(tmp_path, capsys, message):
    path = tmp_path / "d.space"
    path.write_text(DISCRETE_TEXT, encoding="utf-8")
    assert run(["report", str(path)]) == 3
    assert f"internal error: {message}" in capsys.readouterr().err


class TestCensus:
    @pytest.fixture(autouse=True)
    def miscounted_automorphisms(self, monkeypatch):
        search = finitetop.census.canonical_order

        def broken(masks):
            found = search(masks)
            return SimpleNamespace(encoding=found.encoding, aut=found.aut + 1)

        monkeypatch.setattr(finitetop.census, "canonical_order", broken)

    def test_a_wrong_aut_breaks_orbit_stabilizer(self):
        with pytest.raises(InternalError, match="canonicalization is broken"):
            finitetop.census.census(2)

    def test_the_cli_exits_3(self, capsys):
        assert run(["census", "2"]) == 3
        assert "canonicalization is broken" in capsys.readouterr().err


class TestReport:
    """Each consistency check of ``report``, on the discrete space on two points."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"maximal": [0b11]}, "index exceeds min"),
            ({"minimal": 0}, "a basic point is not irreducible"),
            ({"maximal": [0b01, 0b01]}, "the maximal neighborhoods do not cover the space"),
        ],
    )
    def test_inconsistent_classes(self, change, message, monkeypatch, tmp_path, capsys):
        def broken(space):
            return _Classes(**{**vars(_classify(space)), **change})

        monkeypatch.setattr(finitetop.invariants, "_classify", broken)
        with pytest.raises(InternalError, match=message):
            report(discrete(2))
        assert_report_exits_3(tmp_path, capsys, message)

    def test_hausdorff_disagreeing_with_discrete(self, monkeypatch, tmp_path, capsys):
        is_hausdorff = finitetop.invariants.is_hausdorff
        monkeypatch.setattr(finitetop.invariants, "is_hausdorff", lambda s: not is_hausdorff(s))
        message = "Hausdorff and discrete disagree"
        with pytest.raises(InternalError, match=message):
            report(discrete(2))
        assert_report_exits_3(tmp_path, capsys, message)


def test_t0_quotient_catches_repeated_packed_masks(monkeypatch):
    monkeypatch.setattr(finitetop.constructions, "pack", lambda masks, keep, n: [1] * len(masks))
    x = from_neighborhoods(3, [{0, 1}, {0, 1}, {2}])
    with pytest.raises(InternalError, match="share a neighborhood"):
        t0_quotient(x)


def test_image_space_catches_a_wrong_subspace(monkeypatch):
    monkeypatch.setattr(finitetop.maps, "subspace", lambda space, points: discrete(points.size))
    m = SpaceMap(chain(2), chain(2), (0, 1))
    with pytest.raises(InternalError, match="image neighborhoods"):
        image_space(m)


def test_find_homeomorphism_catches_a_wrong_least_map(monkeypatch):
    least_map = refine.least_map
    monkeypatch.setattr(refine, "least_map", lambda *args: least_map(*args)[::-1])
    with pytest.raises(InternalError, match="not a homeomorphism"):
        find_homeomorphism(chain(3), chain(3))

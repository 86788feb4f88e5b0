"""Argument errors are typed, never a bare ``ValueError``.

``InvalidArgument`` subclasses both ``FinitetopError`` and ``ValueError``,
so a caller can catch every refusal of the package in one clause while
older ``except ValueError`` code keeps working.  A bare ``ValueError``
would slip past the first of these.
"""

import ast
from pathlib import Path

import pytest

import finitetop
from finitetop.cli import SpaceDocument, serialize
from finitetop.constructions import Partition, product_n, subspace
from finitetop.core import PointSet, Space, from_neighborhoods, from_preorder, is_open, relabel
from finitetop.errors import InvalidArgument
from finitetop.generators import chain
from finitetop.maps import GlueData, SpaceMap

PACKAGE = Path(finitetop.__file__).resolve().parent


def _raises(path: Path) -> list[ast.Raise]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]


#: Every module of the package that raises anything.
MODULES = [
    path.relative_to(PACKAGE).as_posix() for path in sorted(PACKAGE.rglob("*.py")) if _raises(path)
]


def _raises_value_error(node: ast.Raise) -> bool:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def test_every_raising_module_is_linted():
    expected = "_refine census cli constructions core generators invariants maps".split()
    assert {f"{name}.py" for name in expected} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_raises_no_bare_value_error(module):
    assert [n.lineno for n in _raises(PACKAGE / module) if _raises_value_error(n)] == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: Partition(2, (0,), 1),
        lambda: Partition(2, (0, 2), 2),
        lambda: Partition(2, (0, 0), 2),
        lambda: Partition(2, (1, 0), 2),
        lambda: Partition.from_blocks(2, [[0, 2]]),
        lambda: Partition.from_blocks(2, [[0, 1], [1]]),
        lambda: Partition.from_blocks(2, [[0]]),
        lambda: product_n([]),
        lambda: subspace(chain(3), PointSet(2, 0b11)),
        lambda: PointSet(-1, 0),
        lambda: PointSet(2, 0b100),
        lambda: PointSet.from_points(2, [2]),
        lambda: PointSet(2, 1).union(PointSet(3, 1)),
        lambda: Space(1, (1, 1)),
        lambda: Space(1, (1,), ("a", "b")),
        lambda: from_neighborhoods(2, [{0}]),
        lambda: from_preorder(2, [(0, 2)]),
        lambda: is_open(chain(2), PointSet(3, 1)),
        lambda: relabel(chain(2), [0, 0]),
        lambda: SpaceMap(chain(2), chain(2), (0,)),
        lambda: SpaceMap(chain(2), chain(2), (0, 2)),
        lambda: GlueData.build([(0, 0)], []),
        lambda: serialize(SpaceDocument("a b", ("x",), (("x",),))),
    ],
    ids=[
        "short-class-of",
        "class-id-out-of-range",
        "unused-class-id",
        "unordered-class-ids",
        "block-point-out-of-range",
        "point-in-two-blocks",
        "point-in-no-block",
        "empty-product",
        "subspace-size-mismatch",
        "negative-carrier",
        "mask-outside-carrier",
        "point-outside-carrier",
        "pointset-size-mismatch",
        "space-mask-count",
        "space-label-count",
        "neighborhood-count",
        "preorder-pair-outside-carrier",
        "open-test-size-mismatch",
        "relabel-not-a-permutation",
        "map-length",
        "map-image-outside-target",
        "glue-data-counts",
        "illegal-document-name",
    ],
)
def test_argument_errors_are_typed_and_still_value_errors(build):
    with pytest.raises(InvalidArgument) as info:
        build()
    assert isinstance(info.value, ValueError)

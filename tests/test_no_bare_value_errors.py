"""Argument errors in the constructions are typed, never a bare ``ValueError``.

``InvalidArgument`` subclasses both ``FinitetopError`` and ``ValueError``,
so a caller can catch every refusal of the package in one clause while
older ``except ValueError`` code keeps working.  A bare ``ValueError``
would slip past the first of these.
"""

import ast
from pathlib import Path

import pytest

import finitetop
from finitetop.constructions import Partition, product_n, subspace
from finitetop.core import PointSet
from finitetop.errors import InvalidArgument
from finitetop.generators import chain

CONSTRUCTIONS = Path(finitetop.__file__).resolve().parent / "constructions.py"


def _raises_value_error(node: ast.Raise) -> bool:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def test_constructions_raise_no_bare_value_error():
    tree = ast.parse(CONSTRUCTIONS.read_text(encoding="utf-8"))
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert raises
    assert [n.lineno for n in raises if _raises_value_error(n)] == []


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
    ],
)
def test_argument_errors_are_typed_and_still_value_errors(build):
    with pytest.raises(InvalidArgument) as info:
        build()
    assert isinstance(info.value, ValueError)

"""The errors that name witness points, pinned message by message.

For fixed witnesses each row gives the message and the attribute dict
that the hand-written constructors of these eight classes produced, and
the message ``describe`` writes when every witness is replaced by a
label, as the CLI does.
"""

import pytest

from finitetop.errors import (
    FinitetopError,
    MinimalityViolation,
    NoMinimalSet,
    NotContinuous,
    NotCovered,
    NotOpen,
    NotReflexive,
    NotWellDefined,
    ReflexivityViolation,
)

CASES = [
    (
        ReflexivityViolation(3),
        "point 3 is not a member of its own neighborhood",
        {"point": 3},
        "point 'L3' is not a member of its own neighborhood",
    ),
    (
        MinimalityViolation(3, 5),
        "point 5 lies in the neighborhood of 3, but its own neighborhood is not contained there",
        {"point": 3, "member": 5},
        "point 'L5' lies in the neighborhood of 'L3', "
        "but its own neighborhood is not contained there",
    ),
    (
        NotCovered(3),
        "no set of the family contains point 3",
        {"point": 3},
        "no set of the family contains point 'L3'",
    ),
    (
        NoMinimalSet(3),
        "the family has no minimal member around point 3: "
        "the intersection of its containing sets is not in the family",
        {"point": 3},
        "the family has no minimal member around point 'L3': "
        "the intersection of its containing sets is not in the family",
    ),
    (
        NotReflexive(3),
        "relation is missing the pair (3, 3)",
        {"point": 3},
        "relation is missing the pair ('L3', 'L3')",
    ),
    (
        NotContinuous(3),
        "map is not continuous at source point 3",
        {"point": 3},
        "map is not continuous at source point 'L3'",
    ),
    (
        NotOpen(3),
        "image of the neighborhood of point 3 is not open in the image",
        {"point": 3},
        "image of the neighborhood of point 'L3' is not open in the image",
    ),
    (
        NotWellDefined(3),
        "local maps disagree at point 3",
        {"point": 3},
        "local maps disagree at point 'L3'",
    ),
]


@pytest.mark.parametrize(
    "err, message, attrs, labeled", CASES, ids=[type(c[0]).__name__ for c in CASES]
)
def test_point_witness_errors(err, message, attrs, labeled):
    assert isinstance(err, FinitetopError)
    assert str(err) == message
    assert err.args == (message,)
    assert vars(err) == attrs
    assert err.describe(lambda p: f"'L{p}'") == labeled


def test_witness_count_is_checked():
    """A missing or extra witness point is rejected, not silently dropped."""
    with pytest.raises(ValueError):
        MinimalityViolation(3)
    with pytest.raises(ValueError):
        NotWellDefined(3, 4)

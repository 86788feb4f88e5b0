"""The errors that carry witness data, pinned message by message.

For fixed witnesses each row gives the message and the attribute dict
that the hand-written constructors of these classes produced.  For the
errors that name points, it also gives the message ``describe`` writes
when every witness is replaced by a label, as the CLI does.
"""

import pytest

from finitetop.errors import (
    EmptySpace,
    FinitetopError,
    MinimalityViolation,
    NoMinimalSet,
    NotATopology,
    NotContinuous,
    NotCovered,
    NotOpen,
    NotReflexive,
    NotTransitive,
    NotWellDefined,
    ParseError,
    PartitionMismatch,
    ReflexivityViolation,
    ResultNotHomeomorphism,
    SearchBudgetExceeded,
    SizeOverflow,
    TooLarge,
    TooManyOpenSets,
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
    """A missing or extra witness value is rejected, not silently dropped."""
    with pytest.raises(ValueError):
        MinimalityViolation(3)
    with pytest.raises(ValueError):
        NotWellDefined(3, 4)
    with pytest.raises(ValueError):
        SizeOverflow(5000)
    with pytest.raises(ValueError):
        EmptySpace(0)


DATA_CASES = [
    (
        NotATopology("union of members 0x1 and 0x2 is missing", 3),
        "union of members 0x1 and 0x2 is missing",
        {"reason": "union of members 0x1 and 0x2 is missing", "missing_bits": 3},
    ),
    (
        NotTransitive(1, 2, 3),
        "relation contains (1, 2) and (2, 3) but not (1, 3)",
        {"triple": (1, 2, 3)},
    ),
    (
        TooManyOpenSets(64),
        "open-set enumeration exceeds the limit of 64 sets",
        {"limit": 64},
    ),
    (
        SizeOverflow(5000, 4096),
        "resulting carrier would have 5000 points (bound 4096)",
        {"size": 5000, "bound": 4096},
    ),
    (
        PartitionMismatch(3, 4),
        "partition is over 4 points, space has 3",
        {"expected": 3, "got": 4},
    ),
    (
        SearchBudgetExceeded(100),
        "search exceeded its node budget of 100",
        {"budget": 100},
    ),
    (
        ResultNotHomeomorphism(),
        "assembled map failed the final homeomorphism verification",
        {},
    ),
    (
        EmptySpace(),
        "invariant is undefined on the empty space",
        {},
    ),
    (
        TooLarge(7, 6),
        "exhaustive enumeration is capped at 6 points (got 7)",
        {"n": 7, "cap": 6},
    ),
    (
        ParseError(2, 10, "duplicate label 'a'"),
        "line 2, column 10: duplicate label 'a'",
        {"line": 2, "column": 10, "message": "duplicate label 'a'"},
    ),
]


@pytest.mark.parametrize(
    "err, message, attrs", DATA_CASES, ids=[type(c[0]).__name__ for c in DATA_CASES]
)
def test_data_errors(err, message, attrs):
    assert isinstance(err, FinitetopError)
    assert str(err) == message
    assert err.args == (message,)
    assert vars(err) == attrs


def test_one_constructor_and_only_point_errors_describe():
    """Only NotTransitive writes its own constructor; only point witnesses relabel."""
    point_errors = {type(row[0]) for row in CASES}
    for cls in point_errors | {type(row[0]) for row in DATA_CASES}:
        assert ("__init__" in vars(cls)) == (cls is NotTransitive)
        assert hasattr(cls, "describe") == (cls in point_errors)

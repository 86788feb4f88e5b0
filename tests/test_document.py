"""The space document format: parse errors, round trips and to_space checks."""

import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finitetop.cli import SpaceDocument, parse, serialize, space_to_document
from finitetop.core import Space
from finitetop.errors import ParseError, ValidationError

from strategies import spaces

H = "space S\npoints a b c\n"

# One malformed document per ParseError message, with the (line, column,
# message) each one has always produced.  Lines are also separated by tabs,
# NO-BREAK SPACE, IDEOGRAPHIC SPACE and UNIT SEPARATOR, all whitespace to
# str.split, and several errors sit past the first token of their line.
ERRORS = [
    ("space S\nspace T\n", 2, 1, "duplicate space record"),
    ("space\n", 1, 1, "expected: space NAME"),
    ("space S T\n", 1, 1, "expected: space NAME"),
    ("space a:b\n", 1, 7, "illegal name 'a:b'"),
    ("  space\tS#\n", 1, 9, "illegal name 'S#'"),
    ("points a\n", 1, 1, "points record before space record"),
    ("space S\npoints a\npoints a\n", 3, 1, "duplicate points record"),
    ("space S\npoints a b:c d\n", 2, 10, "illegal label 'b:c'"),
    ("space S\npoints a b #c\n", 2, 12, "illegal label '#c'"),
    ("space S\npoints a b c b a\n", 2, 14, "duplicate point label 'b'"),
    ("space S\npoints a b\ta\n", 2, 12, "duplicate point label 'a'"),
    ("space\xa0S\npoints\u3000a\tb\x1fa\n", 2, 12, "duplicate point label 'a'"),
    ("space S\nnbhd a: a\n", 2, 1, "nbhd record before points record"),
    (H + "nbhd a\n", 3, 1, "expected: nbhd LABEL: MEMBERS..."),
    (H + "nbhd\n", 3, 1, "expected: nbhd LABEL: MEMBERS..."),
    (H + "nbhd a a\n", 3, 1, "expected: nbhd LABEL: MEMBERS..."),
    (H + "nbhd z: z\n", 3, 6, "undeclared point 'z'"),
    (H + "nbhd : a\n", 3, 6, "undeclared point ''"),
    (H + "nbhd a: a\nnbhd a: a\n", 4, 6, "duplicate nbhd record for 'a'"),
    ("space S\r\npoints a\r\nnbhd a: a\r\nnbhd a: a\r\n", 4, 6, "duplicate nbhd record for 'a'"),
    (H + "nbhd a: a z\n", 3, 11, "undeclared point 'z'"),
    (H + "nbhd c: a b c d\n", 3, 15, "undeclared point 'd'"),
    (H + "nbhd c: a b a c\n", 3, 13, "repeated member 'a'"),
    (H + "nbhd c: a b c\tb\n", 3, 15, "repeated member 'b'"),
    (H + "nbhd c: a a z\n", 3, 11, "repeated member 'a'"),
    (H + "nbhd c: z a a\n", 3, 9, "undeclared point 'z'"),
    (H + "   \t nbhd\xa0c:\u3000a\x1fz\n", 3, 16, "undeclared point 'z'"),
    (H + "nbhd\x1fc:\x1fa\x1fb\x1fc\x1fc\n", 3, 15, "repeated member 'c'"),
    (H + "nbhd\u3000c:\u3000a\u3000q\n", 3, 11, "undeclared point 'q'"),
    (H + "frobnicate x\n", 3, 1, "unknown record 'frobnicate'"),
    ("\t\tbogus\n", 1, 3, "unknown record 'bogus'"),
    ("", 1, 1, "missing space record"),
    ("# only a comment\n\n", 3, 1, "missing space record"),
    ("space S\n", 2, 1, "missing points record"),
    (H + "nbhd a: a\nnbhd b: b\n", 5, 1, "missing nbhd record for 'c'"),
    (H + "nbhd a: a\nnbhd b: b\n# trailing\n\n", 7, 1, "missing nbhd record for 'c'"),
]


@pytest.mark.parametrize("text, line, column, message", ERRORS)
def test_parse_error_position_and_message(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)


def test_split_and_token_pattern_agree_on_whitespace():
    # parse splits with str.split and finds columns with \S+ only on error
    every = [chr(c) for c in range(sys.maxunicode + 1)]
    space_re = re.compile(r"\s")
    assert [c for c in every if c.isspace()] == [c for c in every if space_re.match(c)]


SEPARATORS = [" ", "  ", "\t", "\xa0", "\u3000", "\x1f"]
LABEL_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="#:").filter(
    lambda c: not c.isspace()
)


@st.composite
def documents(draw):
    """A random space under random legal labels, as a canonical document."""
    space = draw(spaces())
    labels = draw(
        st.lists(
            st.text(LABEL_CHARS, min_size=1, max_size=4),
            min_size=space.n,
            max_size=space.n,
            unique=True,
        )
    )
    name = draw(st.text(LABEL_CHARS, min_size=1, max_size=6))
    return space, space_to_document(Space(space.n, space.masks, labels), name)


@given(documents())
def test_parse_and_serialize_are_inverse(case):
    space, doc = case
    text = serialize(doc)
    assert parse(text) == doc
    assert serialize(parse(text)) == text
    assert parse(text).to_space().masks == space.masks


@given(documents(), st.data())
def test_any_whitespace_and_member_order_parse_alike(case, data):
    _, doc = case

    def sep():
        return data.draw(st.sampled_from(SEPARATORS))

    lines = [f"space{sep()}{doc.name}", sep().join(["points", *doc.points])]
    rows = []
    for lab, members in zip(doc.points, doc.neighborhoods):
        row = data.draw(st.permutations(members))
        rows.append(tuple(row))
        lines.append(sep().join([f"nbhd{sep()}{lab}:", *row]))
    order = data.draw(st.permutations(range(len(lines) - 2)))
    text = "\n".join(lines[:2] + [lines[2 + i] for i in order]) + "\n"
    got = parse(text)
    assert got == SpaceDocument(doc.name, doc.points, tuple(rows))
    assert got.to_space() == doc.to_space()
    assert serialize(got) == serialize(doc)


def test_row_members_are_the_declared_strings():
    # labels longer than one character, which str.split never shares
    doc = parse(
        "space S\npoints p10 p11 p12\nnbhd p10: p10\nnbhd p11: p10 p11\nnbhd p12: p12 p10\n"
    )
    declared = {lab: lab for lab in doc.points}
    assert all(m is declared[m] for row in doc.neighborhoods for m in row)


class TestToSpaceErrors:
    """A hand-built document fails with a ValidationError naming the label."""

    @pytest.mark.parametrize(
        "points, nbhds, needle",
        [
            (("a",), (("z",),), "undeclared point 'z' in the neighborhood of 'a'"),
            (("a", "b"), (("a", "a"), ("b",)), "repeated member 'a' in the neighborhood of 'a'"),
            (("a", "b"), (("a",), ("b", "a", "b")), "repeated member 'b' in the neighborhood of 'b'"),
            (("a", "b"), (("a",),), "no neighborhood for point 'b'"),
            (("a",), (("a",), ("a",)), "2 neighborhoods for 1 points"),
            (("a", "b", "a"), (("a",), ("b",), ("a",)), "duplicate point label 'a'"),
            (("a", "b"), (("a", "b"), ("a",)), "point 'b' is not a member of its own"),
        ],
    )
    def test_error(self, points, nbhds, needle):
        with pytest.raises(ValidationError) as exc:
            SpaceDocument("S", points, nbhds).to_space()
        assert needle in str(exc.value)

    def test_minimality_witnesses_named_by_label(self):
        doc = SpaceDocument("S", ("a", "b", "c"), (("a", "b"), ("b", "c"), ("c",)))
        with pytest.raises(ValidationError) as exc:
            doc.to_space()
        assert str(exc.value) == (
            "point 'b' lies in the neighborhood of 'a', "
            "but its own neighborhood is not contained there"
        )

    def test_members_in_any_order(self):
        doc = SpaceDocument("S", ("a", "b"), (("a",), ("b", "a")))
        assert doc.to_space().masks == (1, 3)


"""Value semantics of the package's immutable classes.

Each class writes its own ``__init__`` and inherits ``==``, ``hash``,
``repr`` and read-only attributes from ``finitetop._value.Value``.  These
tests pin what callers see: construction by position and keyword with
the defaults, field-wise equality and hashing, read-only fields, the
``Name(field=value, ...)`` repr text, the unchecked ``_of`` builders,
cached properties, and copy / pickle round trips.
"""

import copy
import pickle

import pytest

from finitetop._refine import canonical_order
from finitetop.census import CensusClass, CensusRow, census
from finitetop.cli import SpaceDocument, parse
from finitetop.constructions import Partition
from finitetop.core import PointSet, Space, SubsetFamily
from finitetop.generators import GeneratorKind, GeneratorSpec, chain
from finitetop.invariants import InvariantReport, _Classes, _classify, report
from finitetop.maps import GlueData, SpaceMap

SIERP = Space(2, (1, 3))
SIERP_TEXT = "space S\npoints a b\nnbhd a: a\nnbhd b: a b\n"


def instances():
    """(name, build) for every class; build() makes a fresh, equal instance each call."""
    return [
        ("PointSet", lambda: PointSet(4, 5)),
        ("SubsetFamily", lambda: SubsetFamily.of(3, [[0], [1, 2]])),
        ("Space", lambda: Space(2, (1, 3), ("a", "b"))),
        ("Partition", lambda: Partition.from_blocks(3, [[0, 2], [1]])),
        ("SpaceMap", lambda: SpaceMap(Space(2, (1, 3)), Space(2, (1, 3)), (0, 1))),
        ("GlueData", lambda: GlueData.build([(0, 0)], [{0: 0}])),
        ("InvariantReport", lambda: report(chain(3))),
        ("_Classes", lambda: _classify(chain(3))),
        ("SearchResult", lambda: canonical_order((1, 3, 7))),
        ("GeneratorSpec", lambda: GeneratorSpec(kind="chain", length=3)),
        ("GeneratorKind", lambda: GeneratorKind(len, ("a",), (), str)),
        ("CensusClass", lambda: census(2).per_class[1]),
        ("CensusRow", lambda: census(2)),
        ("SpaceDocument", lambda: parse(SIERP_TEXT)),
    ]


UNHASHABLE = {"_Classes"}  # holds a dict and a list, as it always has

#: repr text of every class without its own ``__repr__``.
REPRS = [
    (
        lambda: SubsetFamily.of(3, [[0], [1, 2]]),
        "SubsetFamily(carrier_size=3, sets=(PointSet(3, {0}), PointSet(3, {1, 2})))",
    ),
    (lambda: SIERP, "Space(n=2, masks=(1, 3), labels=None)"),
    (lambda: Space(2, (1, 3), ("a", "b")), "Space(n=2, masks=(1, 3), labels=('a', 'b'))"),
    (
        lambda: Partition.from_blocks(3, [[0, 2], [1]]),
        "Partition(carrier_size=3, class_of=(0, 1, 0), k=2)",
    ),
    (
        lambda: SpaceMap(SIERP, SIERP, (0, 1)),
        "SpaceMap(source=Space(n=2, masks=(1, 3), labels=None), "
        "target=Space(n=2, masks=(1, 3), labels=None), f=(0, 1))",
    ),
    (
        lambda: GlueData.build([(0, 0)], [{0: 0}]),
        "GlueData(neighborhood_bijection=((0, 0),), local_maps=(((0, 0),),))",
    ),
    (
        lambda: report(SIERP),
        "InvariantReport(n=2, distinct_neighborhoods=2, min_x=1, index_x=1, "
        "maximal_nbhds=(PointSet(2, {0, 1}),), basic_points=PointSet(2, {0}), "
        "irreducible_points=PointSet(2, {0}), is_discrete=False, is_hausdorff=False, "
        "is_t0=True)",
    ),
    (
        lambda: _classify(SIERP),
        "_Classes(owners={1: 1, 3: 2}, minimal=1, basic=1, maximal=[3], reps=1)",
    ),
    (
        lambda: canonical_order(SIERP.masks),
        "SearchResult(order=(0, 1), generators=(), aut=1, encoding=(1, 3), base=(), "
        "individualizations=0, leaves=1, leaf_automorphisms=0, twin_swaps=0, class_swaps=0, "
        "orbit_skips=0)",
    ),
    (
        lambda: GeneratorSpec(kind="chain", length=3),
        "GeneratorSpec(kind='chain', length=3, block_count=0, block_size=0, bound=0, "
        "with_top=False, size=0, seed=0, density=0.5)",
    ),
    (
        lambda: GeneratorKind(len, ("a",), (), str),
        "GeneratorKind(build=<built-in function len>, params=('a',), flags=(), "
        "name=<class 'str'>)",
    ),
    (
        lambda: census(2).per_class[0],
        "CensusClass(representative=Space(n=2, masks=(1, 2), labels=None), size=1, "
        "min_x=2, index_x=2)",
    ),
    (
        lambda: census(2),
        "CensusRow(n=2, total_labeled=4, class_count=3, per_class=("
        "CensusClass(representative=Space(n=2, masks=(1, 2), labels=None), size=1, "
        "min_x=2, index_x=2), "
        "CensusClass(representative=Space(n=2, masks=(1, 3), labels=None), size=2, "
        "min_x=1, index_x=1), "
        "CensusClass(representative=Space(n=2, masks=(3, 3), labels=None), size=1, "
        "min_x=1, index_x=1)))",
    ),
    (
        lambda: parse(SIERP_TEXT),
        "SpaceDocument(name='S', points=('a', 'b'), neighborhoods=(('a',), ('a', 'b')))",
    ),
]


def test_every_value_class_is_covered():
    classes = {
        PointSet, SubsetFamily, Space, Partition, SpaceMap, GlueData, InvariantReport,
        _Classes, type(canonical_order((1,))), GeneratorSpec, GeneratorKind, CensusClass,
        CensusRow, SpaceDocument,
    }
    assert {type(build()) for _, build in instances()} == classes
    assert {type(build()) for build, _ in REPRS} == classes - {PointSet}


class TestConstruction:
    def test_point_set_defaults_and_keywords(self):
        assert PointSet(4) == PointSet(4, 0) == PointSet(size=4) == PointSet(bits=0, size=4)
        assert PointSet(4).bits == 0
        assert repr(PointSet(4, 5)) == "PointSet(4, {0, 2})"

    def test_space_defaults_and_normalization(self):
        s = Space(2, [1, 3])
        assert s.labels is None and s.masks == (1, 3) and type(s.masks) is tuple
        assert Space(n=2, masks=(1, 3), labels=["a", "b"]).labels == ("a", "b")
        assert s == Space(2, (1, 3), None)

    def test_generator_spec_defaults(self):
        spec = GeneratorSpec(kind="chain", length=3)
        assert (spec.kind, spec.length, spec.block_count, spec.block_size, spec.bound) == (
            "chain", 3, 0, 0, 0,
        )
        assert (spec.with_top, spec.size, spec.seed, spec.density) == (False, 0, 0, 0.5)
        assert spec == GeneratorSpec("chain", 3)
        assert spec.build() == chain(3)

    def test_invariant_report_from_keywords(self):
        rep = report(chain(4))
        fields = {
            name: getattr(rep, name)
            for name in (
                "n", "distinct_neighborhoods", "min_x", "index_x", "maximal_nbhds",
                "basic_points", "irreducible_points", "is_discrete", "is_hausdorff", "is_t0",
            )
        }
        assert InvariantReport(**fields) == rep
        assert InvariantReport(*fields.values()) == rep

    def test_positional_and_keyword_agree(self):
        assert SpaceMap(SIERP, SIERP, (0, 1)) == SpaceMap(source=SIERP, target=SIERP, f=(0, 1))
        assert Partition(3, (0, 1, 0), 2) == Partition(carrier_size=3, class_of=(0, 1, 0), k=2)
        doc = SpaceDocument("S", ("a", "b"), (("a",), ("a", "b")))
        assert doc == SpaceDocument(name="S", points=("a", "b"),
                                    neighborhoods=(("a",), ("a", "b")))
        assert doc == parse(SIERP_TEXT)
        row = census(2)
        assert CensusRow(row.n, row.total_labeled, row.class_count, row.per_class) == row
        c = row.per_class[0]
        assert CensusClass(
            representative=c.representative, size=c.size, min_x=c.min_x, index_x=c.index_x
        ) == c


class TestEquality:
    @pytest.mark.parametrize("name, build", instances(), ids=[n for n, _ in instances()])
    def test_equal_instances_are_equal_and_hash_equally(self, name, build):
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    @pytest.mark.parametrize("name, build", instances(), ids=[n for n, _ in instances()])
    def test_another_type_is_unequal(self, name, build):
        a = build()
        assert a != object() and not a == object()
        assert a != tuple(vars(a).values())

    def test_fields_decide_equality(self):
        assert PointSet(3, 1) != (3, 1)
        assert PointSet(3, 1) != PointSet(3, 2)
        assert PointSet(3, 1) != PointSet(4, 1)
        assert Space(2, (1, 3)) != Space(2, (1, 3), ("a", "b"))
        assert GeneratorSpec("chain", 3) != GeneratorSpec("chain", 3, density=0.25)
        assert report(chain(3)) != report(chain(4))

    @pytest.mark.parametrize(
        "from_lists, from_tuples",
        [
            (lambda: SpaceMap(SIERP, SIERP, [0, 1]), lambda: SpaceMap(SIERP, SIERP, (0, 1))),
            (lambda: Partition(2, [0, 1], 2), lambda: Partition(2, (0, 1), 2)),
            (lambda: GlueData([[0, 0]], [[[0, 0]]]), lambda: GlueData(((0, 0),), (((0, 0),),))),
            (
                lambda: SubsetFamily(2, [PointSet(2, 1)]),
                lambda: SubsetFamily(2, (PointSet(2, 1),)),
            ),
            (
                lambda: SpaceDocument("S", ["a"], [["a"]]),
                lambda: SpaceDocument("S", ("a",), (("a",),)),
            ),
        ],
        ids=["SpaceMap", "Partition", "GlueData", "SubsetFamily", "SpaceDocument"],
    )
    def test_sequence_fields_are_stored_as_tuples(self, from_lists, from_tuples):
        a, b = from_lists(), from_tuples()
        assert a == b and hash(a) == hash(b)

    def test_hash_is_the_field_tuple_hash(self):
        assert hash(PointSet(3, 1)) == hash((3, 1))
        assert hash(SIERP) == hash((2, (1, 3), None))


class TestReadOnly:
    @pytest.mark.parametrize("name, build", instances(), ids=[n for n, _ in instances()])
    def test_assigning_or_deleting_raises(self, name, build):
        obj = build()
        field = next(iter(vars(obj)))
        before = getattr(obj, field)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(obj, field, None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(obj, field)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            obj.extra = 1
        assert getattr(obj, field) is before


@pytest.mark.parametrize("build, text", REPRS)
def test_repr_text(build, text):
    assert repr(build()) == text


class TestUncheckedBuilders:
    def test_space_of_equals_validated_space(self):
        assert Space._of(2, (1, 3)) == SIERP
        assert hash(Space._of(2, (1, 3))) == hash(SIERP)
        labeled = Space(2, (1, 3), ("a", "b"))
        assert Space._of(2, (1, 3), ("a", "b")) == labeled
        assert repr(Space._of(2, (1, 3))) == repr(SIERP)

    def test_partition_of_equals_checked_partition(self):
        assert Partition._of(3, (0, 1, 0), 2) == Partition(3, (0, 1, 0), 2)


class TestCachedProperties:
    def test_values_are_cached_and_not_fields(self):
        s, t = Space(3, (1, 3, 7)), Space(3, (1, 3, 7))
        assert s.nbhd is s.nbhd
        assert s.distinct_masks is s.distinct_masks
        assert s.nbhd == (PointSet(3, 1), PointSet(3, 3), PointSet(3, 7))
        assert s == t and hash(s) == hash(t)  # t has no cached values
        assert repr(s) == repr(t)

    def test_document_index_is_cached(self):
        doc = parse(SIERP_TEXT)
        assert doc._index is doc._index
        assert doc._index == {"a": 0, "b": 1}
        assert doc == parse(SIERP_TEXT)


class TestCopyAndPickle:
    @pytest.mark.parametrize("name, build", instances(), ids=[n for n, _ in instances()])
    def test_round_trips(self, name, build):
        obj = build()
        for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(other) is type(obj)
            assert other == obj
            assert repr(other) == repr(obj)

    def test_cached_values_survive_a_round_trip(self):
        s = Space(2, (1, 3))
        nbhd = s.nbhd
        back = pickle.loads(pickle.dumps(s))
        assert back == s and back.nbhd == nbhd
        with pytest.raises(AttributeError):
            back.n = 3

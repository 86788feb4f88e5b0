"""Command-line front end and the space document format.

Document grammar (UTF-8, line oriented, newline terminated)::

    # comment lines start with '#'; blank lines are ignored
    space NAME
    points L1 L2 ...
    nbhd L1: M1 M2 ...
    nbhd L2: ...

Tokens are whitespace separated; labels may not contain whitespace,
``#`` or ``:``.  A canonical document lists points in id order and each
neighborhood's members in id order, using single spaces; serialization
always emits canonical documents, so parse and serialize are mutually
inverse on them.

Glue data files use two record kinds::

    pair XREP YREP      # the neighborhood of XREP corresponds to that of YREP
    send XMEM YMEM      # local map entry for the most recent pair

Exit codes: 0 success, 1 negative answer (not continuous, not
homeomorphic, invalid space under ``validate``, glue rejection), 2 input
error (a ``FinitetopError`` such as a bad document, argument or size
guard, or an unreadable file), 3 internal error (an ``InternalError``
self-check or any other exception; its traceback is printed).
Setting the environment variable FINITETOP_VERBOSE prints tracebacks for
input errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Sequence
from functools import cached_property, reduce
from operator import or_

from ._refine import iter_bits
from ._value import Value
from .census import CENSUS_CAP, census
from .constructions import Partition, disjoint_sum, product, quotient, subspace, t0_quotient
from .core import PointSet, Space
from .errors import (
    FinitetopError,
    InternalError,
    InvalidArgument,
    NotWellDefined,
    ParseError,
    ResultNotHomeomorphism,
    ValidationError,
)
from .generators import GENERATOR_KINDS, GeneratorSpec
from .invariants import InvariantReport, _classify, report
from .maps import GlueData, SpaceMap, find_homeomorphism, glue, is_continuous

_LABEL_RE = re.compile(r"[^\s#:]+\Z")
_TOKEN_RE = re.compile(r"\S+")


class SpaceDocument(Value):
    """A named space given by point labels and per-point neighborhood labels."""

    def __init__(
        self, name: str, points: tuple[str, ...], neighborhoods: tuple[tuple[str, ...], ...]
    ) -> None:
        self.__dict__.update(name=name, points=points, neighborhoods=neighborhoods)

    @cached_property
    def _index(self) -> dict[str, int]:
        """Each point label's id (the last one, should a label repeat)."""
        return {lab: i for i, lab in enumerate(self.points)}

    def to_space(self) -> Space:
        """The validated space; every defect of the document is a ValidationError."""
        n = len(self.points)
        index = self._index
        if len(index) != n:
            raise ValidationError(f"duplicate point label {_first_repeat(self.points)!r}")
        if len(self.neighborhoods) < n:
            missing = self.points[len(self.neighborhoods)]
            raise ValidationError(f"no neighborhood for point {missing!r}")
        if len(self.neighborhoods) > n:
            raise ValidationError(f"{len(self.neighborhoods)} neighborhoods for {n} points")
        bit = {lab: 1 << i for lab, i in index.items()}  # one lookup per member, not two
        masks = []
        for lab, members in zip(self.points, self.neighborhoods):
            try:
                mask = reduce(or_, map(bit.__getitem__, members), 0)
            except KeyError as err:
                raise ValidationError(
                    f"undeclared point {err.args[0]!r} in the neighborhood of {lab!r}"
                ) from None
            if mask.bit_count() != len(members):  # some member is repeated
                raise ValidationError(
                    f"repeated member {_first_repeat(members)!r} "
                    f"in the neighborhood of {lab!r}"
                )
            masks.append(mask)
        try:
            return Space(n, tuple(masks), self.points)
        except FinitetopError as err:
            raise ValidationError(_relabel_error(err, self.points)) from err


def _first_repeat(items: Sequence[str]) -> str | None:
    seen: set[str] = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def _relabel_error(err: FinitetopError, labels: Sequence[str]) -> str:
    describe = getattr(err, "describe", None)
    if describe is None:
        return str(err)
    return describe(lambda p: f"'{labels[p]}'")


def _check_label(label: str) -> None:
    if not _LABEL_RE.match(label):
        raise InvalidArgument(f"illegal label {label!r}")


def space_to_document(space: Space, name: str) -> SpaceDocument:
    labels = tuple(map(space.label_of, range(space.n)))
    nbhds = tuple(tuple(labels[y] for y in iter_bits(m)) for m in space.masks)
    return SpaceDocument(name, labels, nbhds)


def serialize(doc: SpaceDocument) -> str:
    """Canonical text for a document: id order everywhere, single spaces."""
    _check_label(doc.name)
    for lab in doc.points:
        _check_label(lab)
    index = doc._index
    lines = [f"space {doc.name}"]
    lines.append(" ".join(["points", *doc.points]).rstrip())
    for lab, members in zip(doc.points, doc.neighborhoods):
        ordered = sorted(members, key=index.__getitem__)
        lines.append(" ".join([f"nbhd {lab}:", *ordered]).rstrip())
    return "\n".join(lines) + "\n"


def _fail(lineno: int, raw: str, i: int, message: str) -> ParseError:
    """The ParseError at token ``i`` of the line, for the caller to raise.

    Columns are found only here.  ``raw.split()`` and ``_TOKEN_RE`` split
    on the same characters, so token ``i`` of the one is token ``i`` of
    the other.
    """
    starts = [m.start() + 1 for m in _TOKEN_RE.finditer(raw)]
    return ParseError(lineno, starts[i], message)


def parse(text: str) -> SpaceDocument:
    """Parse a space document; raises ParseError with line and column.

    Runs in time linear in the document: each line is split once, labels
    are looked up in a dict, and a record is walked token by token only
    when a whole-row test has already found an error in it.  The dict
    maps each declared label to itself, so every row member is stored as
    the string in ``points``: the document holds one string per label.
    """
    name: str | None = None
    points: tuple[str, ...] | None = None
    declared: dict[str, str] = {}
    nbhds: dict[str, tuple[str, ...]] = {}
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        head = toks[0]
        if head == "nbhd":
            if points is None:
                raise _fail(lineno, raw, 0, "nbhd record before points record")
            if len(toks) < 2 or not toks[1].endswith(":"):
                raise _fail(lineno, raw, 0, "expected: nbhd LABEL: MEMBERS...")
            label = toks[1][:-1]
            if label not in declared:
                raise _fail(lineno, raw, 1, f"undeclared point {label!r}")
            if label in nbhds:
                raise _fail(lineno, raw, 1, f"duplicate nbhd record for {label!r}")
            row = toks[2:]
            try:
                members = tuple(map(declared.__getitem__, row))
            except KeyError:
                members = ()
            if len(members) != len(row) or len(set(members)) != len(row):
                seen: set[str] = set()
                for i, tok in enumerate(row, start=2):
                    if tok not in declared:
                        raise _fail(lineno, raw, i, f"undeclared point {tok!r}")
                    if tok in seen:
                        raise _fail(lineno, raw, i, f"repeated member {tok!r}")
                    seen.add(tok)
            nbhds[label] = members
        elif head == "space":
            if name is not None:
                raise _fail(lineno, raw, 0, "duplicate space record")
            if len(toks) != 2:
                raise _fail(lineno, raw, 0, "expected: space NAME")
            name = toks[1]
            if not _LABEL_RE.match(name):
                raise _fail(lineno, raw, 1, f"illegal name {name!r}")
        elif head == "points":
            if name is None:
                raise _fail(lineno, raw, 0, "points record before space record")
            if points is not None:
                raise _fail(lineno, raw, 0, "duplicate points record")
            points = tuple(toks[1:])
            declared = dict(zip(points, points))
            if len(declared) != len(points) or not all(map(_LABEL_RE.match, points)):
                seen = set()
                for i, tok in enumerate(points, start=1):
                    if not _LABEL_RE.match(tok):
                        raise _fail(lineno, raw, i, f"illegal label {tok!r}")
                    if tok in seen:
                        raise _fail(lineno, raw, i, f"duplicate point label {tok!r}")
                    seen.add(tok)
        else:
            raise _fail(lineno, raw, 0, f"unknown record {head!r}")
    if name is None:
        raise ParseError(last_line + 1, 1, "missing space record")
    if points is None:
        raise ParseError(last_line + 1, 1, "missing points record")
    for lab in points:
        if lab not in nbhds:
            raise ParseError(last_line + 1, 1, f"missing nbhd record for {lab!r}")
    return SpaceDocument(name, points, tuple(nbhds[lab] for lab in points))


def parse_glue(text: str, src: SpaceDocument, dst: SpaceDocument) -> GlueData:
    """Parse a glue data file against the two documents it connects."""
    src_index, dst_index = src._index, dst._index
    pairs: list[tuple[int, int]] = []
    local: list[dict[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        head = toks[0]
        if head not in ("pair", "send"):
            raise _fail(lineno, raw, 0, f"unknown record {head!r}")
        if len(toks) != 3:
            raise _fail(lineno, raw, 0, f"expected: {head} SOURCE TARGET")
        a, b = toks[1], toks[2]
        if a not in src_index:
            raise _fail(lineno, raw, 1, f"undeclared source point {a!r}")
        if b not in dst_index:
            raise _fail(lineno, raw, 2, f"undeclared target point {b!r}")
        if head == "pair":
            pairs.append((src_index[a], dst_index[b]))
            local.append({})
        else:
            if not pairs:
                raise _fail(lineno, raw, 0, "send record before any pair record")
            if src_index[a] in local[-1]:
                raise _fail(lineno, raw, 1, f"source point {a!r} is sent twice for this pair")
            local[-1][src_index[a]] = dst_index[b]
    return GlueData.build(pairs, local)


# ---------------------------------------------------------------------------
# DOT output


def to_dot(space: Space) -> str:
    """DOT digraph of the specialization structure.

    One node per point, labeled with its name and neighborhood size;
    basic points are drawn with a double border.  Edges y -> x cover the
    relation "y below x", reduced so only immediate steps remain; points
    with equal neighborhoods keep their mutual edges.  From the owners
    map, strict[x] is S(x) minus x's class; y -> x is drawn for each
    y != x in S(x) that lies in no strict[z] with z in strict[x].
    """
    lines = ["digraph space {", "  rankdir=BT;"]
    classes = _classify(space)
    masks = space.masks
    strict = [0] * space.n
    for e, o in classes.owners.items():
        below, rest = e & ~o, o
        while rest:
            low = rest & -rest
            strict[low.bit_length() - 1] = below
            rest ^= low
    for x in range(space.n):
        attrs = [f'label="{space.label_of(x)} ({masks[x].bit_count()})"']
        if classes.basic >> x & 1:
            attrs.append("peripheries=2")
        lines.append(f"  p{x} [{', '.join(attrs)}];")
    for x in range(space.n):
        # Every w in strict[z] has strict[w] inside strict[z], so picking
        # z settles all of strict[z] at once.
        rest, dropped = strict[x], 0
        while rest:
            z = rest.bit_length() - 1
            dropped |= strict[z]
            rest &= ~(strict[z] | 1 << z)
        # a lowest-bit walk: these masks are sparse on large carriers
        edges = masks[x] & ~dropped & ~(1 << x)
        while edges:
            low = edges & -edges
            lines.append(f"  p{low.bit_length() - 1} -> p{x};")
            edges ^= low
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command implementations


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> tuple[SpaceDocument, Space]:
    doc = parse(_read(path))
    return doc, doc.to_space()


def _emit(space: Space, name: str) -> int:
    sys.stdout.write(serialize(space_to_document(space, name)))
    return 0


def _format_report(rep: InvariantReport, space: Space, name: str) -> str:
    def pset(ps: PointSet) -> str:
        return "{" + ",".join(space.label_of(p) for p in ps) + "}"

    rows = [
        ("name", name),
        ("points", str(rep.n)),
        ("distinct neighborhoods", str(rep.distinct_neighborhoods)),
        ("min", str(rep.min_x)),
        ("index", str(rep.index_x)),
        ("cover", ",".join(pset(w) for w in rep.maximal_nbhds)),
        ("basic points", pset(rep.basic_points)),
        ("irreducible points", pset(rep.irreducible_points)),
        ("discrete", "true" if rep.is_discrete else "false"),
        ("hausdorff", "true" if rep.is_hausdorff else "false"),
        ("t0", "true" if rep.is_t0 else "false"),
    ]
    width = max(len(k) for k, _ in rows) + 1
    return "\n".join(f"{k + ':':<{width}} {v}" for k, v in rows) + "\n"


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = parse(_read(args.file))
    try:
        doc.to_space()
    except ValidationError as err:
        print(f"invalid: {err}")
        return 1
    print(f"ok: {doc.name} ({len(doc.points)} points)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    doc, space = _load(args.file)
    sys.stdout.write(_format_report(report(space), space, doc.name))
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    da, a = _load(args.left)
    db, b = _load(args.right)
    return _emit(product(a, b), f"{da.name}*{db.name}")


def _cmd_sum(args: argparse.Namespace) -> int:
    da, a = _load(args.left)
    db, b = _load(args.right)
    return _emit(disjoint_sum(a, b), f"{da.name}+{db.name}")


def _split_labels(raw: str) -> list[str]:
    return [part for part in raw.split(",") if part]


def _point_id(doc: SpaceDocument, lab: str) -> int:
    """The id of a label named on the command line."""
    try:
        return doc._index[lab]
    except KeyError:
        raise ValidationError(f"undeclared point {lab!r}") from None


def _cmd_subspace(args: argparse.Namespace) -> int:
    doc, space = _load(args.file)
    ids = [_point_id(doc, lab) for lab in _split_labels(args.points)]
    return _emit(
        subspace(space, PointSet.from_points(space.n, ids)), f"{doc.name}-sub"
    )


def _cmd_quotient(args: argparse.Namespace) -> int:
    doc, space = _load(args.file)
    blocks: list[list[int]] = []
    listed: set[int] = set()
    for chunk in args.classes.split("|"):
        block = []
        for lab in _split_labels(chunk):
            p = _point_id(doc, lab)
            if p in listed:
                raise ValidationError(f"point {lab!r} listed twice")
            listed.add(p)
            block.append(p)
        if block:
            blocks.append(block)
    blocks.extend([p] for p in range(space.n) if p not in listed)
    part = Partition.from_blocks(space.n, blocks)
    return _emit(quotient(space, part), f"{doc.name}-quot")


def _cmd_t0(args: argparse.Namespace) -> int:
    doc, space = _load(args.file)
    result, _ = t0_quotient(space)
    return _emit(result, f"{doc.name}-t0")


def _parse_map(raw: str, src: SpaceDocument, dst: SpaceDocument) -> SpaceMap:
    src_index, dst_index = src._index, dst._index
    f = [-1] * len(src.points)
    for entry in _split_labels(raw):
        if ":" not in entry:
            raise ValidationError(f"map entry {entry!r} is not LABEL:LABEL")
        a, b = entry.split(":", 1)
        if a not in src_index:
            raise ValidationError(f"undeclared source point {a!r}")
        if b not in dst_index:
            raise ValidationError(f"undeclared target point {b!r}")
        if f[src_index[a]] != -1:
            raise ValidationError(f"source point {a!r} mapped twice")
        f[src_index[a]] = dst_index[b]
    if -1 in f:
        raise ValidationError(f"map is missing point {src.points[f.index(-1)]!r}")
    return SpaceMap(src.to_space(), dst.to_space(), tuple(f))


def _cmd_continuous(args: argparse.Namespace) -> int:
    src = parse(_read(args.source))
    dst = parse(_read(args.target))
    m = _parse_map(args.map, src, dst)
    if is_continuous(m):
        print("continuous")
        return 0
    print("not continuous")
    return 1


def _cmd_homeo(args: argparse.Namespace) -> int:
    da, a = _load(args.left)
    db, b = _load(args.right)
    h = find_homeomorphism(a, b)
    if h is None:
        print("not homeomorphic")
        return 1
    for x, y in enumerate(h.f):
        print(f"{a.label_of(x)} -> {b.label_of(y)}")
    return 0


def _cmd_glue(args: argparse.Namespace) -> int:
    da, a = _load(args.left)
    db, b = _load(args.right)
    data = parse_glue(_read(args.data), da, db)
    try:
        h = glue(a, b, data)
    except (NotWellDefined, ResultNotHomeomorphism) as err:
        print(f"rejected: {type(err).__name__}: {_relabel_error(err, da.points)}")
        return 1
    for x, y in enumerate(h.f):
        print(f"{a.label_of(x)} -> {b.label_of(y)}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = _generator_spec(args)
    return _emit(spec.build(), spec.name())


def _generator_spec(args: argparse.Namespace) -> GeneratorSpec:
    kind, params = args.kind, args.params
    row = GENERATOR_KINDS[kind]
    if len(params) != len(row.params):
        raise ValidationError(
            f"generator {kind!r} takes {len(row.params)} parameter(s), got {len(params)}"
        )
    fields = dict(zip(row.params, params))
    fields.update((f, getattr(args, f)) for f in row.flags)
    return GeneratorSpec(kind, **fields)


def _cmd_census(args: argparse.Namespace) -> int:
    row = census(args.n)
    print(f"n: {row.n}")
    print(f"labeled: {row.total_labeled}")
    print(f"classes: {row.class_count}")
    for i, cls in enumerate(row.per_class, start=1):
        nbhd = "|".join(
            ",".join(str(p) for p in iter_bits(m)) for m in cls.representative.masks
        )
        print(
            f"class {i}: size {cls.size} min {cls.min_x} "
            f"index {cls.index_x} nbhd {nbhd}"
        )
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    _, space = _load(args.file)
    sys.stdout.write(to_dot(space))
    return 0


# ---------------------------------------------------------------------------
# argument parsing / dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitetop",
        description="Construct and analyze finite Alexandroff spaces. "
        "FILE arguments accept '-' for standard input.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a space document")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("report", help="print all invariants of a space")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("product", help="product of two spaces")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("subspace", help="subspace on the given points")
    p.add_argument("file")
    p.add_argument("--points", required=True, metavar="a,b,...")
    p.set_defaults(handler=_cmd_subspace)

    p = sub.add_parser("quotient", help="quotient by the given classes")
    p.add_argument("file")
    p.add_argument(
        "--classes",
        required=True,
        metavar="a,b|c|d,e",
        help="'|' between classes, ',' within; unlisted points form singletons",
    )
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("t0", help="collapse points with equal neighborhoods")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_t0)

    p = sub.add_parser("sum", help="disjoint sum of two spaces")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("continuous", help="test a map for continuity")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--map", required=True, metavar="a:x,b:y,...")
    p.set_defaults(handler=_cmd_continuous)

    p = sub.add_parser("homeo", help="search for a homeomorphism")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_homeo)

    p = sub.add_parser("glue", help="assemble a homeomorphism from glue data")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--data", required=True, metavar="GLUEFILE")
    p.set_defaults(handler=_cmd_glue)

    p = sub.add_parser("gen", help="generate a stock space")
    p.add_argument("kind", choices=list(GENERATOR_KINDS))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--with-top", action="store_true", dest="with_top")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.5)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("census", help=f"enumerate all spaces on N <= {CENSUS_CAP} points")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("dot", help="emit a DOT diagram of a space")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_dot)

    return parser


_INPUT_ERRORS = (
    FinitetopError,
    OSError,
    UnicodeDecodeError,
)


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except BrokenPipeError:
        # the reader went away: not an input error; main exits quietly
        raise
    except Exception as err:
        bad_input = isinstance(err, _INPUT_ERRORS) and not isinstance(err, InternalError)
        if not bad_input or os.environ.get("FINITETOP_VERBOSE"):
            import traceback  # loaded only where a traceback is printed

            traceback.print_exc()
        if bad_input:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(f"internal error: {err}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not our error —
        # park stdout on devnull so the shutdown flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(0)
    sys.exit(code)


__all__ = [
    "SpaceDocument",
    "parse",
    "serialize",
    "space_to_document",
    "parse_glue",
    "to_dot",
    "run",
    "main",
]


if __name__ == "__main__":
    main()

"""The four workloads: seeded inputs, the calls to time, and their checks.

Each workload is a function ``(ft, seed, workdir, inprocess) -> [Op]``
that builds one *round* of operations.  The runner repeats whole rounds
until its time is up, so every run times the same mix and its quantiles
do not drift with the number of operations that fit.

The seed never changes a structure, only its presentation: which point
gets which number, which labels a document uses, which half or which
partition (as the image of a fixed one) an operation receives, and the
order of the round.  Every answer is therefore either checked by an
oracle in ``check.py`` or reduced to a digest that no relabeling changes
and compared with the digest recorded at the seed commit
(``expected.json``).

Sizes are chosen to stay inside today's guards (the 10-point
homeomorphism search guard, the 4096-point carrier bound and
``CENSUS_CAP = 5``) while keeping the known asymptotic defects visible:
the b! canonical search on ``blocks(b, m)``, the 16^n census walk with
its quadratic pairwise check, the cubic invariant loops on large
carriers, and the quadratic document parser.  A guard refusal is a
failed operation, never a skipped one.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import check
from check import Mismatch

CLI_MAIN = "from finitetop.cli import main; main()"


@dataclass
class Op:
    """One timed call, with the digest that checks its answer."""

    key: str
    call: Callable[[], object]
    digest: Callable[[object], str]


def _space(ft, masks):
    n = len(masks)
    return ft.core.from_neighborhoods(n, [ft.core.PointSet(n, m) for m in masks])


def _relabeled(ft, rng, masks):
    """A Space holding ``masks`` under a seeded renumbering, and the renumbering."""
    perm = check.permutation(len(masks), rng)
    return _space(ft, check.relabel(masks, perm)), perm


def _shuffled(ft, rng, masks):
    return _relabeled(ft, rng, masks)[0]


# ---------------------------------------------------------------------------
# census


def census(ft, seed, workdir, inprocess):
    """Repeated census(5): the 16^5 candidate walk plus the pairwise check."""
    return [Op("census5", lambda: ft.census.census(5), _census_digest)]


def _census_digest(row) -> str:
    # OEIS A000798 (labeled topologies) and A001930 (unlabeled) at n = 5.
    if row.total_labeled != 6942 or row.class_count != 139:
        raise Mismatch(f"census(5) gave {row.total_labeled} / {row.class_count}")
    if sum(c.size for c in row.per_class) != 6942:
        raise Mismatch("class sizes do not add up to 6942")
    return check.sha(
        "\n".join(
            f"{c.size} {c.min_x} {c.index_x} {list(c.representative.masks)}"
            for c in row.per_class
        )
    )


# ---------------------------------------------------------------------------
# iso


def iso(ft, seed, workdir, inprocess):
    """Canonical forms, homeomorphism search, glue and continuity queries."""
    rng = random.Random(seed)
    g = ft.generators
    ops: list[Op] = []

    def canon(key, masks):
        x = _shuffled(ft, rng, masks)
        want = check.shape(masks)

        def digest(c):
            if check.shape(c.masks) != want:
                raise Mismatch(f"{key}: canonical form is not a relabeling")
            return check.sha(str(c.masks))

        ops.append(Op(f"canon-{key}", lambda: ft.core.canonical_form(x), digest))

    # Symmetric stock spaces: the search explores about b! leaves.
    for b, m, copies in ((4, 2, 1), (5, 2, 3), (6, 2, 1), (4, 3, 1), (3, 4, 1)):
        for _ in range(copies):
            canon(f"blocks{b}x{m}", g.blocks(b, m).masks)
    canon("crown8", check.crown(8))
    canon("divisor60", g.divisor(60).masks)
    # Asymmetric inputs: refinement alone settles the order.
    for n, s in ((16, 1), (32, 1), (32, 2), (48, 1), (48, 2), (64, 1), (64, 2), (64, 3)):
        canon(f"random{n}-{s}", g.random_space(n, s).masks)

    def homeo(key, a_masks, b_masks, expect_yes):
        a = _shuffled(ft, rng, a_masks)
        b = _shuffled(ft, rng, b_masks)
        if not expect_yes and check.components(a_masks) == check.components(b_masks):
            raise ValueError(f"{key}: 'no' pair is not separated by connectedness")

        def digest(h):
            if h is None:
                if expect_yes:
                    raise Mismatch(f"{key}: homeomorphic pair reported as not")
                return "no"
            if not expect_yes:
                raise Mismatch(f"{key}: non-homeomorphic pair got a map")
            if not check.is_isomorphism(a.masks, b.masks, h.f):
                raise Mismatch(f"{key}: returned map is not a homeomorphism")
            return "yes"

        ops.append(Op(f"homeo-{key}", lambda: ft.maps.find_homeomorphism(a, b), digest))

    # "Yes" pairs are seeded relabelings of one structure, all within the
    # 10-point search guard.
    for key, masks in (
        ("crown5", check.crown(5)),
        ("crown4", check.crown(4)),
        ("blocks5x2", g.blocks(5, 2).masks),
        ("random10-1", g.random_space(10, 1).masks),
        ("random10-2", g.random_space(10, 2).masks),
        ("divisor10", g.divisor(10).masks),
        ("chain10", g.chain(10).masks),
    ):
        homeo(key, masks, masks, True)
    # "No" pairs that color refinement cannot separate, known by connectedness.
    homeo("crown8-vs-2crown4", check.crown(4), check.disjoint_sum(check.crown(2), check.crown(2)), False)
    homeo("crown10-vs-crown4+6", check.crown(5), check.disjoint_sum(check.crown(2), check.crown(3)), False)
    homeo("blocks5x2-vs-2x5", g.blocks(5, 2).masks, g.blocks(2, 5).masks, False)

    def glue(key, masks):
        x = _shuffled(ft, rng, masks)
        perm = check.permutation(x.n, rng)
        y = _space(ft, check.relabel(x.masks, perm))
        owners: dict[int, int] = {}
        for p, m in enumerate(x.masks):
            owners.setdefault(m, p)
        data = ft.maps.GlueData.build(
            [(r, perm[r]) for r in owners.values()],
            [{p: perm[p] for p in check.bits(m)} for m in owners],
        )

        def digest(h):
            if list(h.f) != perm or not check.is_isomorphism(x.masks, y.masks, h.f):
                raise Mismatch(f"{key}: glued map differs from the local maps")
            return "glued"

        ops.append(Op(f"glue-{key}", lambda: ft.maps.glue(x, y, data), digest))

    glue("random64-1", g.random_space(64, 1).masks)
    glue("random64-2", g.random_space(64, 2).masks)
    glue("divisor64", g.divisor(64).masks)

    def continuity(key, x, y, f):
        want = check.is_continuous(x.masks, y.masks, f)
        smap = ft.maps.SpaceMap(x, y, tuple(f))

        def digest(answer):
            if answer != want:
                raise Mismatch(f"{key}: continuity answer {answer}, oracle {want}")
            return "agrees"

        ops.append(Op(f"continuous-{key}", lambda: ft.maps.is_continuous(smap), digest))

    x = _shuffled(ft, rng, g.random_space(64, 1).masks)
    perm = check.permutation(64, rng)
    continuity("homeomorphism", x, _space(ft, check.relabel(x.masks, perm)), perm)
    continuity("constant", x, x, [rng.randrange(64)] * 64)
    continuity("arbitrary", x, x, [rng.randrange(64) for _ in range(64)])

    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# big_spaces


def _product(a, b) -> list[int]:
    nb = len(b)
    out = []
    for ma in a:
        for mb in b:
            m = 0
            for u in check.bits(ma):
                m |= mb << (u * nb)
            out.append(m)
    return out


def big_spaces(ft, seed, workdir, inprocess):
    """Construct a 256-2048 point space, then report its invariants."""
    rng = random.Random(seed)
    g = ft.generators
    c = ft.constructions
    chain8, chain16, chain24, chain32 = (g.chain(k).masks for k in (8, 16, 24, 32))
    grid16 = _product(chain16, chain16)
    grid24 = _product(chain24, chain24)
    grid32 = _product(chain32, chain32)
    blocks_chain = _product(g.blocks(8, 4).masks, chain16)
    wide = _product(g.blocks(16, 8).masks, chain8)
    rand_chain = _product(g.random_space(64, 1).masks, chain16)
    ops: list[Op] = []

    def sp(masks):
        return _shuffled(ft, rng, masks)

    def op(key, build):
        def call():
            s = build()
            return s, ft.invariants.report(s)

        ops.append(Op(key, call, _report_digest))

    def quotient(key, masks, block_of):
        x, perm = _relabeled(ft, rng, masks)
        classes = [0] * len(masks)
        for p, cls in enumerate(block_of):
            classes[perm[p]] = cls
        part = c.Partition.from_class_of(classes)
        op(key, lambda: c.quotient(x, part))

    def product(key, *factors):
        xs = [sp(m) for m in factors]
        if len(xs) == 2:
            op(key, lambda: c.product(*xs))
        else:
            op(key, lambda: c.product_n(xs))

    product("product-chain16^2", chain16, chain16)
    product("product-chain32^2", chain32, chain32)
    product("product-blocks8x4-chain16", g.blocks(8, 4).masks, chain16)
    product("product-divisor24-chain16", g.divisor(24).masks, chain16)
    product("product-random32-random16", g.random_space(32, 1).masks, g.random_space(16, 2).masks)
    product("product_n-chain8^3", chain8, chain8, chain8)
    product("product_n-blocks4x2-chain8-divisor8", g.blocks(4, 2).masks, chain8, g.divisor(8).masks)
    s1, s2 = sp(grid16), sp(blocks_chain)
    op("sum-256+512", lambda: c.disjoint_sum(s1, s2))
    s3, s4 = sp(wide), sp(rand_chain)
    op("sum-1024+1024", lambda: c.disjoint_sum(s3, s4))
    big, perm = _relabeled(ft, rng, grid32)
    half = ft.core.PointSet(1024, sum(1 << perm[p] for p in range(0, 1024, 2)))
    op("subspace-grid32-half", lambda: c.subspace(big, half))
    quotient("quotient-grid16-pairs", grid16, [p // 2 for p in range(256)])
    quotient("quotient-blocks8x4-chain16-fours", blocks_chain, [p // 4 for p in range(512)])
    t1, t2, t3 = sp(wide), sp(grid16), sp(grid24)
    op("t0-blocks16x8-chain8", lambda: c.t0_quotient(t1)[0])
    op("t0-grid16", lambda: c.t0_quotient(t2)[0])
    op("t0-grid24", lambda: c.t0_quotient(t3)[0])
    rng.shuffle(ops)
    return ops


def _report_digest(result) -> str:
    space, rep = result
    if rep.n != space.n:
        raise Mismatch("report is for another carrier size")
    return check.sha(
        "|".join(
            str(v)
            for v in (
                check.shape(space.masks),
                rep.distinct_neighborhoods,
                rep.min_x,
                rep.index_x,
                sorted(w.bits.bit_count() for w in rep.maximal_nbhds),
                rep.basic_points.bits.bit_count(),
                rep.irreducible_points.bits.bit_count(),
                rep.is_discrete,
                rep.is_hausdorff,
                rep.is_t0,
            )
        )
    )


# ---------------------------------------------------------------------------
# cli


def cli(ft, seed, workdir, inprocess):
    """`finitetop` commands on generated documents of 8-576 points."""
    rng = random.Random(seed)
    g = ft.generators
    os.makedirs(workdir, exist_ok=True)
    docs: dict[str, tuple[list[str], list[int]]] = {}

    def write(name, masks):
        perm = check.permutation(len(masks), rng)
        moved = check.relabel(masks, perm)
        tag = rng.choice("abcdefgh")
        labels = [f"{tag}{x}" for x in range(len(masks))]
        with open(os.path.join(workdir, f"{name}.space"), "w", encoding="utf-8") as fh:
            fh.write(check.render_document(name, labels, moved))
        docs[name] = (labels, moved)
        return labels, perm

    write("grid", _product(g.chain(24).masks, g.chain(24).masks))
    rnd_labels, rnd_perm = write("rnd", g.random_space(256, 1).masks)
    blk_labels, blk_perm = write("blk", g.blocks(16, 16).masks)
    write("div", g.divisor(128, True).masks)
    write("ch32", g.chain(32).masks)
    write("ch8", g.chain(8).masks)
    write("cr5", check.crown(5))
    write("cr5b", check.crown(5))
    write("cr2+3", check.disjoint_sum(check.crown(2), check.crown(3)))

    # The subspace and quotient arguments are images of fixed choices, so
    # the result has the same structure under every seed.
    half = [rnd_labels[rnd_perm[p]] for p in range(128)]
    classes = "|".join(
        f"{blk_labels[blk_perm[p]]},{blk_labels[blk_perm[p + 1]]}" for p in range(0, 256, 2)
    )

    run = _inprocess(ft) if inprocess else _subprocess(workdir)
    ops: list[Op] = []

    def command(key, argv, digest, code=0):
        memo: dict[str, str] = {}

        def checked(result):
            got_code, out = result
            if got_code != code:
                raise Mismatch(f"{key}: exit code {got_code}, expected {code}")
            if out not in memo:
                memo[out] = digest(out)
            return memo[out]

        ops.append(Op(f"cli-{key}", lambda: run(argv), checked))

    def document(out):
        text_round_trip(ft, out)
        _, _, masks = check.parse_document(out)
        return check.shape(masks)

    def exact(out):
        return check.sha(out)

    def homeo_map(left, right):
        def digest(out):
            (la, ma), (lb, mb) = docs[left], docs[right]
            ia = {lab: i for i, lab in enumerate(la)}
            ib = {lab: i for i, lab in enumerate(lb)}
            f = [-1] * len(la)
            for line in out.splitlines():
                a, _, b = line.partition(" -> ")
                f[ia[a]] = ib[b]
            if not check.is_isomorphism(ma, mb, f):
                raise Mismatch("homeo printed a map that is not a homeomorphism")
            return "yes"

        return digest

    def p(name):
        return os.path.join(workdir, f"{name}.space")

    command("validate-rnd", ["validate", p("rnd")], exact)
    command("validate-grid", ["validate", p("grid")], exact)
    command("report-grid", ["report", p("grid")], _report_text)
    command("report-rnd", ["report", p("rnd")], _report_text)
    command("report-div", ["report", p("div")], _report_text)
    command("homeo-yes", ["homeo", p("cr5"), p("cr5b")], homeo_map("cr5", "cr5b"))
    command("homeo-no", ["homeo", p("cr5"), p("cr2+3")], exact, code=1)
    command("gen-random", ["gen", "random", "128", "--seed", "7"], exact)
    command("gen-blocks", ["gen", "blocks", "16", "16"], exact)
    command("product", ["product", p("ch32"), p("ch8")], document)
    command("sum", ["sum", p("rnd"), p("div")], document)
    command("subspace", ["subspace", p("rnd"), "--points", ",".join(half)], document)
    command("quotient", ["quotient", p("blk"), "--classes", classes], document)
    command("t0", ["t0", p("blk")], document)
    command("dot", ["dot", p("div")], _dot_text)
    command("census4", ["census", "4"], exact)
    rng.shuffle(ops)
    return ops


def text_round_trip(ft, out: str) -> None:
    """Serialize(parse(text)) must give the text back byte for byte."""
    if ft.cli.serialize(ft.cli.parse(out)) != out:
        raise Mismatch("document does not round-trip through parse/serialize")


def _report_text(out: str) -> str:
    fields = dict(line.split(":", 1) for line in out.splitlines())
    fields = {k: v.strip() for k, v in fields.items()}
    cover = [s.count(",") + 1 for s in fields["cover"].split("},{")]

    def count(v):
        return 0 if v == "{}" else v.count(",") + 1

    return check.sha(
        f"{fields['points']}|{fields['distinct neighborhoods']}|{fields['min']}|"
        f"{fields['index']}|{sorted(cover)}|{count(fields['basic points'])}|"
        f"{count(fields['irreducible points'])}|{fields['discrete']}|"
        f"{fields['hausdorff']}|{fields['t0']}"
    )


def _dot_text(out: str) -> str:
    lines = out.splitlines()
    sizes = sorted(int(l.rsplit("(", 1)[1].split(")")[0]) for l in lines if 'label="' in l)
    edges = sum("->" in l for l in lines)
    basic = sum("peripheries=2" in l for l in lines)
    return check.sha(f"{sizes}|{edges}|{basic}")


def _subprocess(workdir):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src
    env.pop("FINITETOP_VERBOSE", None)

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_MAIN, *argv],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    return run


def _inprocess(ft):
    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = ft.cli.run(argv)
        return code, buf.getvalue()

    return run


WORKLOADS = {
    "census": census,
    "iso": iso,
    "big_spaces": big_spaces,
    "cli": cli,
}

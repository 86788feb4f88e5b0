"""Color refinement, the individualization–refinement search and stabilizer chains.

Works on raw bitmask arrays (``masks[x]`` = members of the minimal
neighborhood of ``x``) so it can be shared by canonical forms, the
homeomorphism search and the census without importing the space types.

Colors are integer ranks: equal colors mean equal iterated
fingerprints, and a refinement keeps the order of the colors it splits.
``refine_colors`` returns dense ranks; inside the refinement and the
search a color is the position of its cell's first point.

|Aut| is the product of the first-path orbit sizes (McKay & Piperno,
2014), so the search's generators are a strong generating set along its
first path, ``SearchResult.base``; where they fall short along another
base, ``least_map`` changes base by conjugation and adjacent swaps.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, count, groupby
from math import prod
from operator import itemgetter

from ._value import Value
from .errors import InternalError, SearchBudgetExceeded

#: Individualizations one search may make before it gives up.
DEFAULT_SEARCH_BUDGET = 10_000_000


#: Maps the digits of a binary string to the bytes 0 and 1, for ``compress``.
_BIT = bytes.maketrans(b"01", b"\x00\x01")


def iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, least first.

    The binary digits are reversed so that position i is byte i, mapped
    to the bytes 0 and 1, and used to select from ``count()``: one pass
    at C level, however many bits are set.
    """
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BIT))


def image(mask: int, f: Sequence[int] | dict[int, int]) -> int:
    """The bitmask of the points f[y] for y in mask."""
    out = 0
    for y in iter_bits(mask):
        out |= 1 << f[y]
    return out


def pack(masks: Sequence[int], keep: int, n: int) -> list[int]:
    """Each mask's bits at the members of keep, packed down in ascending order.

    Equals ``image(m & keep, rank)`` with rank numbering the members of
    keep from 0, for masks on an n-point carrier.  This is the compress
    of Warren, *Hacker's Delight* (2nd ed., 2012, §7-4), on a word of
    W = 2^L ≥ n bits, L = ⌈log₂ n⌉.  A kept bit at p must move down by
    z(p), the number of dropped bits below it; round i moves the kept
    bits whose z has bit i set by 2^i.  The L move masks depend only on
    keep, so they are found once, each by L parallel-suffix XORs that
    read bit i of z at every kept bit.  A mask then costs two int
    operations per nonzero move mask, each over the whole word at C
    level, instead of a pass per bit.

    In a move ``x ^ t | t >> s`` the ``|`` never meets a set destination
    bit.  For kept bits p' < p, exactly p − p' − (z(p) − z(p')) ≥ 1
    kept bits lie in [p', p), and the shifts made through round i,
    z mod 2^(i+1) for each, differ by at most z(p) − z(p'), so the kept
    bits stay at distinct ascending positions after every round.  A
    moved bit thus lands where no unmoved bit stays, and the moved bits
    all shift by the same amount.  When keep is the whole carrier the
    masks come back unchanged.
    """
    full = (1 << n) - 1
    rounds = (n - 1).bit_length()
    moves = []
    m = keep
    mk = ~keep << 1 & full  # bit p set when p - 1 is dropped; suffix XORs count these mod 2
    for i in range(rounds):
        mp = mk
        for j in range(rounds):
            mp ^= mp << (1 << j)
        mv = mp & m  # the kept bits whose z has bit i set
        if mv:
            s = 1 << i
            moves.append((mv, s))
            m = m ^ mv | mv >> s
        mk &= ~mp
    out = []
    for x in masks:
        x &= keep
        for mv, s in moves:
            t = x & mv
            x = x ^ t | t >> s
        out.append(x)
    return out


def owners(masks: Sequence[int]) -> dict[int, int]:
    """Each distinct mask mapped to the bits of its owners, in first-owner order."""
    out: dict[int, int] = {}
    for x, m in enumerate(masks):
        out[m] = out.get(m, 0) | 1 << x
    return out


def first_violation(
    masks: Sequence[int], images: Sequence[int] | None = None
) -> tuple[int, int] | None:
    """The first (x, y) in id order with y in masks[x] and images[y] not inside images[x].

    ``images`` defaults to ``masks`` itself: the down-closure test.
    """
    images = masks if images is None else images
    x = 0  # counted by hand: building enumerate's pairs slows the census walk
    for mx in masks:
        out = ~images[x]
        m = mx & ~(1 << x)  # images[x] lies inside itself
        while m:
            low = m & -m
            if images[low.bit_length() - 1] & out:
                return x, low.bit_length() - 1
            m ^= low
        x += 1
    return None


def closure_violation(
    masks: Sequence[int], images: Sequence[int] | None = None
) -> tuple[int, int] | None:
    """``first_violation(masks, images)``, proving a valid array in near-linear time.

    The array must be reflexive, or the loop may not end.  Each distinct
    mask M is covered by its owners, then by the mask of its highest
    uncovered member y, whose image must lie inside T, the image of M's
    owners.  Without ``images`` T = M, so masks[y] is a proper subset of
    M, and by induction on |M| every mask that passes is down-closed.
    Given ``images``, masks must be a valid space.  T is then the image
    of M's least owner, and every owner must have image T, since each
    owner lies in the others' masks; by induction every member of
    masks[y] maps inside images[y], hence inside T.  Only a failure pays
    for the ordered scan that names the witness.
    """
    img = masks if images is None else images
    for m, own in owners(masks).items():
        t = m
        if images is not None:  # owners share a mask, so only images can tell them apart
            t = images[(own & -own).bit_length() - 1]
            if own & own - 1 and any(images[z] != t for z in iter_bits(own)):
                return first_violation(masks, images)
        rest = m & ~own
        while rest:
            y = rest.bit_length() - 1
            if img[y] & ~t:
                return first_violation(masks, images)
            rest &= ~masks[y]
    return None


def refine_colors(
    down: Sequence[Sequence[int]],
    up: Sequence[Sequence[int]],
    initial: Sequence[int] | None = None,
) -> list[int]:
    """Stable iterated-fingerprint colors of the points, as dense ranks.

    ``down[x]`` lists the members of S(x) and ``up[x]`` the points whose
    neighborhood contains x.  Without ``initial`` the starting
    fingerprint of a point is (|S(x)|, sorted sizes of the members'
    neighborhoods).  ``_refine_cells`` does the work; see it for how the
    colors are defined.
    """
    colors, _ = _stable(down, up, initial)
    dense = dict(zip(sorted(set(colors)), count()))
    return list(map(dense.__getitem__, colors))


def _stable(
    down: Sequence[Sequence[int]],
    up: Sequence[Sequence[int]],
    initial: Sequence[int] | None = None,
) -> tuple[list[int], dict[int, list[int]]]:
    """The stable first-position colors and non-singleton cells from the start fingerprints."""
    if initial is None:
        sizes = [len(ys) for ys in down]
        size = sizes.__getitem__
        # The member sizes are read only where |S(x)| is shared: any other
        # point is set apart by its size alone.
        shared = {k for k, m in Counter(sizes).items() if m > 1}
        sigs: list = [
            (len(ys), tuple(sorted(map(size, ys))) if len(ys) in shared else ()) for ys in down
        ]
    else:
        sigs = list(initial)
    # A cell's color is the number of points with a lesser signature: the
    # position of its first point once the points are sorted by signature.
    sig = sigs.__getitem__
    colors = [0] * len(sigs)
    cells: dict[int, list[int]] = {}
    s = 0
    for _, run in groupby(sorted(range(len(sigs)), key=sig), sig):
        xs = list(run)
        for x in xs:
            colors[x] = s
        if len(xs) > 1:
            cells[s] = xs
        s += len(xs)
    _refine_cells(down, up, colors, cells, list(cells))
    return colors, cells


def _refine_cells(
    down: Sequence[Sequence[int]],
    up: Sequence[Sequence[int]],
    colors: list[int],
    cells: dict[int, list[int]],
    hit: Iterable[int],
) -> None:
    """Refine ``colors`` and ``cells`` in place to the stable coloring.

    ``colors[x]`` is the position of the first point of x's cell in the
    ordered points (McKay & Piperno, "Practical graph isomorphism II",
    2014), so a split renames no other cell; ``cells`` maps the color of
    each non-singleton cell to its points in ascending order, and
    ``hit`` names the cells that may split in the first round.  Each
    round splits every hit cell by the sorted colors of ``down[x]`` and
    of ``up[x]``, sub-cells in that order, and stops once no cell splits
    or every cell is a singleton.  The result equals re-ranking all
    points by (color, down colors, up colors) every round, which is how
    the colors are defined.

    A round re-signs only the non-singleton cells holding a neighbor of
    a point whose cell split in the round before: any other cell's
    points saw their neighbors' colors renamed one-to-one and in order,
    so they still agree.  Of each split cell a largest sub-cell is left
    out of the next round's splitters, since a point's count in it is
    its old count in the cell less its counts in the others.  A search
    child refines from its parent's stable cells the same way: only the
    cells next to the individualized point can split first.  A split
    replaces a cell's list and never mutates it, so a child may share
    its parent's lists.
    """
    color = colors.__getitem__
    while cells:
        splits = []
        for s in hit:
            xs = cells[s]
            if len(xs) == 2:
                x, y = xs
                kx = (sorted(map(color, down[x])), sorted(map(color, up[x])))
                ky = (sorted(map(color, down[y])), sorted(map(color, up[y])))
                if kx != ky:
                    splits.append((s, [[x], [y]] if kx < ky else [[y], [x]]))
                continue
            keys = [(sorted(map(color, down[x])), sorted(map(color, up[x]))) for x in xs]
            if keys.count(keys[0]) == len(keys):
                continue
            groups = groupby(sorted(zip(keys, xs)), itemgetter(0))
            splits.append((s, [[x for _, x in part] for _, part in groups]))
        if not splits:
            break
        splitters: list[int] = []
        for s, parts in splits:
            del cells[s]
            largest = max(parts, key=len)
            for part in parts:
                if len(part) > 1:
                    cells[s] = part
                if s != colors[part[0]]:
                    for x in part:
                        colors[x] = s
                if part is not largest:
                    splitters.extend(part)
                s += len(part)
        touched = chain.from_iterable(map(down.__getitem__, splitters))
        touched = chain(touched, chain.from_iterable(map(up.__getitem__, splitters)))
        hit = cells.keys() & set(map(color, touched))


def _child(
    down: Sequence[Sequence[int]],
    up: Sequence[Sequence[int]],
    colors: list[int],
    cells: dict[int, list[int]],
    p: int,
) -> tuple[list[int], dict[int, list[int]]]:
    """The stable state after individualizing p, from a stable state left as it is.

    p keeps its cell's color s and the rest of the cell takes s + 1, the
    order the seed ``2·c + (q ≠ p)`` gives them.  The parent was stable,
    so in the first round only the cells next to p can split.
    """
    s = colors[p]
    colors = colors.copy()
    cells = cells.copy()
    rest = [q for q in cells.pop(s) if q != p]
    for q in rest:
        colors[q] = s + 1
    if len(rest) > 1:
        cells[s + 1] = rest
    near = set(map(colors.__getitem__, chain(down[p], up[p])))
    _refine_cells(down, up, colors, cells, cells.keys() & near)
    return colors, cells


def encode(down: Sequence[Iterable[int]], order: Sequence[int]) -> tuple[int, ...]:
    """The mask table relabeled so that point order[i] becomes i.

    ``down[x]`` lists the members of S(x); each row is the sum of the
    new bits of its members, which are distinct powers of two.
    """
    posbit = [0] * len(order)
    for new, old in enumerate(order):
        posbit[old] = 1 << new
    bit = posbit.__getitem__
    return tuple([sum(map(bit, down[old])) for old in order])


def order_map(src: Sequence[int], dst: Sequence[int]) -> list[int]:
    """The point map sending src[i] to dst[i] for every i."""
    f = [0] * len(src)
    for x, y in zip(src, dst):
        f[x] = y
    return f


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class SearchResult(Value):
    """What one canonical search found and what it cost; unpacks as (order, generators, aut).

    ``order[i]`` is the point that becomes i in the canonical form,
    ``generators`` are automorphisms that generate Aut, ``aut`` is |Aut|,
    ``encoding`` is the mask table relabeled by ``order`` (the canonical
    form's masks), ``base`` lists the points the first path
    individualizes, from the root down (its length is the first-path
    depth), and ``individualizations`` counts the individualizations
    the search made, the count ``budget`` bounds.  The other counts split
    the rest of the walk: ``leaves`` reached, ``leaf_automorphisms``
    (leaves whose table equals an earlier leaf's), and the candidates
    skipped as ``twin_swaps``, ``class_swaps`` or ``orbit_skips``.  Every
    generator is a leaf automorphism, a twin swap or a class swap.
    """

    def __init__(
        self, order: tuple[int, ...], generators: tuple[tuple[int, ...], ...], aut: int,
        encoding: tuple[int, ...], base: tuple[int, ...], individualizations: int, leaves: int,
        leaf_automorphisms: int, twin_swaps: int, class_swaps: int, orbit_skips: int,
    ) -> None:
        self.__dict__.update(
            order=order, generators=generators, aut=aut, encoding=encoding, base=base,
            individualizations=individualizations, leaves=leaves,
            leaf_automorphisms=leaf_automorphisms, twin_swaps=twin_swaps,
            class_swaps=class_swaps, orbit_skips=orbit_skips,
        )

    def __iter__(self) -> Iterator:
        return iter((self.order, self.generators, self.aut))


def canonical_order(
    masks: Sequence[int],
    budget: int = DEFAULT_SEARCH_BUDGET,
    *,
    target: tuple[int, ...] | None = None,
) -> SearchResult:
    """The canonical order of the points, generators of Aut, |Aut| and the canonical table.

    Points are arranged by refined color; a tied cell (the least tied
    color) is split by individualizing each candidate in turn, depth
    first with an explicit stack.  Each node holds its stable colors and
    cells, so it reads its tied cell off them and is a leaf when no cell
    is tied, and each child is refined from its parent's cells
    (``_child``).  The order kept is the leaf with the lexicographically
    least relabeled mask table (``encode``), which depends only on the
    structure, never on the incoming numbering; it is returned as
    ``encoding``.  The member lists S(x) and the lists of points above
    each point are built once and encode every leaf; the latter are
    summed into masks only when the swap test first needs them.

    Each leaf's table is kept with its order and its path, the points
    individualized to reach it.  A leaf that repeats an earlier table
    yields the automorphism from the earlier order to its own.  Each
    point individualized keeps its cell's color as its position, so the
    automorphism maps the earlier path onto this one and the subtree it
    took where they part, walked already, onto this one's: the walk
    jumps back to that node.  Every leaf met lies under the deepest
    first-path node still on the stack, so every automorphism found
    fixes the path to each first-path node on the stack; there a
    candidate in the orbit of an explored sibling under them is skipped.

    At any node a candidate p is skipped when a swap of p with an
    explored sibling q is an automorphism; the swap is recorded as a
    generator.  A class is the set of points that share a mask.  With
    d = masks[p] ^ masks[q], A = masks[p] & d and
    B = masks[q] & d, the swap exchanges p and q, pairs the other
    members of A and B in ascending order and fixes every other point.
    It is taken when ``ups[p] ^ ups[q] == d``, ``ups[x]`` being the
    points whose mask holds x.  If p and q share a mask, d = 0 and the
    swap is their transposition.  Otherwise, as p and q share a cell,
    their masks have one size, neither mask holds the other point and
    |A| = |B|.  Then A is p's class: a member x lies in ups[p], since
    q ∈ masks[x] ⊆ masks[p] is ruled out, so masks[x] = masks[p]; and a
    point with p's mask lies in masks[p] but not in masks[q], which
    would then hold p.  B is q's class likewise.  A point x outside
    A ∪ B holds all of A or none of it, all exactly when x ∈ ups[p], the
    same for B and ups[q], and ups[p], ups[q] agree off A ∪ B, so the
    swap keeps masks[x]; for x in A, masks[x] = (masks[p] & masks[q]) | A
    goes to masks[q], and B is symmetric.  So the swap is an
    automorphism: a twin swap when d = 0 or |A| = 1, a class swap
    otherwise.  It moves no individualized point: one in A would lie in
    masks[p] but not in masks[q] and have a color of its own, so the
    stable coloring would set p and q apart, and B is symmetric.  So
    the swap maps the node to itself and q's subtree onto p's.

    Each rule drops only subtrees whose leaf tables the walk has met, so
    a child in the orbit of a first-path node's first child repeats at
    its first leaf a table first met under the first child, and that
    leaf's automorphism maps the first child onto it.  So |Aut| is the
    product of these orbit sizes along the first path, and the
    automorphisms found generate Aut: a strong generating set along
    ``base``, as each orbit is counted under ones fixing the path above.
    More than ``budget`` individualizations raise SearchBudgetExceeded;
    the count made is returned as ``individualizations``:
    ``canonical_form(divisor(2000))`` makes 8261.

    With ``target``, another space's canonical table, the same walk is a
    matching search: it stops at the first leaf whose table is at most
    ``target`` and returns that leaf's order and table.  A search meets
    every leaf table of its tree and keeps the least, so ``target`` is
    the least leaf table of its own space, and a space with an
    isomorphic table has the same leaf tables: ``encoding`` equals
    ``target`` exactly when the two tables are isomorphic, and the
    orders of the two leaves then send one onto the other.  The walk is
    a prefix of the full search, so it makes no more individualizations;
    its ``generators``, ``aut`` and ``base`` cover only the part walked.
    """
    n = len(masks)
    down: list[list[int]] = []
    up: list[list[int]] = [[] for _ in range(n)]
    for z, m in enumerate(masks):
        ys = list(iter_bits(m))
        down.append(ys)
        for y in ys:
            up[y].append(z)
    ups: list[int] = []  # the bits of the points above each point, summed on first use

    gens: list[tuple[int, ...]] = []
    # One union-find orbit array over every generator found; it prunes only at first-path nodes.
    orbits = list(range(n))
    aut = 1
    spent = 0
    seen: dict[tuple[int, ...], tuple[list[int], tuple[int, ...]]] = {}  # table -> (order, path)
    best_enc: tuple[int, ...] = ()
    best_order: list[int] = []
    base: tuple[int, ...] = ()  # the points the first path individualizes
    first_depth = 0  # stack index of the deepest first-path node, once a leaf is found
    leaves = leaf_automorphisms = twin_swaps = class_swaps = orbit_skips = 0
    # A node: [colors, cells, its least cell, next candidate index, explored children].
    stack: list[list] = []

    def record(perm: Sequence[int]) -> None:
        gens.append(tuple(perm))
        for x, y in enumerate(perm):
            if x != y:
                rx, ry = _find(orbits, x), _find(orbits, y)
                if rx != ry:
                    orbits[rx] = ry

    node: tuple[list[int], dict[int, list[int]]] | None = _stable(down, up)
    while True:
        if node is not None:
            colors, cells = node
            if cells:
                stack.append([colors, cells, cells[min(cells)], 0, []])
            else:
                # Every cell is a singleton, so the colors are the positions 0..n-1.
                order = order_map(colors, range(n))
                enc = encode(down, order)
                leaves += 1
                if target is not None and enc <= target:
                    best_enc, best_order = enc, order
                    break
                path = tuple(top[2][top[3] - 1] for top in stack)
                earlier, earlier_path = seen.setdefault(enc, (order, path))
                if earlier_path is not path:  # the table repeats an earlier leaf's
                    record(order_map(earlier, order))
                    leaf_automorphisms += 1
                    del stack[1 + next(i for i, x in enumerate(path) if x != earlier_path[i]) :]
                elif len(seen) == 1:
                    first_depth, base, best_enc, best_order = len(stack) - 1, path, enc, order
                elif enc < best_enc:
                    best_enc, best_order = enc, order
            node = None
        if not stack:
            break
        top = stack[-1]
        colors, cells, cell, i, explored = top
        depth = len(stack) - 1
        if i == len(cell):
            stack.pop()
            if depth == first_depth:
                root = _find(orbits, cell[0])
                aut *= sum(1 for q in cell if _find(orbits, q) == root)
                first_depth -= 1
            continue
        top[3] = i + 1
        p = cell[i]
        if depth <= first_depth and explored:
            rp = _find(orbits, p)
            if any(_find(orbits, q) == rp for q in explored):
                orbit_skips += 1
                continue
        for q in explored:
            if not ups:
                bit = [1 << z for z in range(n)].__getitem__
                ups = [sum(map(bit, zs)) for zs in up]
            d = masks[p] ^ masks[q]
            if ups[p] ^ ups[q] == d:
                swap = list(range(n))
                a = masks[p] & d  # p's class, or nothing when q shares it
                if a & (a - 1):
                    xs = [x for x in iter_bits(a) if x != p]
                    ys = [y for y in iter_bits(d ^ a) if y != q]
                    for x, y in zip([p, *xs], [q, *ys]):
                        swap[x], swap[y] = y, x
                    class_swaps += 1
                else:
                    swap[p], swap[q] = q, p
                    twin_swaps += 1
                record(swap)
                break
        else:
            spent += 1
            if spent > budget:
                raise SearchBudgetExceeded(budget)
            explored.append(p)
            node = _child(down, up, colors, cells, p)
    return SearchResult(
        tuple(best_order), tuple(gens), aut, best_enc, base, spent, leaves,
        leaf_automorphisms, twin_swaps, class_swaps, orbit_skips,
    )


def _tree(b: int, gens: Sequence[Sequence[int]]) -> dict:
    """b's orbit under gens, breadth first: y maps to (x, g) with g[x] = y, and b to (b, None)."""
    tree: dict = {b: (b, None)}
    walk = [b]
    for x in walk:
        for g in gens:
            y = g[x]
            if y not in tree:
                tree[y] = (x, g)
                walk.append(y)
    return tree


class Chain:
    """A stabilizer chain along ``base`` of the group G that gens generate on range(n).

    ``levels[i]`` holds the base point b_i, generators S_i and the
    Schreier tree (``_tree``) of b_i's orbit Δ_i under them.  S_0 starts
    as gens, and S_(i+1) is the members of S_i that fix b_i.  The
    representative u_y sending b_i to y is g ∘ u_x for (x, g) = tree[y].
    ``size``, the product of the |Δ_i|, reaches |G| exactly when each S_i
    generates the stabilizer G^(i) of b_0..b_(i-1): a strong generating
    set.  ``swap`` keeps both.
    """

    def __init__(self, base: Sequence[int], n: int, gens: Iterable[Sequence[int]]) -> None:
        self.identity = list(range(n))
        self.levels: list[tuple[int, list, dict]] = []
        gens = list(gens)
        for b in base:
            self.levels.append((b, gens, _tree(b, gens)))
            gens = [g for g in gens if g[b] == b]
        self.size = prod(len(tree) for _, _, tree in self.levels)

    def swap(self, i: int) -> None:
        """Exchange the base points b and c of levels i and i + 1 (Sims' base swap).

        Level i keeps S_i, and level i + 1 takes the members of S_i that
        fix c.  When those that move b keep Δ_(i+1), and the edges of b's
        tree fix c, the two trees change places.  Otherwise b's orbit under
        G^(i)_c must reach |Δ_i| · |Δ_(i+1)| / |c^G^(i)| points; until it
        does, each y of Δ_i outside it whose u_y sends some z of Δ_(i+1)
        to c adds u_y ∘ u'_z, which fixes c and sends b to y, to S_0..S_(i+1)
        (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*,
        2005, §4.4.7).
        """
        levels = self.levels
        (b, gens, old), (c, _, lower) = levels[i], levels[i + 1]
        fixing = [g for g in gens if g[c] == c]
        kept = all(g[y] in lower for g in gens if g[b] != b for y in lower)
        if kept and all(g is None or g[c] == c for _, g in old.values()):
            levels[i], levels[i + 1] = (c, gens, lower), (b, fixing, old)
            return
        top = _tree(c, gens)
        size = len(old) * len(lower) // len(top)
        tree = _tree(b, fixing)
        for y in old:
            if len(tree) == size:
                break
            if y not in tree:
                x = self.times_rep(self.identity, i, y)
                z = x.index(c)
                if z in lower:
                    g = self.times_rep(x, i + 1, z)
                    for _, gs, _ in levels[: i + 1]:
                        gs.append(g)
                    fixing.append(g)
                    tree = _tree(b, fixing)
        levels[i], levels[i + 1] = (c, gens, top), (b, fixing, tree)

    def times_rep(self, h: list[int], i: int, y: int) -> list[int]:
        """h ∘ u_y, u_y the representative of level i sending its base point to y."""
        tree = self.levels[i][2]
        y, g = tree[y]
        while g is not None:  # one tree edge at a time
            h = list(map(h.__getitem__, g))
            y, g = tree[y]
        return h


def least_map(
    gens: Sequence[Sequence[int]], f: Sequence[int], order: int, base: Sequence[int]
) -> list[int]:
    """The least h ∘ f, by its array, over the group of order ``order`` that gens generate.

    f is a permutation of the points.  gens must be a strong generating
    set along ``base``, as the search's generators are along its first
    path.  Only the points some generator moves enter the chain,
    numbered in ascending order so that numbers compare as the points
    do.  The chain along f[0], f[1], ... mostly reaches ``order``; if
    not, the chain along ``base`` must (InternalError otherwise).

    The maps left are h ∘ K ∘ c⁻¹, K the group of the top level, h the
    partial map and c the conjugator, both the identity at first.  Each
    moved point t, in f order, is read at s = c⁻¹(t).  If K fixes s,
    every map left sends t to h(s).  If s lies in the top orbit, K is
    u_s K u_s⁻¹ with u_s sending the top base point b to s, so c becomes
    c ∘ u_s and s becomes b: the chain is conjugated lazily.  Otherwise s
    is inserted below the last level that moves it and swapped to the
    top.  Those left that send t lowest are h ∘ u_y ∘ K_b ∘ c⁻¹, y the
    point of the top orbit with the least h(y), so h becomes h ∘ u_y and
    the top level goes.  The orbit sizes read must multiply to ``order``
    (InternalError otherwise).  Where no generator moves f[x], the map
    keeps f[x].
    """
    moved = [x for x, images in enumerate(zip(*gens)) if images.count(x) < len(gens)]
    number = dict(zip(moved, count()))
    frame = [[number[g[x]] for x in moved] for g in gens]
    targets = [number[y] for y in f if y in number]
    along = Chain(targets, len(moved), frame)
    if along.size != order:
        along = Chain([number[y] for y in base if y in number], len(moved), frame)
        if along.size != order:
            raise InternalError("the generators are no strong generating set of that order")
    levels = along.levels
    h = c = along.identity
    read = 1
    for t in targets:
        if not levels:
            break
        s = c.index(t)
        if s not in levels[0][2]:
            fixes = (k for k, (_, gs, _) in enumerate(levels) if all(g[s] == s for g in gs))
            k = next(fixes, len(levels))
            if k == 0:
                continue
            b, gs, _ = levels[k - 1]
            levels.insert(k, (s, [g for g in gs if g[b] == b], {s: (s, None)}))
            for i in reversed(range(k)):
                along.swap(i)
        c = along.times_rep(c, 0, s)
        read *= len(levels[0][2])
        h = along.times_rep(h, 0, min(levels[0][2], key=h.__getitem__))
        del levels[0]
    if read != order:
        raise InternalError("the orbits read do not multiply to the order")
    return [moved[h[c.index(number[y])]] if y in number else y for y in f]  # h ∘ c⁻¹ ∘ f

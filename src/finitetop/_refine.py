"""Color refinement and the individualization–refinement search.

Works on raw bitmask arrays (``masks[x]`` = members of the minimal
neighborhood of ``x``) so it can be shared by canonical forms, the
homeomorphism search and the census without importing the space types.

Colors are dense integer ranks: equal colors mean equal iterated
fingerprints, and a refinement keeps the order of the colors it splits.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

from .errors import SearchBudgetExceeded

#: Individualizations one search may make before it gives up.
DEFAULT_SEARCH_BUDGET = 10_000_000


def up_masks(masks: Sequence[int]) -> list[int]:
    """For each point y, the bitmask of points z with y in masks[z]."""
    ups = [0] * len(masks)
    for z, m in enumerate(masks):
        bit = 1 << z
        mm = m
        while mm:
            low = mm & -mm
            ups[low.bit_length() - 1] |= bit
            mm ^= low
    return ups


def iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image(mask: int, f: Sequence[int] | dict[int, int]) -> int:
    """The bitmask of the points f[y] for y in mask."""
    out = 0
    for y in iter_bits(mask):
        out |= 1 << f[y]
    return out


def owners(masks: Sequence[int]) -> dict[int, int]:
    """Each distinct mask mapped to the bits of its owners, in first-owner order."""
    out: dict[int, int] = {}
    for x, m in enumerate(masks):
        out[m] = out.get(m, 0) | 1 << x
    return out


def first_violation(masks: Sequence[int]) -> tuple[int, int] | None:
    """The first (x, y) in id order with y in masks[x] and masks[y] not inside it, or None."""
    for x, mx in enumerate(masks):
        m = mx & ~(1 << x)  # masks[x] lies inside itself
        while m:
            low = m & -m
            if masks[low.bit_length() - 1] & ~mx:
                return x, low.bit_length() - 1
            m ^= low
    return None


def closure_violation(masks: Sequence[int]) -> tuple[int, int] | None:
    """``first_violation(masks)``, proving a valid array in near-linear time.

    The array must be reflexive, or the loop may not end.  Each distinct
    mask M is covered by its owners, then by the mask of its highest
    uncovered member, which must lie inside M and so is a proper subset:
    by induction on |M| every mask that passes is down-closed.  Only a
    failure pays for the ordered scan that names the witness.
    """
    for m, own in owners(masks).items():
        rest = m & ~own
        while rest:
            s = masks[rest.bit_length() - 1]
            if s & ~m:
                return first_violation(masks)
            rest &= ~s
    return None


def refine_colors(
    down: Sequence[Sequence[int]],
    up: Sequence[Sequence[int]],
    initial: Sequence[int] | None = None,
) -> list[int]:
    """Stable iterated-fingerprint colors of the points.

    ``down[x]`` lists the members of S(x) and ``up[x]`` the points whose
    neighborhood contains x; a search builds both once.  Without
    ``initial`` the starting fingerprint of a point is (|S(x)|, sorted
    sizes of the members' neighborhoods); rounds then fold in the sorted
    colors of ``down[x]`` and of ``up[x]``.  Refinement only ever splits
    color classes, so iteration stops as soon as the number of distinct
    colors stops growing.
    """
    if initial is None:
        sizes = [len(ys) for ys in down]
        sigs: list = [(len(ys), tuple(sorted([sizes[y] for y in ys]))) for ys in down]
    else:
        sigs = list(initial)
    colors = _rank(sigs)
    n = len(down)
    prev_distinct = -1
    while True:
        distinct = max(colors, default=-1) + 1
        if distinct == prev_distinct or distinct == n:
            return colors
        prev_distinct = distinct
        color = colors.__getitem__
        colors = _rank(
            [
                (colors[x], tuple(sorted(map(color, down[x]))), tuple(sorted(map(color, up[x]))))
                for x in range(n)
            ]
        )


def _rank(sigs: list) -> list[int]:
    order = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [order[s] for s in sigs]


def _individualize(
    down: Sequence[Sequence[int]], up: Sequence[Sequence[int]], colors: list[int], p: int
) -> list[int]:
    """Refined colors after giving p a color of its own, just below its cell."""
    return refine_colors(down, up, [2 * c + (q != p) for q, c in enumerate(colors)])


def _swap_bits(mask: int, p: int, q: int) -> int:
    bp = mask >> p & 1
    bq = mask >> q & 1
    if bp != bq:
        mask ^= (1 << p) | (1 << q)
    return mask


def encode(masks: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """The mask table relabeled so that point order[i] becomes i."""
    pos = [0] * len(order)
    for new, old in enumerate(order):
        pos[old] = new
    rows = []
    for old in order:
        r = 0
        for y in iter_bits(masks[old]):
            r |= 1 << pos[y]
        rows.append(r)
    return tuple(rows)


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


def canonical_order(
    masks: Sequence[int],
    fixed: Sequence[int] = (),
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> tuple[tuple[int, ...], list[tuple[int, ...]], int]:
    """The canonical order of the points, generators of Aut and |Aut|.

    The points of ``fixed`` are individualized first, in that order, so
    the automorphisms are those that fix each of them.  Points are then
    arranged by refined color; a tied cell (the least tied color) is
    split by individualizing each candidate in turn, depth first with an
    explicit stack, and the order kept is the leaf with the
    lexicographically least relabeled mask table (``encode``), which
    depends only on the structure, never on the incoming numbering.

    A leaf whose table equals the first or the best leaf's yields an
    automorphism; one equal to the first leaf sends the walk back to the
    first path.  A candidate is skipped when it lies in the orbit of an
    explored sibling under the automorphisms found below their node, or
    when swapping it with an explored sibling is an automorphism (a twin
    swap, recorded as a generator).  |Aut| is the product of the orbit
    sizes of the first child along the first path.  More than ``budget``
    individualizations raise SearchBudgetExceeded.
    """
    n = len(masks)
    if n <= 1:
        return tuple(range(n)), [], 1
    ups = up_masks(masks)
    down = [list(iter_bits(m)) for m in masks]
    up = [list(iter_bits(m)) for m in ups]
    colors = refine_colors(down, up)
    for p in fixed:
        colors = _individualize(down, up, colors, p)

    gens: list[tuple[int, ...]] = []
    # Orbits are union-find arrays over the generators that stabilize a
    # node.  The first-path nodes share one: every generator found so far
    # lies below the deepest of them, so it stabilizes them all.  Other
    # nodes get their own with their first generator.
    shared = list(range(n))
    aut = 1
    spent = 0
    first_enc: tuple[int, ...] | None = None
    first_order: list[int] = []
    best_enc: tuple[int, ...] = ()
    best_order: list[int] = []
    best_path: list[int] = []
    first_depth = 0  # stack index of the deepest first-path node
    # A node: [colors, cell, next candidate index, explored children, orbits].
    stack: list[list] = []
    path: list[int] = []  # path[d] was individualized at stack[d]

    def record(perm: Sequence[int], depth: int) -> None:
        """Keep an automorphism that stabilizes the stack nodes at index <= depth."""
        gens.append(tuple(perm))
        for d in range(first_depth, min(depth, len(stack) - 1) + 1):
            parent = stack[d][4]
            if parent is None:
                parent = stack[d][4] = list(range(n))
            for x, y in enumerate(perm):
                rx, ry = _find(parent, x), _find(parent, y)
                if rx != ry:
                    parent[rx] = ry

    node: list[int] | None = colors
    while True:
        if node is not None:
            if max(node) + 1 < n:
                tied = min(c for c, k in Counter(node).items() if k > 1)
                cell = [q for q in range(n) if node[q] == tied]
                stack.append([node, cell, 0, [], shared if first_enc is None else None])
            else:
                order = order_map(node, range(n))
                enc = encode(masks, order)
                if first_enc is None:
                    first_enc, first_order = enc, order
                    best_enc, best_order, best_path = enc, order, path[:]
                    first_depth = len(stack) - 1
                elif enc == first_enc:
                    record(order_map(first_order, order), first_depth)
                    del stack[first_depth + 1 :]
                elif enc == best_enc:
                    j = 0
                    while j < min(len(path), len(best_path)) and path[j] == best_path[j]:
                        j += 1
                    record(order_map(best_order, order), j)
                elif enc < best_enc:
                    best_enc, best_order, best_path = enc, order, path[:]
            node = None
        if not stack:
            break
        top = stack[-1]
        colors, cell, i, explored, parent = top
        depth = len(stack) - 1
        if i == len(cell):
            stack.pop()
            if depth == first_depth:
                root = _find(shared, cell[0])
                aut *= sum(1 for q in cell if _find(shared, q) == root)
                first_depth -= 1
            continue
        top[2] = i + 1
        p = cell[i]
        if parent is not None and explored:
            rp = _find(parent, p)
            if any(_find(parent, q) == rp for q in explored):
                continue
        twin = next(
            (
                q
                for q in explored
                if not (ups[p] ^ ups[q]) & ~(1 << p | 1 << q)
                and _swap_bits(masks[p], p, q) == masks[q]
            ),
            None,
        )
        if twin is not None:
            swap = list(range(n))
            swap[p], swap[twin] = twin, p
            record(swap, depth)
            continue
        spent += 1
        if spent > budget:
            raise SearchBudgetExceeded(budget)
        explored.append(p)
        del path[depth:]
        path.append(p)
        node = _individualize(down, up, colors, p)
    return tuple(best_order), gens, aut

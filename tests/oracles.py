"""Independent brute-force references used to pin expected values.

Everything here recomputes answers from first principles (powerset
filters, permutation search, relation filters) so the main
implementations are cross-checked against genuinely different code
paths.  Only usable at small sizes.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from finitetop.core import Space


def bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def open_masks_by_definition(space: Space) -> list[int]:
    """All open subsets, found by filtering the whole powerset.

    A set is open exactly when it is the union of the neighborhoods of
    its members.
    """
    opens = []
    for s in range(1 << space.n):
        union = 0
        for x in bits_of(s):
            union |= space.masks[x]
        if union == s:
            opens.append(s)
    return opens


def min_cover_bruteforce(space: Space) -> int:
    """Minimum number of distinct neighborhoods covering the carrier."""
    full = (1 << space.n) - 1
    distinct = list(dict.fromkeys(space.masks))
    if full == 0:
        return 0
    for size in range(1, len(distinct) + 1):
        for combo in combinations(distinct, size):
            covered = 0
            for m in combo:
                covered |= m
            if covered == full:
                return size
    raise AssertionError("neighborhoods fail to cover their own carrier")


def count_preorders_bruteforce(n: int) -> int:
    """Count reflexive transitive binary relations on n labeled points.

    Walks all 2**(n*n) relations as explicit pair sets.
    """
    pts = range(n)
    count = 0
    cells = [(i, j) for i in pts for j in pts]
    for choice in product([False, True], repeat=n * n):
        rel = {cells[k] for k in range(n * n) if choice[k]}
        if any((i, i) not in rel for i in pts):
            continue
        if any(
            (i, j) in rel and (j, k) in rel and (i, k) not in rel
            for i in pts
            for j in pts
            for k in pts
        ):
            continue
        count += 1
    return count


def homeomorphic_bruteforce(a: Space, b: Space) -> tuple[int, ...] | None:
    """Exhaustive search over all bijections; None when no homeomorphism exists."""
    if a.n != b.n:
        return None
    for perm in permutations(range(b.n)):
        good = True
        for x in range(a.n):
            for y in range(a.n):
                if (a.masks[x] >> y & 1) != (b.masks[perm[x]] >> perm[y] & 1):
                    good = False
                    break
            if not good:
                break
        if good:
            return perm
    return None


def all_isomorphisms_bruteforce(a: Space, b: Space) -> list[tuple[int, ...]]:
    out = []
    if a.n != b.n:
        return out
    for perm in permutations(range(b.n)):
        if all(
            (a.masks[x] >> y & 1) == (b.masks[perm[x]] >> perm[y] & 1)
            for x in range(a.n)
            for y in range(a.n)
        ):
            out.append(perm)
    return out


def least_saturated_open_superset(space: Space, class_masks: list[int], c: int) -> int:
    """Intersection of every open set that is a union of classes and holds class c."""
    result = (1 << space.n) - 1
    for s in open_masks_by_definition(space):
        if class_masks[c] & ~s:
            continue
        if any(cm & s and cm & ~s for cm in class_masks):
            continue
        result &= s
    return result


def quotient_masks_by_fixpoint(space: Space, class_of: tuple[int, ...]) -> list[int]:
    """Neighborhood of each class of the quotient, by a whole-set fixpoint.

    Starting from a class, every round unions the neighborhoods of all
    points collected so far and then every class that meets the result,
    until nothing changes; the answer is the set of classes collected.
    Works on Python sets of points, so it scales to a few hundred points
    where the powerset oracle above cannot.
    """
    k = max(class_of, default=-1) + 1
    members = [{x for x in range(space.n) if class_of[x] == c} for c in range(k)]
    out = []
    for c in range(k):
        w = set(members[c])
        while True:
            grown = set(w)
            for y in w:
                grown.update(bits_of(space.masks[y]))
            for d in {class_of[y] for y in grown}:
                grown |= members[d]
            if grown == w:
                break
            w = grown
        out.append(sum(1 << d for d in {class_of[y] for y in w}))
    return out


def _distinct(space: Space) -> list[int]:
    return list(dict.fromkeys(space.masks))


def is_irreducible_by_definition(space: Space, x: int) -> bool:
    """No neighborhood is properly contained in S(x)."""
    d = space.masks[x]
    return all(m == d or m & ~d for m in _distinct(space))


def is_basic_by_definition(space: Space, x: int) -> bool:
    """Both clauses of "basic", checked against every pair of neighborhoods.

    (a) whenever S(x) sits inside some e alongside an f, it sits inside
    f; (b) S(x) is disjoint from every neighborhood it is not inside.
    """
    d = space.masks[x]
    distinct = _distinct(space)
    for e in distinct:
        if d & ~e == 0:
            for f in distinct:
                if f & ~e == 0 and d & ~f:
                    return False
        elif d & e:
            return False
    return True


def maximal_masks_by_definition(space: Space) -> list[int]:
    """Inclusion-maximal neighborhoods, in first-owner order."""
    distinct = _distinct(space)
    return [
        d for d in distinct if not any(e != d and d & ~e == 0 for e in distinct)
    ]


def index_by_definition(space: Space) -> int:
    """Number of distinct neighborhoods that are basic."""
    return len({space.masks[x] for x in range(space.n) if is_basic_by_definition(space, x)})


def is_hausdorff_by_definition(space: Space) -> bool:
    """The neighborhoods of any two distinct points are disjoint."""
    return not any(
        space.masks[x] & space.masks[y]
        for x, y in combinations(range(space.n), 2)
    )


def continuous_by_preimage(src: Space, dst: Space, f: tuple[int, ...]) -> bool:
    """Every preimage of a target neighborhood is open in the source."""
    opens = set(open_masks_by_definition(src))
    for y in range(dst.n):
        pre = 0
        for x in range(src.n):
            if dst.masks[y] >> f[x] & 1:
                pre |= 1 << x
        if pre not in opens:
            return False
    return True


def first_violation_by_sets(
    masks: list[int], images: list[int] | None = None
) -> tuple[int, int] | None:
    """The first (x, y) in id order with y in S(x) but I(y) not a subset of I(x).

    I is ``images`` read as sets, or S itself when it is not given.
    """
    sets = [set(bits_of(m)) for m in masks]
    imgs = sets if images is None else [set(bits_of(m)) for m in images]
    for x, sx in enumerate(sets):
        for y in sorted(sx):
            if not imgs[y] <= imgs[x]:
                return x, y
    return None


def continuity_witness_by_definition(src: Space, dst: Space, f: tuple[int, ...]) -> int | None:
    """The first source point x whose f(S(x)) is not a subset of S(f(x)), or None."""
    for x in range(src.n):
        image = {f[y] for y in bits_of(src.masks[x])}
        if not image <= set(bits_of(dst.masks[f[x]])):
            return x
    return None


def first_intransitive_triple(n: int, pairs) -> tuple[int, int, int] | None:
    """The least (a, b, c) with a <= b and b <= c in the relation but not a <= c."""
    rel = set(pairs)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if (a, b) in rel and (b, c) in rel and (a, c) not in rel:
                    return a, b, c
    return None


def glue_conflict_pairwise(x: Space, reps: list[int], locals_: list[dict[int, int]]) -> int | None:
    """The point where two local maps first disagree, by the pairwise overlap loop.

    This is the loop ``maps.glue`` ran before it made one pass, kept as
    the reference for the point that NotWellDefined names.
    """
    k = len(reps)
    for i in range(k):
        for j in range(i + 1, k):
            overlap = x.masks[reps[i]] & x.masks[reps[j]]
            if not overlap:
                continue
            for p in bits_of(overlap):
                if locals_[i][p] != locals_[j][p]:
                    return p
    return None


def hasse_edges_pairwise(masks: list[int]) -> list[tuple[int, int]]:
    """The (y, x) cover edges DOT draws, by the triple loop ``to_dot`` once ran.

    y -> x is kept unless some z in S(x) other than x and y has y in S(z)
    and S(z) equal to neither S(x) nor S(y).
    """
    edges = []
    for x in range(len(masks)):
        for y in bits_of(masks[x]):
            if y == x:
                continue
            keep = True
            for z in bits_of(masks[x]):
                if z in (x, y):
                    continue
                if masks[z] >> y & 1 and masks[z] not in (masks[x], masks[y]):
                    keep = False
                    break
            if keep:
                edges.append((y, x))
    return edges


def divisor_masks_by_trial_division(bound: int) -> list[int]:
    """Mask of point m - 1 holds bit d - 1 for every d in 1..m dividing m."""
    return [
        sum(1 << (d - 1) for d in range(1, m + 1) if m % d == 0)
        for m in range(1, bound + 1)
    ]


def random_space_masks_by_warshall(n: int, seed: int, density: float) -> list[int]:
    """``random_space``'s masks from its documented draws and a Warshall closure.

    Replays the draws (every pair i < j in row order, then one shuffle of
    the ids), closes the relation as a boolean matrix, and gives the
    point renamed perm[j] the renamed members of the down-set of j.
    """
    rng = random.Random(seed)
    up_edges = [[j for j in range(i + 1, n) if rng.random() < density] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, ups in enumerate(up_edges):
        for j in ups:
            leq[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    masks = [0] * n
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                masks[perm[j]] |= 1 << perm[i]
    return masks


def least_isomorphism_backtracking(
    a_masks: list[int], b_masks: list[int], budget: int
) -> tuple[int, ...] | None:
    """The least f (as a tuple) with f(S(x)) = S(f(x)) for every x, or None.

    Assigns x = 0, 1, ... in order and tries targets ascending, keeping a
    target only when |S| agrees and membership agrees, both ways, with
    every point already assigned; the first complete map is therefore
    the least.  More than ``budget`` kept assignments raise RuntimeError.
    """
    n = len(a_masks)
    if n != len(b_masks):
        return None
    f: list[int] = []
    used = [False] * n
    spent = 0

    def fits(x: int, y: int) -> bool:
        if used[y] or a_masks[x].bit_count() != b_masks[y].bit_count():
            return False
        return all(
            (a_masks[x] >> x2 & 1) == (b_masks[y] >> y2 & 1)
            and (a_masks[x2] >> x & 1) == (b_masks[y2] >> y & 1)
            for x2, y2 in enumerate(f)
        )

    def extend(x: int) -> bool:
        nonlocal spent
        if x == n:
            return True
        for y in range(n):
            if fits(x, y):
                spent += 1
                if spent > budget:
                    raise RuntimeError(f"backtracking budget {budget} exceeded")
                f.append(y)
                used[y] = True
                if extend(x + 1):
                    return True
                f.pop()
                used[y] = False
        return False

    return tuple(f) if extend(0) else None


def refine_colors_by_rounds(down, up, initial=None) -> list[int]:
    """Color refinement that re-ranks every point every round.

    The round-synchronous reference for ``_refine.refine_colors``: each
    round ranks all points by (color, sorted colors of ``down[x]``, sorted
    colors of ``up[x]``) and stops once the number of colors stops growing.
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


def open_family_missing_pairwise(n: int, family: list[int]) -> int | None:
    """The first set a topology on n points would need but the family lacks, or None.

    The closure check ``from_open_family`` once made: the empty set and
    the full carrier, then the union and the intersection of every pair of
    distinct members, in ``combinations`` order.
    """
    bits = list(dict.fromkeys(family))
    present = set(bits)
    for needed in (0, (1 << n) - 1):
        if needed not in present:
            return needed
    for a, b in combinations(bits, 2):
        for needed in (a | b, a & b):
            if needed not in present:
                return needed
    return None


def basis_by_points(n: int, family: list[int]) -> tuple[int, ...] | tuple[str, int]:
    """Each point's least containing member, or the first point that has none.

    Returns the masks, or ("NotCovered", x) for the least point x in no
    member, or ("NoMinimalSet", x) for the least point x whose members'
    intersection is not a member.  Points are taken one at a time, as
    ``from_basis`` once did.
    """
    masks = []
    for x in range(n):
        containing = [b for b in family if b >> x & 1]
        if not containing:
            return ("NotCovered", x)
        inter = containing[0]
        for b in containing:
            inter &= b
        if inter not in containing:
            return ("NoMinimalSet", x)
        masks.append(inter)
    return tuple(masks)

"""Color refinement and canonical ordering of neighborhood structures.

Works on raw bitmask arrays (``masks[x]`` = members of the minimal
neighborhood of ``x``) so it can be shared by canonicalization and the
homeomorphism search without importing the space types.

Colors are dense integer ranks.  When several mask arrays are refined
together, the ranks are assigned globally, so equal colors mean equal
iterated fingerprints across the whole pool.
"""

from __future__ import annotations

from typing import Iterator, Sequence


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


def refine_colors(
    pool: Sequence[Sequence[int]],
    initial: Sequence[Sequence[int]] | None = None,
) -> list[list[int]]:
    """Stable iterated-fingerprint colors for each mask array in the pool.

    The starting fingerprint of a point is (|S(x)|, sorted sizes of the
    members' neighborhoods); rounds then fold in the sorted colors of the
    members of S(x) and of the points whose neighborhood contains x.
    Refinement only ever splits color classes, so iteration stops as soon
    as the number of distinct colors stops growing.
    """
    ups = [up_masks(masks) for masks in pool]

    if initial is None:
        sigs: list[list[tuple]] = [
            [
                (m.bit_count(), tuple(sorted(masks[y].bit_count() for y in iter_bits(m))))
                for m in masks
            ]
            for masks in pool
        ]
    else:
        sigs = [[(c,) for c in colors] for colors in initial]

    colors = _rank(sigs)
    prev_distinct = -1
    while True:
        distinct = len({c for cs in colors for c in cs})
        if distinct == prev_distinct:
            return colors
        prev_distinct = distinct
        sigs = []
        for idx, masks in enumerate(pool):
            cs = colors[idx]
            us = ups[idx]
            sigs.append(
                [
                    (
                        cs[x],
                        tuple(sorted(cs[y] for y in iter_bits(masks[x]))),
                        tuple(sorted(cs[z] for z in iter_bits(us[x]))),
                    )
                    for x in range(len(masks))
                ]
            )
        colors = _rank(sigs)


def _rank(sigs: list[list[tuple]]) -> list[list[int]]:
    order = {s: i for i, s in enumerate(sorted({s for ss in sigs for s in ss}))}
    return [[order[s] for s in ss] for ss in sigs]


def _swap_bits(mask: int, p: int, q: int) -> int:
    bp = mask >> p & 1
    bq = mask >> q & 1
    if bp != bq:
        mask ^= (1 << p) | (1 << q)
    return mask


def transposition_is_symmetry(masks: Sequence[int], p: int, q: int) -> bool:
    """True when exchanging points p and q leaves the structure unchanged."""
    for z, m in enumerate(masks):
        if z == p or z == q:
            continue
        if (m >> p & 1) != (m >> q & 1):
            return False
    return _swap_bits(masks[p], p, q) == masks[q]


def _encode(masks: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
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


def canonical_order(masks: Sequence[int]) -> tuple[int, ...]:
    """An ordering of the points whose induced relabeling is canonical.

    Points are arranged by refined color; ties are resolved by
    individualizing one candidate at a time and keeping the ordering with
    the lexicographically least relabeled mask table.  Candidates related
    by a transposition symmetry are interchangeable and only tried once;
    no symmetry that moves more than two points is pruned, so the search
    still visits b! leaves on ``blocks(b, m)``.
    The relabeled table depends only on the structure, never on the
    incoming point numbering.
    """
    n = len(masks)
    if n <= 1:
        return tuple(range(n))

    best: dict[str, object] = {"enc": None, "order": None}

    def descend(colors: list[int]) -> None:
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        tied = [c for c, k in counts.items() if k > 1]
        if not tied:
            order = tuple(sorted(range(n), key=colors.__getitem__))
            enc = _encode(masks, order)
            if best["enc"] is None or enc < best["enc"]:  # type: ignore[operator]
                best["enc"] = enc
                best["order"] = order
            return
        cell_color = min(tied)
        cell = [p for p in range(n) if colors[p] == cell_color]
        reps: list[int] = []
        for p in cell:
            if not any(transposition_is_symmetry(masks, r, p) for r in reps):
                reps.append(p)
        for cand in reps:
            seed = [colors[p] * 2 + (0 if p == cand else 1) for p in range(n)]
            descend(refine_colors([masks], initial=[seed])[0])

    descend(refine_colors([masks])[0])
    return best["order"]  # type: ignore[return-value]

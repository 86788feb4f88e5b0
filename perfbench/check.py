"""Independent oracles used to check the program's answers.

Everything here works on plain lists of neighborhood bitmasks
(``masks[x]`` = members of the minimal open neighborhood of ``x``) and
imports nothing from ``finitetop``, so a defect in the library cannot
hide itself by also breaking the check.
"""

from __future__ import annotations

import hashlib
import random


class Mismatch(Exception):
    """An answer that disagrees with the benchmark's own oracle."""


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def relabel(masks, perm):
    """Masks of the same structure with point x renamed to perm[x]."""
    out = [0] * len(masks)
    for x, m in enumerate(masks):
        t = 0
        for y in bits(m):
            t |= 1 << perm[y]
        out[perm[x]] = t
    return out


def permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def is_isomorphism(a, b, f) -> bool:
    """True iff f is a bijection carrying every neighborhood of a onto b's."""
    n = len(a)
    if len(b) != n or sorted(f) != list(range(n)):
        return False
    for x in range(n):
        img = 0
        for y in bits(a[x]):
            img |= 1 << f[y]
        if img != b[f[x]]:
            return False
    return True


def is_continuous(a, b, f) -> bool:
    """Pointwise criterion: f(S(x)) lies inside S(f(x)) for every x."""
    for x, m in enumerate(a):
        img = 0
        for y in bits(m):
            img |= 1 << f[y]
        if img & ~b[f[x]]:
            return False
    return True


def components(masks) -> int:
    """Number of connected components of the specialization relation."""
    n = len(masks)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, m in enumerate(masks):
        for y in bits(m):
            parent[find(y)] = find(x)
    return len({find(x) for x in range(n)})


def crown(k: int) -> list[int]:
    """The 2k-point crown: minima 0..k-1, maximum k+i above i and i+1 (mod k)."""
    lows = [1 << i for i in range(k)]
    highs = [(1 << (k + i)) | (1 << i) | (1 << ((i + 1) % k)) for i in range(k)]
    return lows + highs


def disjoint_sum(a, b) -> list[int]:
    return list(a) + [m << len(a) for m in b]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def shape(masks) -> str:
    """A digest of the structure that no relabeling of the points changes."""
    sizes = sorted(m.bit_count() for m in masks)
    distinct = sorted(m.bit_count() for m in set(masks))
    return sha(f"{len(masks)}|{sizes}|{distinct}")


def parse_document(text: str):
    """Read a space document without the library: (name, labels, masks)."""
    name = None
    labels: list[str] = []
    index: dict[str, int] = {}
    rows: dict[str, list[str]] = {}
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        if toks[0] == "space":
            name = toks[1]
        elif toks[0] == "points":
            labels = toks[1:]
            index = {lab: i for i, lab in enumerate(labels)}
        elif toks[0] == "nbhd":
            rows[toks[1].rstrip(":")] = toks[2:]
        else:
            raise Mismatch(f"unexpected record {toks[0]!r}")
    if name is None or len(rows) != len(labels):
        raise Mismatch("document is incomplete")
    masks = []
    for lab in labels:
        m = 0
        for member in rows[lab]:
            m |= 1 << index[member]
        masks.append(m)
    return name, labels, masks


def render_document(name: str, labels, masks) -> str:
    """The canonical text of a space document, written without the library."""
    lines = [f"space {name}", " ".join(["points", *labels])]
    for lab, m in zip(labels, masks):
        lines.append(" ".join([f"nbhd {lab}:", *(labels[y] for y in bits(m))]))
    return "\n".join(lines) + "\n"

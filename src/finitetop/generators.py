"""Stock spaces and a seeded random-space generator.

The chain, block, and divisor spaces are finite truncations of familiar
non-Hausdorff examples: nested closed balls around the origin, pairwise
disjoint unit intervals, and the lattice of finite root-of-unity groups
on the circle (one representative point per group order, plus an optional
top point standing in for the whole circle).  Truncation parameters
matter: invariants of a truncation are not those of the infinite space.
"""

from __future__ import annotations

from collections.abc import Callable

from ._value import Value
from .core import Space
from .errors import InvalidArgument


def chain(k: int) -> Space:
    """Totally ordered space: the neighborhood of i is {0, ..., i}."""
    if k < 1:
        raise InvalidArgument("chain needs at least one point")
    return Space._of(k, tuple((1 << (i + 1)) - 1 for i in range(k)))


def blocks(b: int, m: int) -> Space:
    """``b`` disjoint groups of ``m`` points, each group indiscrete inside."""
    if b < 1 or m < 1:
        raise InvalidArgument("blocks needs positive block count and size")
    group = (1 << m) - 1
    return Space._of(b * m, tuple(group << (i * m) for i in range(b) for _ in range(m)))


def divisor(bound: int, with_top: bool = False) -> Space:
    """Divisibility space on 1..bound: the neighborhood of m is its divisors.

    With ``with_top`` an extra point labeled ``w`` is adjoined whose
    neighborhood is the entire carrier, playing the role of a single
    maximal element above every order.
    """
    if bound < 1:
        raise InvalidArgument("divisor needs a positive bound")
    n = bound + 1 if with_top else bound
    nb = [0] * bound
    for d in range(1, bound + 1):
        for m in range(d - 1, bound, d):
            nb[m] |= 1 << (d - 1)
    labels = [str(m) for m in range(1, bound + 1)]
    if with_top:
        nb.append((1 << n) - 1)
        labels.append("w")
    return Space._of(n, tuple(nb), tuple(labels))


def discrete(n: int) -> Space:
    if n < 0:
        raise InvalidArgument("negative size")
    return Space._of(n, tuple(1 << x for x in range(n)))


def indiscrete(n: int) -> Space:
    if n < 0:
        raise InvalidArgument("negative size")
    return Space._of(n, ((1 << n) - 1,) * n)


def random_space(n: int, seed: int, density: float = 0.5) -> Space:
    """Seeded random space; identical arguments give identical output.

    Draws each index pair (i, j) with i < j as a strict relation with
    probability ``density``, then renames the points by a seeded shuffle
    so structure is not aligned with index order.  Neighborhoods are
    written under the new names in index order, each the union of its
    point and the finished neighborhoods of the points drawn below it.
    Density 0 gives the discrete space, density 1 a renamed chain.
    """
    if n < 0:
        raise InvalidArgument("negative size")
    if not 0.0 <= density <= 1.0:
        raise InvalidArgument("density must lie in [0, 1]")
    import random  # loaded only here, off the import path of every command

    rng = random.Random(seed)
    up_edges = [
        [j for j in range(i + 1, n) if rng.random() < density] for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    down = [1 << p for p in perm]
    for i, ups in enumerate(up_edges):
        for j in ups:
            down[j] |= down[i]
    masks = [0] * n
    for j, p in enumerate(perm):
        masks[p] = down[j]
    return Space._of(n, tuple(masks))


class GeneratorSpec(Value):
    """A parsed request for one stock space; see :meth:`build`."""

    def __init__(
        self, kind: str, length: int = 0, block_count: int = 0, block_size: int = 0,
        bound: int = 0, with_top: bool = False, size: int = 0, seed: int = 0,
        density: float = 0.5,
    ) -> None:
        self.__dict__.update(
            kind=kind, length=length, block_count=block_count, block_size=block_size,
            bound=bound, with_top=with_top, size=size, seed=seed, density=density,
        )

    def build(self) -> Space:
        kind = _kind(self.kind)
        return kind.build(*(getattr(self, f) for f in kind.params + kind.flags))

    def name(self) -> str:
        return _kind(self.kind).name(self)


class GeneratorKind(Value):
    """One row of :data:`GENERATOR_KINDS`.

    ``build`` takes the ``params`` fields, then the ``flags`` fields.  On
    the command line ``params`` are positional integers, in order, and
    ``flags`` are the options of the same name.
    """

    def __init__(
        self, build: Callable[..., Space], params: tuple[str, ...], flags: tuple[str, ...],
        name: Callable[[GeneratorSpec], str],
    ) -> None:
        self.__dict__.update(build=build, params=params, flags=flags, name=name)


GENERATOR_KINDS = {
    "chain": GeneratorKind(chain, ("length",), (), lambda s: f"chain-{s.length}"),
    "blocks": GeneratorKind(
        blocks, ("block_count", "block_size"), (),
        lambda s: f"blocks-{s.block_count}x{s.block_size}",
    ),
    "divisor": GeneratorKind(
        divisor, ("bound",), ("with_top",),
        lambda s: f"divisor-{s.bound}-top" if s.with_top else f"divisor-{s.bound}",
    ),
    "discrete": GeneratorKind(discrete, ("size",), (), lambda s: f"discrete-{s.size}"),
    "indiscrete": GeneratorKind(indiscrete, ("size",), (), lambda s: f"indiscrete-{s.size}"),
    "random": GeneratorKind(
        random_space, ("size",), ("seed", "density"),
        lambda s: f"random-{s.size}-{s.seed}-{s.density}",
    ),
}


def _kind(kind: str) -> GeneratorKind:
    if kind not in GENERATOR_KINDS:
        raise InvalidArgument(f"unknown generator kind {kind!r}")
    return GENERATOR_KINDS[kind]

"""Maps between spaces: continuity, openness, images, homeomorphisms, gluing.

A continuous image of one of these spaces need not have minimal
neighborhoods in general topology (infinite counterexamples exist), which
is why the image construction here additionally demands an open map; with
both conditions the image carries neighborhoods f(S(x)).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import _refine
from ._refine import DEFAULT_SEARCH_BUDGET, iter_bits
from ._value import Value
from .constructions import subspace
from .core import PointSet, Space
from .errors import (
    InternalError,
    InvalidArgument,
    InvalidGlueData,
    NotContinuous,
    NotOpen,
    NotWellDefined,
    ResultNotHomeomorphism,
)


class SpaceMap(Value):
    """A point function between two spaces; f[x] is the image of x."""

    def __init__(self, source: Space, target: Space, f: Sequence[int]) -> None:
        f = tuple(f)
        if len(f) != source.n:
            raise InvalidArgument(f"expected {source.n} images, got {len(f)}")
        for x, y in enumerate(f):
            if not 0 <= y < target.n:
                raise InvalidArgument(f"f[{x}] = {y} outside target carrier")
        self.__dict__.update(source=source, target=target, f=f)

    def image_of(self, mask: int) -> int:
        return _refine.image(mask, self.f)

    def image_bits(self) -> int:
        return _refine.image((1 << self.source.n) - 1, self.f)


def is_continuous(m: SpaceMap) -> bool:
    """True iff f(S(x)) lies inside S(f(x)) for every source point x.

    This pointwise criterion is equivalent to every preimage of a target
    basis set being open.  In a valid target f(y) ∈ S(f(x)) exactly when
    S(f(y)) ⊆ S(f(x)), so f is continuous iff y ∈ S(x) implies
    S(f(y)) ⊆ S(f(x)): it preserves the specialization order.  That is
    the down-closure test ``_refine.closure_violation`` makes in
    near-linear time when it validates a space, run on the images.
    """
    return _continuity_witness(m) is None


def _continuity_witness(m: SpaceMap) -> int | None:
    """The least source point x with f(S(x)) not inside S(f(x)), or None."""
    bad = _refine.closure_violation(m.source.masks, list(map(m.target.masks.__getitem__, m.f)))
    return None if bad is None else bad[0]


def _openness_witness(m: SpaceMap) -> int | None:
    image = m.image_bits()
    for x in range(m.source.n):
        fs = m.image_of(m.source.masks[x])
        for y in iter_bits(fs):
            if m.target.masks[y] & image & ~fs:
                return x
    return None


def is_open_map(m: SpaceMap) -> bool:
    """True iff each f(S(x)) is open in the subspace f(X) of the target."""
    return _openness_witness(m) is None


def image_space(m: SpaceMap) -> tuple[Space, SpaceMap]:
    """The image of a continuous open map, with the corestricted map.

    NotContinuous names the least x with f(S(x)) not inside S(f(x)),
    found by the order-preservation check of ``is_continuous``, and
    NotOpen the least x with f(S(x)) not open in f(X).  The image
    subspace has minimal neighborhoods f(S(x)); this is re-verified
    point by point before returning.
    """
    w = _continuity_witness(m)
    if w is not None:
        raise NotContinuous(w)
    w = _openness_witness(m)
    if w is not None:
        raise NotOpen(w)
    image = PointSet(m.target.n, m.image_bits())
    sub = subspace(m.target, image)
    index = {p: i for i, p in enumerate(image.members())}
    core_f = tuple(index[y] for y in m.f)
    cores = SpaceMap(m.source, sub, core_f)
    for x in range(m.source.n):
        if sub.masks[core_f[x]] != cores.image_of(m.source.masks[x]):
            raise InternalError("image neighborhoods differ from mapped neighborhoods")
    return sub, cores


def _is_structure_isomorphism(a: Space, b: Space, f: Sequence[int]) -> bool:
    """True iff f is a bijection that maps each S(x) onto S(f(x)).

    An order-preserving bijection maps S(x) into S(f(x)), and onto it
    when the two have the same size.
    """
    if a.n != b.n or sorted(f) != list(range(a.n)):
        return False
    images = list(map(b.masks.__getitem__, f))
    sizes = list(map(int.bit_count, a.masks)) == list(map(int.bit_count, images))
    return sizes and _refine.closure_violation(a.masks, images) is None


def find_homeomorphism(
    a: Space,
    b: Space,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> SpaceMap | None:
    """The lexicographically least homeomorphism from a to b (by its f array), or None.

    Every intersection of open sets is open here, so a homeomorphism is
    an isomorphism of the mask tables, found as in McKay's test
    ("Practical graph isomorphism", 1981).  One full canonical search
    runs on a.  a's canonical table is the least leaf table of a's
    search tree, and homeomorphic spaces have the same leaf tables, so a
    matching search walks b's tree only until a leaf's table equals it
    (that leaf gives a homeomorphism φ) or is less than it (None); a walk
    that ends without either also answers None.  Each walk has its own
    individualization budget (SearchBudgetExceeded).  The homeomorphisms
    are h ∘ φ for h in Aut(b) = φ Aut(a) φ⁻¹, and ``_refine.least_map``
    picks the least of them from a's generators carried over to b.
    They form a strong generating set along the image of a's first path;
    conjugation and adjacent base swaps bring that base into φ's order.
    Spaces whose neighborhood sizes differ as multisets answer None
    before any search.
    """
    if sorted(map(int.bit_count, a.masks)) != sorted(map(int.bit_count, b.masks)):
        return None
    ra = _refine.canonical_order(a.masks, budget=budget)
    rb = _refine.canonical_order(b.masks, budget=budget, target=ra.encoding)
    if rb.encoding != ra.encoding:
        return None
    phi = _refine.order_map(ra.order, rb.order)
    # The search records a swap again at each node where it applies; one copy suffices.
    gens = [_refine.order_map(phi, [phi[y] for y in g]) for g in dict.fromkeys(ra.generators)]
    f = _refine.least_map(gens, phi, ra.aut, [phi[y] for y in ra.base])
    if not _is_structure_isomorphism(a, b, f):
        raise InternalError("search returned a map that is not a homeomorphism")
    return SpaceMap(a, b, tuple(f))


class GlueData(Value):
    """Input for assembling a homeomorphism from per-neighborhood pieces.

    ``neighborhood_bijection`` pairs a representative point of each
    distinct neighborhood of the source with one of the target; the
    pairing must be a bijection between the two families of distinct
    neighborhoods.  ``local_maps[i]`` is the corresponding local
    bijection, stored as sorted (source point, target point) pairs whose
    keys are exactly the members of the source neighborhood and whose
    values are exactly the members of the target one.
    """

    def __init__(
        self,
        neighborhood_bijection: Sequence[Sequence[int]],
        local_maps: Sequence[Sequence[Sequence[int]]],
    ) -> None:
        neighborhood_bijection = tuple(map(tuple, neighborhood_bijection))
        local_maps = tuple(tuple(map(tuple, m)) for m in local_maps)
        if len(neighborhood_bijection) != len(local_maps):
            raise InvalidArgument("one local map is required per neighborhood pair")
        self.__dict__.update(neighborhood_bijection=neighborhood_bijection, local_maps=local_maps)

    @classmethod
    def build(
        cls,
        pairs: Iterable[tuple[int, int]],
        local_maps: Iterable[dict[int, int]],
    ) -> "GlueData":
        return cls(list(pairs), [sorted(m.items()) for m in local_maps])


def glue(x: Space, y: Space, g: GlueData) -> SpaceMap:
    """Assemble a homeomorphism from a neighborhood bijection and local maps.

    One pass over the listed neighborhoods checks each local map and sets
    f[p] from the first neighborhood holding p.  Overlapping neighborhoods
    must agree pointwise, which is what makes the map well defined;
    NotWellDefined names the point p of the least triple (i, j, p) where
    listed neighborhoods i < j disagree (i is then the first one holding
    p), and is raised only once every local map has passed its checks.
    A well-defined f is onto y, as every target neighborhood is listed
    and each local map is onto its own, so it is a bijection exactly
    when x.n == y.n; ResultNotHomeomorphism is raised otherwise.  A
    bijection is a homeomorphism: f(S(x)) is a target neighborhood
    holding f(x), so it contains S(f(x)), and S(f(x)) is f(M) for the M
    paired with it, where injectivity puts x, so f(S(x)) ⊆ S(f(x)).
    The result is re-checked all the same (InternalError).
    """
    reps_x = [r for r, _ in g.neighborhood_bijection]
    reps_y = [r for _, r in g.neighborhood_bijection]
    for r in reps_x:
        if not 0 <= r < x.n:
            raise InvalidGlueData(f"source representative {r} outside carrier")
    for r in reps_y:
        if not 0 <= r < y.n:
            raise InvalidGlueData(f"target representative {r} outside carrier")
    src_sets = [x.masks[r] for r in reps_x]
    dst_sets = [y.masks[r] for r in reps_y]
    if len(set(src_sets)) != len(src_sets):
        raise InvalidGlueData("listed source neighborhoods are not pairwise distinct")
    if len(set(dst_sets)) != len(dst_sets):
        raise InvalidGlueData("listed target neighborhoods are not pairwise distinct")
    if set(src_sets) != set(x.distinct_masks):
        raise InvalidGlueData("listed source neighborhoods do not exhaust the space")
    if set(dst_sets) != set(y.distinct_masks):
        raise InvalidGlueData("listed target neighborhoods do not exhaust the space")
    f = [-1] * x.n  # every point's own neighborhood is listed, so each is set
    first = [-1] * x.n  # the first listed neighborhood holding each point
    clashes = []
    for j, entries in enumerate(g.local_maps):
        local = dict(entries)
        if len(local) != len(entries):
            raise InvalidGlueData(f"local map {j} repeats a source point")
        if local.keys() != set(iter_bits(src_sets[j])):
            raise InvalidGlueData(
                f"local map {j} is not defined on exactly the members of its neighborhood"
            )
        values = set(local.values())
        if values != set(iter_bits(dst_sets[j])) or len(values) != len(local):
            raise InvalidGlueData(
                f"local map {j} is not a bijection onto the target neighborhood"
            )
        for p, v in local.items():
            if first[p] < 0:
                f[p], first[p] = v, j
            elif v != f[p]:
                clashes.append((first[p], j, p))
    if clashes:
        raise NotWellDefined(min(clashes)[2])
    if x.n != y.n:
        raise ResultNotHomeomorphism()
    if not _is_structure_isomorphism(x, y, f):
        raise InternalError("glued map is not a homeomorphism")
    return SpaceMap(x, y, tuple(f))

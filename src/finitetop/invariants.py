"""Structure theory of a space: irreducible and basic neighborhoods, the
minimum neighborhood cover, the basic-set count, and separation flags.

Set containment is read non-strictly throughout: an irreducible
neighborhood is one with no proper neighborhood below it, and a basic one
additionally meets no neighborhood it is not contained in.  All counts
are counts of distinct sets, not of points: a neighborhood shared by many
points contributes once.

Everything is read off one pass mapping each distinct neighborhood e to
``owners[e]``, its class of points x with S(x) = e.  As S(y) ⊆ S(x)
exactly when y ∈ S(x):

- S(x) is irreducible ⇔ x is minimal ⇔ S(x) = owners[S(x)];
- S(x) is inclusion-maximal ⇔ x lies in no ``e & ~owners[e]``;
- S(x) is basic ⇔ x is minimal and no neighborhood holds x together with
  a minimal point of another class ⇔ x's class is the least element of
  its connected component (clause (b) follows from irreducibility), so
  ``index`` is the number of connected components with a least point;
- the space is Hausdorff ⇔ Σ|S(x)| = |⋃ S(x)| (= n), so the sum stops
  once it passes n.

The minimal and basic points are unions of whole classes, so one point
per distinct irreducible or basic neighborhood is read off the same pass
as their meet with ``reps``, the least id of every minimal class.
"""

from __future__ import annotations

from . import _refine
from ._value import Value
from .core import PointSet, Space
from .errors import EmptySpace, InternalError


class _Classes(Value):
    """What :func:`_classify` finds.

    ``owners`` maps each distinct neighborhood to the bits of its owners,
    in first-owner order; ``minimal`` and ``basic`` hold every point whose
    neighborhood is irreducible, resp. basic; ``maximal`` lists the
    maximal neighborhoods in first-owner order; ``reps`` holds the least
    id of every minimal class.
    """

    def __init__(
        self, owners: dict[int, int], minimal: int, basic: int, maximal: list[int], reps: int
    ) -> None:
        self.__dict__.update(
            owners=owners, minimal=minimal, basic=basic, maximal=maximal, reps=reps
        )


def _classify(space: Space) -> _Classes:
    """The one pass every invariant reads off; see the module docstring."""
    masks = space.masks
    owners = _refine.owners(masks)
    minimal = below = spoiled = reps = 0  # below: points in a neighborhood not their own
    for e, o in owners.items():
        if e == o:
            minimal |= o
            reps |= o & -o
        else:
            below |= e ^ o  # o lies inside e
    # Every neighborhood holds a minimal point; it spoils basicness when
    # its minimal points are not a single class, whose neighborhood any
    # of them, here the highest, would have.
    for e in owners:
        m = e & minimal
        if m != masks[m.bit_length() - 1]:
            spoiled |= m
    maximal = [e for e, o in owners.items() if not o & below]
    return _Classes(owners, minimal, minimal & ~spoiled, maximal, reps)


def is_irreducible(space: Space, x: int) -> bool:
    """True iff no neighborhood is properly contained in that of x."""
    return _classify(space).minimal >> x & 1 == 1


def is_basic(space: Space, x: int) -> bool:
    """True iff the neighborhood of x is basic.

    Two clauses: (a) whenever it sits inside some S(y) alongside an
    S(z), it also sits inside S(z); (b) it is disjoint from every
    neighborhood it is not contained in.
    """
    return _classify(space).basic >> x & 1 == 1


def min_of(space: Space) -> tuple[int, list[PointSet]]:
    """Minimum number of minimal neighborhoods covering the space, with a witness.

    Any cover must contain every inclusion-maximal neighborhood (a
    covering set around a point of a maximal one contains it, and
    maximality forces equality), and the maximal ones do cover, so the
    answer is the number of distinct maximal neighborhoods.  The witness
    lists them in first-owner order.
    """
    if space.n == 0:
        raise EmptySpace()
    masks = _classify(space).maximal
    return len(masks), [PointSet(space.n, m) for m in masks]


def index_of(space: Space) -> int:
    """Number of distinct basic neighborhoods."""
    if space.n == 0:
        raise EmptySpace()
    c = _classify(space)
    return (c.basic & c.reps).bit_count()


def is_hausdorff(space: Space) -> bool:
    """True iff the neighborhoods of any two distinct points are disjoint."""
    total = 0
    for m in space.masks:
        total += m.bit_count()
        if total > space.n:
            return False
    return total == space.n


def is_discrete(space: Space) -> bool:
    """True iff every neighborhood is the singleton of its point."""
    return all(m == 1 << x for x, m in enumerate(space.masks))


class InvariantReport(Value):
    """All computed invariants of one space.

    ``basic_points`` and ``irreducible_points`` hold one representative
    point (the least id) per distinct basic / irreducible neighborhood.
    """

    def __init__(
        self, n: int, distinct_neighborhoods: int, min_x: int, index_x: int,
        maximal_nbhds: tuple[PointSet, ...], basic_points: PointSet,
        irreducible_points: PointSet, is_discrete: bool, is_hausdorff: bool, is_t0: bool,
    ) -> None:
        self.__dict__.update(
            n=n, distinct_neighborhoods=distinct_neighborhoods, min_x=min_x, index_x=index_x,
            maximal_nbhds=maximal_nbhds, basic_points=basic_points,
            irreducible_points=irreducible_points, is_discrete=is_discrete,
            is_hausdorff=is_hausdorff, is_t0=is_t0,
        )


def report(space: Space) -> InvariantReport:
    """Assemble the full report; internal consistency is checked."""
    if space.n == 0:
        raise EmptySpace()
    c = _classify(space)
    basic = c.basic & c.reps
    rep = InvariantReport(
        n=space.n,
        distinct_neighborhoods=len(c.owners),
        min_x=len(c.maximal),
        index_x=basic.bit_count(),
        maximal_nbhds=tuple(PointSet(space.n, m) for m in c.maximal),
        basic_points=PointSet(space.n, basic),
        irreducible_points=PointSet(space.n, c.minimal & c.reps),
        is_discrete=is_discrete(space),
        is_hausdorff=is_hausdorff(space),
        is_t0=len(c.owners) == space.n,
    )
    if rep.index_x > rep.min_x:
        raise InternalError("index exceeds min")
    if not rep.basic_points.issubset(rep.irreducible_points):
        raise InternalError("a basic point is not irreducible")
    if rep.is_hausdorff != rep.is_discrete:
        raise InternalError("Hausdorff and discrete disagree")
    covered = 0
    for m in c.maximal:
        covered |= m
    if covered != (1 << space.n) - 1:
        raise InternalError("the maximal neighborhoods do not cover the space")
    return rep

"""Every space built without validation is valid.

Constructions, generators and the census enumerator build their output
through the unchecked ``Space._of`` because it is valid by theorem.
These tests pass that output through the validating
``from_neighborhoods`` instead, so the check runs here and not on every
call in the library.
"""

from hypothesis import given
from hypothesis import strategies as st

from finitetop.census import enumerate_spaces
from finitetop.constructions import (
    Partition,
    disjoint_sum,
    product,
    product_n,
    quotient,
    subspace,
    t0_quotient,
)
from finitetop.core import (
    PointSet,
    SubsetFamily,
    canonical_form,
    from_basis,
    from_neighborhoods,
    from_open_family,
    from_preorder,
    open_sets,
    relabel,
)
from finitetop.generators import (
    blocks,
    chain,
    discrete,
    divisor,
    indiscrete,
    random_space,
)

from strategies import spaces


def revalidated(space):
    again = from_neighborhoods(space.n, space.masks, space.labels)
    assert again == space
    return space


def labeled(space, prefix):
    return from_neighborhoods(
        space.n, space.masks, [f"{prefix}{i}" for i in range(space.n)]
    )


@given(
    spaces(max_classes=4),
    spaces(max_classes=3),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_constructions_output_valid_spaces(s, t, with_labels, rnd):
    if with_labels:
        s, t = labeled(s, "s"), labeled(t, "t")
    revalidated(product(s, t))
    revalidated(product_n([s, t, s]))
    revalidated(disjoint_sum(s, t))
    revalidated(subspace(s, PointSet(s.n, rnd.getrandbits(s.n) if s.n else 0)))
    assignment = [rnd.randrange(s.n) for _ in range(s.n)]
    revalidated(quotient(s, Partition.from_class_of(assignment)))
    revalidated(t0_quotient(s)[0])
    perm = list(range(s.n))
    rnd.shuffle(perm)
    revalidated(relabel(s, perm))
    revalidated(canonical_form(s))
    revalidated(from_basis(SubsetFamily(s.n, s.nbhd)))
    revalidated(from_open_family(SubsetFamily(s.n, tuple(open_sets(s)))))
    pairs = [(y, x) for x in range(s.n) for y in s.nbhd[x].members()]
    revalidated(from_preorder(s.n, pairs, s.labels))


@given(
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(0, 8),
    st.integers(0, 10_000),
    st.floats(0.0, 1.0),
)
def test_generators_output_valid_spaces(k, m, size, seed, density):
    revalidated(chain(k))
    revalidated(blocks(k, m))
    revalidated(divisor(k))
    revalidated(divisor(k, with_top=True))
    revalidated(discrete(size))
    revalidated(indiscrete(size))
    revalidated(random_space(k + size, seed, density))


def test_enumerated_spaces_are_valid():
    for n in range(5):
        for space in enumerate_spaces(n):
            revalidated(space)

#!/usr/bin/env python3
"""Time ``quotient``, ``t0_quotient``, ``report`` and ``from_open_family`` on fixed spaces.

The first inputs are those of the benchmark's ``big_spaces`` workload:
chain products, ``blocks`` times a chain and their disjoint sum,
quotiented by pairs, by a random pairing or by fours, collapsed to T0,
and reported on.  The last rows rebuild ``discrete(10)`` and two chain
products from the list of their open sets.  Each row runs in natural
ids and in ids shuffled by a permutation drawn from
``random.Random(7)``.  The script prints the best
of k wall-clock runs in milliseconds and the first 16 hex digits of the
sha256 of the result (the masks, or the report's fields), so two
checkouts can be compared for speed and for identical answers.  Run
with::

    PYTHONPATH=src python scripts/construction_timing.py [k]

The default k is 20.
"""

import hashlib
import random
import sys

from finitetop.constructions import Partition, disjoint_sum, product, quotient, t0_quotient
from finitetop.core import SubsetFamily, from_open_family, open_sets
from finitetop.generators import blocks, chain, discrete
from finitetop.invariants import report

from corpus import best_of, shuffled

SEED = 7


def by_pairs(n):
    return [p // 2 for p in range(n)]


def by_random_pairing(n):
    # another seed than the relabeling's, which would pair the shuffled ids in order
    ids = list(range(n))
    random.Random(SEED + 1).shuffle(ids)
    classes = [0] * n
    for i, p in enumerate(ids):
        classes[p] = i // 2
    return classes


def by_fours(n):
    return [p // 4 for p in range(n)]


def rows():
    """(name, thunk, digest) triples, each in natural then shuffled ids."""
    grid16 = product(chain(16), chain(16))
    grid24 = product(chain(24), chain(24))
    grid32 = product(chain(32), chain(32))
    blocks_chain = product(blocks(8, 4), chain(16))
    wide = product(blocks(16, 8), chain(8))
    for ids in ("natural", "shuffled"):
        for name, space, block_of in (
            ("quotient grid16 by pairs", grid16, by_pairs),
            ("quotient grid16 by a random pairing", grid16, by_random_pairing),
            ("quotient blocks(8,4)xchain(16) by fours", blocks_chain, by_fours),
        ):
            x, perm = (space, range(space.n)) if ids == "natural" else shuffled(space, SEED)
            classes = [0] * x.n
            for p, c in enumerate(block_of(x.n)):
                classes[perm[p]] = c
            part = Partition.from_class_of(classes)
            yield f"{name} ({ids})", lambda x=x, part=part: quotient(x, part), masks_of
        for name, space in (
            ("t0_quotient blocks(16,8)xchain(8)", wide),
            ("t0_quotient grid16", grid16),
            ("t0_quotient grid24", grid24),
        ):
            x = space if ids == "natural" else shuffled(space, SEED)[0]
            yield f"{name} ({ids})", lambda x=x: t0_quotient(x)[0], masks_of
        for name, space in (
            ("report grid16", grid16),
            ("report grid32", grid32),
            ("report blocks(8,4)xchain(16)", blocks_chain),
            ("report blocks(16,8)xchain(8)", wide),
            ("report grid16+blocks(8,4)xchain(16)", disjoint_sum(grid16, blocks_chain)),
        ):
            x = space if ids == "natural" else shuffled(space, SEED)[0]
            yield f"{name} ({ids})", lambda x=x: report(x), fields_of
        for name, space in (
            ("from_open_family discrete(10)", discrete(10)),
            ("from_open_family grid6", product(chain(6), chain(6))),
            ("from_open_family grid7", product(chain(7), chain(7))),
        ):
            x = space if ids == "natural" else shuffled(space, SEED)[0]
            fam = SubsetFamily(x.n, tuple(open_sets(x)))
            yield f"{name} ({ids})", lambda fam=fam: from_open_family(fam), masks_of


def masks_of(space):
    return repr(space.masks)


def fields_of(rep):
    return repr(
        (
            rep.n,
            rep.distinct_neighborhoods,
            rep.min_x,
            rep.index_x,
            [w.bits for w in rep.maximal_nbhds],
            rep.basic_points.bits,
            rep.irreducible_points.bits,
            rep.is_discrete,
            rep.is_hausdorff,
            rep.is_t0,
        )
    )


def main(k: int) -> None:
    print(f"{'row':<56} {'best ms':>9}  sha256")
    for name, thunk, digest in rows():
        best, out = best_of(k, thunk)
        sha = hashlib.sha256(digest(out).encode()).hexdigest()[:16]
        print(f"{name:<56} {best * 1e3:>9.3f}  {sha}", flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20)

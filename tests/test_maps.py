import random

import pytest

import finitetop._refine as refine

from finitetop.census import enumerate_spaces
from finitetop.constructions import disjoint_sum, product, t0_quotient
from finitetop.core import canonical_form, from_neighborhoods, relabel
from finitetop.errors import (
    InvalidGlueData,
    NotContinuous,
    NotOpen,
    NotWellDefined,
    InternalError,
    SearchBudgetExceeded,
)
from finitetop.generators import blocks, chain, discrete, divisor, indiscrete, random_space
from finitetop.maps import (
    GlueData,
    SpaceMap,
    _is_structure_isomorphism,
    find_homeomorphism,
    glue,
    image_space,
    is_continuous,
    is_open_map,
)

from oracles import (
    all_isomorphisms_bruteforce,
    continuity_witness_by_definition,
    homeomorphic_bruteforce,
    least_isomorphism_backtracking,
)
from strategies import crown, shuffled

SIERP = from_neighborhoods(2, [{0}, {0, 1}])
ONE = from_neighborhoods(1, [{0}])


class TestSpaceMap:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            SpaceMap(SIERP, ONE, (0, 1))

    def test_validates_length(self):
        with pytest.raises(ValueError):
            SpaceMap(SIERP, SIERP, (0,))


class TestContinuity:
    def test_identity(self):
        for s in (SIERP, chain(3), discrete(2), indiscrete(3)):
            assert is_continuous(SpaceMap(s, s, tuple(range(s.n))))

    def test_chain_to_sierpinski(self):
        assert is_continuous(SpaceMap(chain(2), SIERP, (0, 1)))

    def test_constant_maps(self):
        for s in (chain(3), blocks(2, 2)):
            for t in (SIERP, chain(2)):
                for c in range(t.n):
                    assert is_continuous(SpaceMap(s, t, (c,) * s.n))

    def test_discontinuous_map(self):
        # sending the bottom of the chain above its top reverses the order
        assert not is_continuous(SpaceMap(chain(2), chain(2), (1, 0)))

    def test_splitting_points_with_one_neighborhood(self):
        # 0 and 1 share a neighborhood; their images' neighborhoods differ
        m = SpaceMap(indiscrete(2), discrete(2), (0, 1))
        assert not is_continuous(m)
        with pytest.raises(NotContinuous) as exc:
            image_space(m)
        assert exc.value.point == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_witness_matches_definition(self, seed):
        rng = random.Random(seed)
        pool = [
            chain(3), blocks(2, 3), indiscrete(3), discrete(3), crown(3),
            product(chain(2), indiscrete(2)), disjoint_sum(blocks(2, 2), chain(2)),
            shuffled(product(crown(2), indiscrete(2)), seed), random_space(9, seed),
        ]
        for _ in range(150):
            a, b = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.3:
                f = (rng.randrange(b.n),) * a.n
            else:
                f = tuple(rng.randrange(b.n) for _ in range(a.n))
            m = SpaceMap(a, b, f)
            want = continuity_witness_by_definition(a, b, f)
            try:
                image_space(m)
                got = None
            except NotContinuous as err:
                got = err.point
            except NotOpen:
                got = None
            assert got == want, (a.masks, b.masks, f)
            assert is_continuous(m) == (want is None)


class TestOpenMap:
    def test_identity(self):
        assert is_open_map(SpaceMap(chain(3), chain(3), (0, 1, 2)))

    def test_inclusion_of_top_point(self):
        assert is_open_map(SpaceMap(ONE, SIERP, (1,)))

    def test_collapse_chain_to_point(self):
        assert is_open_map(SpaceMap(chain(2), discrete(2), (0, 0)))

    def test_discrete_to_chain_identity_not_open(self):
        assert not is_open_map(SpaceMap(discrete(2), chain(2), (0, 1)))


class TestImageSpace:
    def test_identity(self):
        img, cor = image_space(SpaceMap(chain(3), chain(3), (0, 1, 2)))
        assert img.masks == chain(3).masks
        assert cor.f == (0, 1, 2)

    def test_collapse_indiscrete_to_point(self):
        img, _ = image_space(SpaceMap(indiscrete(3), ONE, (0, 0, 0)))
        assert img.masks == (1,)

    def test_not_continuous_witness(self):
        with pytest.raises(NotContinuous):
            image_space(SpaceMap(chain(2), chain(2), (1, 0)))

    def test_not_open_witness(self):
        with pytest.raises(NotOpen):
            image_space(SpaceMap(discrete(2), chain(2), (0, 1)))

    def test_t0_class_map_image_matches_quotient(self):
        for s in (blocks(2, 2), indiscrete(4), product(SIERP, indiscrete(2))):
            q, part = t0_quotient(s)
            class_map = SpaceMap(s, q, tuple(part.class_of))
            assert is_continuous(class_map) and is_open_map(class_map)
            img, _ = image_space(class_map)
            assert canonical_form(img) == canonical_form(q)


class TestStructureIsomorphism:
    """The order check behind find_homeomorphism and glue, against relabeling."""

    @pytest.mark.parametrize(
        "a, b",
        [
            (crown(4), disjoint_sum(crown(2), crown(2))),
            (crown(4), shuffled(crown(4), 3)),
            (blocks(3, 2), shuffled(blocks(3, 2), 5)),
            (product(chain(3), indiscrete(2)), shuffled(product(chain(3), indiscrete(2)), 1)),
            (random_space(12, 4), shuffled(random_space(12, 4), 2)),
            (chain(4), discrete(4)),
            (discrete(4), chain(4)),  # every bijection is monotone; none is onto
            (disjoint_sum(discrete(2), chain(2)), shuffled(disjoint_sum(chain(2), chain(2)), 4)),
        ],
    )
    def test_random_bijections_match_relabeling(self, a, b):
        rng = random.Random(a.n)
        for _ in range(300):
            f = list(range(a.n))
            rng.shuffle(f)
            assert _is_structure_isomorphism(a, b, f) == (relabel(a, f).masks == b.masks)

    def test_found_maps_pass_and_non_bijections_fail(self):
        a = product(chain(3), indiscrete(2))
        b = shuffled(a, 9)
        h = find_homeomorphism(a, b)
        assert _is_structure_isomorphism(a, b, h.f)
        assert not _is_structure_isomorphism(a, b, [h.f[0]] * a.n)
        assert not _is_structure_isomorphism(a, chain(5), list(range(5)))
        # order-preserving, but S(1) = {1} does not map onto {0, 1}
        assert not _is_structure_isomorphism(discrete(2), chain(2), [0, 1])


class TestFindHomeomorphism:
    def test_permuted_copy_found(self):
        s = from_neighborhoods(4, [{0}, {0, 1}, {0, 2}, {0, 1, 2, 3}])
        r = relabel(s, [3, 1, 0, 2])
        h = find_homeomorphism(s, r)
        assert h is not None

    def test_sierpinski_vs_discrete(self):
        assert find_homeomorphism(SIERP, discrete(2)) is None

    def test_chain_vs_chain_plus_point(self):
        assert find_homeomorphism(chain(3), disjoint_sum(chain(2), ONE)) is None

    def test_symmetric(self):
        pairs = [
            (SIERP, relabel(SIERP, [1, 0])),
            (chain(3), blocks(3, 1)),
            (blocks(2, 2), indiscrete(4)),
        ]
        for a, b in pairs:
            assert (find_homeomorphism(a, b) is None) == (
                find_homeomorphism(b, a) is None
            )

    def test_inverse_composition_is_identity(self):
        s = from_neighborhoods(4, [{0}, {0, 1}, {0, 2}, {0, 1, 2, 3}])
        r = relabel(s, [2, 3, 1, 0])
        h = find_homeomorphism(s, r)
        inverse = [0] * 4
        for x, y in enumerate(h.f):
            inverse[y] = x
        assert [inverse[y] for y in h.f] == list(range(4))

    def test_returns_lexicographically_least(self):
        # blocks(2, 2) has many self-homeomorphisms; ours must be the least f
        pairs = [(blocks(2, 2), blocks(2, 2))]
        rng = random.Random(7)
        for n in range(5):
            spaces = list(enumerate_spaces(n))
            for s in spaces:
                perm = list(range(n))
                rng.shuffle(perm)
                pairs.append((s, relabel(s, perm)))
            pairs.extend((a, b) for a in spaces[:80] for b in spaces[:80])
        for a, b in pairs:
            h = find_homeomorphism(a, b)
            isos = all_isomorphisms_bruteforce(a, b)
            assert (h.f if h else None) == (min(isos) if isos else None)

    def test_agrees_with_bruteforce(self):
        fixtures = [
            (chain(3), relabel(chain(3), [2, 0, 1])),
            (SIERP, from_neighborhoods(2, [{0, 1}, {1}])),
            (discrete(3), blocks(3, 1)),
            (blocks(2, 2), product(discrete(2), indiscrete(2))),
            (chain(4), disjoint_sum(chain(2), chain(2))),
            (indiscrete(2), discrete(2)),
        ]
        for a, b in fixtures:
            assert (find_homeomorphism(a, b) is not None) == (
                homeomorphic_bruteforce(a, b) is not None
            )

    def test_budget_exceeded(self):
        with pytest.raises(SearchBudgetExceeded):
            find_homeomorphism(discrete(6), discrete(6), budget=3)

    def test_answers_past_the_old_guard(self):
        h = find_homeomorphism(discrete(11), discrete(11))
        assert h.f == tuple(range(11))
        s = random_space(64, 1)
        perm = list(range(64))
        random.Random(5).shuffle(perm)
        r = relabel(s, perm)
        h = find_homeomorphism(s, r)
        assert all(h.image_of(s.masks[x]) == r.masks[h.f[x]] for x in range(64))

    def test_empty_spaces(self):
        empty = from_neighborhoods(0, [])
        h = find_homeomorphism(empty, empty)
        assert h is not None and h.f == ()


class TestLeastMapPastBruteForce:
    SPACES = [
        discrete(64),
        chain(64),
        blocks(8, 8),
        blocks(16, 4),
        random_space(64, 1),
        random_space(64, 2),
        product(blocks(3, 2), chain(3)),
        disjoint_sum(blocks(4, 2), blocks(4, 2)),
        crown(7),
        divisor(30),  # Aut fixes points between the ones it moves
    ]

    @pytest.mark.parametrize("index", range(len(SPACES)))
    def test_matches_backtracking(self, index):
        s = self.SPACES[index]
        for seed in range(3):
            r1, r2 = shuffled(s, seed), shuffled(s, 100 + seed)
            for a, b in ((s, r1), (r1, s), (r1, r2)):
                h = find_homeomorphism(a, b)
                assert h.f == least_isomorphism_backtracking(list(a.masks), list(b.masks), 10**6)

    def test_no_answer_matches_backtracking(self):
        a, b = product(blocks(3, 2), chain(3)), shuffled(disjoint_sum(blocks(3, 2), chain(12)), 1)
        assert least_isomorphism_backtracking(list(a.masks), list(b.masks), 10**6) is None
        assert find_homeomorphism(a, b) is None


class TestOneSearchPerSide:
    @pytest.mark.parametrize("space", [blocks(5, 2), crown(5)])
    def test_two_searches(self, space, monkeypatch):
        # One full search on a, then one matching walk on b towards a's table.
        calls = []
        search = refine.canonical_order

        def counted(*args, **kwargs):
            result = search(*args, **kwargs)
            calls.append((kwargs.get("target"), result))
            return result

        monkeypatch.setattr(refine, "canonical_order", counted)
        h = find_homeomorphism(space, shuffled(space, 4))
        assert h is not None and len(calls) == 2
        (first_target, full), (walk_target, _) = calls
        assert first_target is None and walk_target == full.encoding

    def test_search_result_unpacks(self):
        result = refine.canonical_order(crown(5).masks)
        order, gens, aut = result
        assert (order, gens, aut) == (result.order, result.generators, result.aut)
        assert result.encoding == canonical_form(crown(5)).masks

    def test_chain_rejects_missing_generator(self):
        # Aut of the crown is dihedral of order 10, generated by two
        # reflections; either one alone generates a group of order 2.
        # The chain along the first path is checked before any base change.
        result = refine.canonical_order(crown(5).masks)
        chain = refine.Chain(result.base, 10, map(list, result.generators))
        assert [len(t) for _, _, t in chain.levels if len(t) > 1] == [5, 2]
        assert chain.size == result.aut == 10
        assert len(result.generators) == 2
        for i in range(2):
            rest = result.generators[:i] + result.generators[i + 1 :]
            with pytest.raises(InternalError):
                refine.least_map(rest, list(range(10)), result.aut, result.base)

    def test_chain_rejects_too_small_an_order(self):
        result = refine.canonical_order(crown(5).masks)
        with pytest.raises(InternalError):
            refine.least_map(result.generators, list(range(10)), 5, result.base)

    def test_least_map_without_generators_is_the_given_map(self):
        f = [3, 1, 4, 0, 2]
        assert refine.least_map([], f, 1, []) == f


class TestGlue:
    def test_chain_identity(self):
        c2 = chain(2)
        data = GlueData.build([(0, 0), (1, 1)], [{0: 0}, {0: 0, 1: 1}])
        h = glue(c2, c2, data)
        assert h.f == (0, 1)

    def test_block_swap(self):
        s = disjoint_sum(chain(2), chain(2))
        data = GlueData.build(
            [(0, 2), (1, 3), (2, 0), (3, 1)],
            [{0: 2}, {0: 2, 1: 3}, {2: 0}, {2: 0, 3: 1}],
        )
        h = glue(s, s, data)
        assert h.f == (2, 3, 0, 1)
        assert find_homeomorphism(s, s) is not None  # sanity: self-homeos exist

    def test_conflicting_local_maps(self):
        data = GlueData.build([(0, 0), (1, 1)], [{0: 0}, {0: 1, 1: 0}])
        with pytest.raises(NotWellDefined) as exc:
            glue(SIERP, SIERP, data)
        assert exc.value.point == 0

    def test_non_exhaustive_rejected(self):
        data = GlueData.build([(1, 1)], [{0: 0, 1: 1}])
        with pytest.raises(InvalidGlueData):
            glue(SIERP, SIERP, data)

    def test_non_bijective_local_map_rejected(self):
        data = GlueData.build([(0, 0), (1, 1)], [{0: 0}, {0: 0, 1: 0}])
        with pytest.raises(InvalidGlueData):
            glue(SIERP, SIERP, data)

    def test_wrong_domain_rejected(self):
        data = GlueData.build([(0, 0), (1, 1)], [{1: 0}, {0: 0, 1: 1}])
        with pytest.raises(InvalidGlueData):
            glue(SIERP, SIERP, data)

    def test_output_passes_homeomorphism_check(self):
        s = blocks(2, 2)
        data = GlueData.build(
            [(0, 2), (2, 0)],
            [{0: 2, 1: 3}, {2: 0, 3: 1}],
        )
        h = glue(s, s, data)
        assert homeomorphic_bruteforce(s, s) is not None
        inverse = [0] * s.n
        for x, y in enumerate(h.f):
            inverse[y] = x
        assert sorted(h.f) == list(range(s.n))

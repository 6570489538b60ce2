from itertools import combinations
from math import comb
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from mustafin import (
    MultidegreeSet,
    admissible_tuples,
    dimension_p,
    hilbert_function,
    intersection_dims,
    multidegree_set,
    subspace,
)
from mustafin.errors import ContractError, UndefinedMapError
from mustafin.oracles import hilbert_by_inclusion_exclusion

from strategies import compositions


def table_for(d, member_sets):
    return intersection_dims([subspace(d, members) for members in member_sets])


class TestIntersectionDims:
    def test_origin_profile_of_unit_step_pair(self):
        table = table_for(3, [(), (2, 3)])
        assert table.of([1]) == 0
        assert table.of([2]) == 2
        assert table.of([1, 2]) == 0

    def test_full_spaces(self):
        table = table_for(3, [(1, 2, 3), (1, 2, 3)])
        assert all(table.of(I) == 3 for I in ([1], [2], [1, 2]))

    def test_single_factor(self):
        assert table_for(3, [(1,)]).of([1]) == 1

    def test_mismatched_dimensions(self):
        with pytest.raises(ContractError):
            intersection_dims([subspace(3, ()), subspace(4, ())])

    def test_monotone_under_enlarging_index_set(self):
        rng = Random(7)
        for _ in range(50):
            d = rng.randint(2, 5)
            n = rng.randint(1, 4)
            sets = [frozenset(j for j in range(1, d + 1) if rng.random() < 0.5) for _ in range(n)]
            table = table_for(d, sets)
            for mask in range(1, 1 << n):
                for extra in range(n):
                    bigger = mask | (1 << extra)
                    assert table.by_mask[bigger] <= table.by_mask[mask]


class TestAdmissibleTuples:
    def test_birational_factor_forces_full_weight(self):
        table = table_for(3, [(), (2, 3)])
        assert admissible_tuples(3, table, 2) == {(2, 0)}

    def test_degenerate_component_gets_two_tuples(self):
        table = table_for(3, [(1,), ()])
        assert admissible_tuples(3, table, 2) == {(1, 1), (0, 2)}

    def test_zero_degree(self):
        assert admissible_tuples(3, table_for(3, [(1,), ()]), 0) == {(0, 0)}
        assert admissible_tuples(3, table_for(3, [(1, 2, 3)]), 0) == set()

    def test_every_output_satisfies_every_inequality(self):
        rng = Random(11)
        for _ in range(60):
            d = rng.randint(2, 5)
            n = rng.randint(1, 4)
            sets = [frozenset(j for j in range(1, d + 1) if rng.random() < 0.4) for _ in range(n)]
            table = table_for(d, sets)
            for h in range(n * (d - 1) + 1):
                for m in admissible_tuples(d, table, h):
                    assert sum(m) == h and all(v >= 0 for v in m)
                    for mask in range(1, 1 << n):
                        s = sum(m[i] for i in range(n) if mask >> i & 1)
                        assert d - s > table.by_mask[mask]

    def test_emptiness_is_monotone_in_h(self):
        rng = Random(13)
        for _ in range(60):
            d = rng.randint(2, 5)
            n = rng.randint(1, 4)
            sets = [frozenset(j for j in range(1, d + 1) if rng.random() < 0.4) for _ in range(n)]
            table = table_for(d, sets)
            empty_seen = False
            for h in range(n * (d - 1) + 2):
                now_empty = not admissible_tuples(d, table, h)
                assert not (empty_seen and not now_empty), "emptiness must persist"
                empty_seen = empty_seen or now_empty


class TestDimensionP:
    def test_unit_step_pair_components_are_surfaces(self):
        assert dimension_p(3, table_for(3, [(), (2, 3)])) == 2
        assert dimension_p(3, table_for(3, [(1,), ()])) == 2

    def test_diagonal_embedding(self):
        d, n = 4, 3
        table = table_for(d, [()] * n)
        assert dimension_p(d, table) == d - 1
        tuples = admissible_tuples(d, table, d - 1)
        assert len(tuples) == comb(n + d - 2, d - 1)

    def test_hyperplane_kernel_collapses_to_point(self):
        assert dimension_p(4, table_for(4, [(2, 3, 4)])) == 0

    def test_overlap_clusters_merge_transitively(self):
        # argmin sets {1,2}, {2,3}, {3,4}: a chain of overlaps is one cluster
        assert dimension_p(4, table_for(4, [(3, 4), (1, 4), (1, 2)])) == 3
        # argmin sets {1,2}, {1}, {2}: factors 2 and 3 meet only through factor 1
        assert dimension_p(4, table_for(4, [(3, 4), (2, 3, 4), (1, 3, 4)])) == 1

    def test_full_kernel_is_rejected(self):
        with pytest.raises(UndefinedMapError):
            dimension_p(3, table_for(3, [(1, 2, 3), ()]))

    def test_multidegree_set_carries_p(self):
        mset = multidegree_set(3, table_for(3, [(1,), ()]))
        assert mset.p == 2 and mset.tuples == {(1, 1), (0, 2)}


@st.composite
def kernel_member_sets(draw):
    d = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=1, max_value=4))
    kernels = st.frozensets(st.integers(min_value=1, max_value=d))
    return d, draw(st.lists(kernels, min_size=n, max_size=n))


def exhaustive_levels(d, member_sets):
    """M(0), ..., M(d) from the definition, with d_I counted from the member sets.

    Every composition of each h is tested on every nonempty I. Levels
    above d - 1 are empty: on the full index set, d - h > d_I >= 0.
    """
    n = len(member_sets)
    subsets = [I for k in range(1, n + 1) for I in combinations(range(n), k)]
    d_of = {I: len(frozenset.intersection(*(member_sets[i] for i in I))) for I in subsets}
    return [
        {m for m in compositions(h, n) if all(d - sum(m[i] for i in I) > d_of[I] for I in subsets)}
        for h in range(d + 1)
    ]


class TestLevelScan:
    @given(kernel_member_sets())
    @example((3, [frozenset({1, 2, 3}), frozenset()]))
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_levels(self, case):
        d, member_sets = case
        table = table_for(d, member_sets)
        levels = exhaustive_levels(d, member_sets)
        nonempty = [h for h, level in enumerate(levels) if level]
        if not nonempty:
            assert any(len(members) == d for members in member_sets)
            with pytest.raises(UndefinedMapError):
                dimension_p(d, table)
            with pytest.raises(UndefinedMapError):
                multidegree_set(d, table)
            return
        p = max(nonempty)
        assert dimension_p(d, table) == p
        mset = multidegree_set(d, table)
        assert (mset.p, mset.tuples) == (p, levels[p])


@st.composite
def multidegree_sets_and_gradings(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    p = draw(st.integers(min_value=0, max_value=4))
    tuples = draw(st.sets(st.sampled_from(compositions(p, n)), min_size=1, max_size=10))
    u = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    return MultidegreeSet(p, frozenset(tuples)), tuple(u)


class TestHilbertFunction:
    @given(multidegree_sets_and_gradings())
    @settings(max_examples=200, deadline=None)
    def test_matches_inclusion_exclusion_oracle(self, case):
        mset, u = case
        assert hilbert_function(mset, u) == hilbert_by_inclusion_exclusion(mset, u)

    def test_single_factor_projective_space(self):
        for d in (2, 3, 4):
            mset = MultidegreeSet(d - 1, frozenset({(d - 1, 0)}))
            for u1 in range(5):
                assert hilbert_function(mset, (u1, 3)) == comb(u1 + d - 1, d - 1)

    def test_value_one_at_origin(self):
        rng = Random(3)
        for _ in range(40):
            n = rng.randint(1, 3)
            p = rng.randint(1, 4)
            tuples = set()
            while not tuples:
                tuples = {
                    t
                    for t in compositions(p, n)
                    if rng.random() < 0.5
                }
            mset = MultidegreeSet(p, frozenset(tuples))
            assert hilbert_function(mset, (0,) * n) == 1

    def test_worked_two_tuple_value(self):
        mset = MultidegreeSet(2, frozenset({(1, 1), (0, 2)}))
        assert hilbert_function(mset, (1, 1)) == 5

    def test_two_tuple_values_match_inclusion_exclusion_by_hand(self):
        # binom(u1+1,1)binom(u2+1,1) + binom(u2+2,2) - binom(u2+1,1)
        mset = MultidegreeSet(2, frozenset({(1, 1), (0, 2)}))
        for u1 in range(4):
            for u2 in range(4):
                expected = (u1 + 1) * (u2 + 1) + comb(u2 + 2, 2) - (u2 + 1)
                assert hilbert_function(mset, (u1, u2)) == expected

    def test_singleton_factorizes(self):
        mset = MultidegreeSet(2, frozenset({(2, 0)}))
        values = [hilbert_function(mset, (u1, u2)) for u1 in range(3) for u2 in range(3)]
        assert values == [comb(u1 + 2, 2) for u1 in range(3) for u2 in range(3)]

    def test_nonnegative_on_small_grid(self):
        rng = Random(5)
        for _ in range(25):
            n = rng.randint(1, 3)
            p = rng.randint(1, 3)
            tuples = {t for t in compositions(p, n) if rng.random() < 0.6}
            if not tuples:
                continue
            mset = MultidegreeSet(p, frozenset(tuples))
            for u in _grid(n, 3):
                assert hilbert_function(mset, u) >= 0

    def test_errors(self):
        with pytest.raises(ContractError):
            hilbert_function(MultidegreeSet(2, frozenset()), (0, 0))
        mset = MultidegreeSet(2, frozenset({(1, 1)}))
        with pytest.raises(ContractError):
            hilbert_function(mset, (0,))
        with pytest.raises(ContractError):
            hilbert_function(mset, (-1, 0))


def _grid(n, top):
    if n == 0:
        return [()]
    return [(v,) + rest for v in range(top + 1) for rest in _grid(n - 1, top)]

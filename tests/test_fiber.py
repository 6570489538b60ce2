from dataclasses import replace
from math import comb
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from mustafin import (
    classify,
    component_counts,
    configuration,
    describe_vertex,
    is_general_position,
    is_monomial_type,
    local_model_chain,
    multidegree_partition,
    normalize,
    realize_component,
    reduction_profile,
    skeleton_signature,
    subspace,
)
from mustafin.errors import ContractError, DomainError, InvariantViolationError
from mustafin.sampling import random_degenerate_configuration, random_general_position_configuration

from strategies import configurations, overlap_clusters


class TestReductionProfile:
    def test_unit_step_pair_at_origin(self, degenerate_pair):
        prof = reduction_profile(degenerate_pair, normalize((0, 0, 0)))
        assert prof.argmins == (frozenset({1, 2, 3}), frozenset({1}))
        assert [sorted(w.members) for w in prof.kernels] == [[], [2, 3]]

    def test_outer_generator_of_collinear_triple(self, collinear_triple):
        prof = reduction_profile(collinear_triple, normalize((0, -3, -6)))
        assert prof.argmins[2] == frozenset({1, 2, 3})
        assert prof.kernels[2].dim == 0
        assert len(prof.argmins[0]) == 1 and len(prof.argmins[1]) == 1

    def test_own_factor_kernel_vanishes(self, collinear_triple):
        for i, p in enumerate(collinear_triple.points):
            assert reduction_profile(collinear_triple, p).kernels[i].dim == 0

    def test_diagonals_are_argmin_indicators(self, collinear_triple):
        prof = reduction_profile(collinear_triple, normalize((0, -1, -4)))
        assert prof.diagonals() == ((1, 1, 0), (0, 1, 0), (0, 1, 1))

    def test_outside_hull_rejected(self, collinear_triple):
        with pytest.raises(DomainError):
            reduction_profile(collinear_triple, normalize((0, -2, -3)))


class TestClassify:
    def test_collinear_triple_has_six_components(self, collinear_triple):
        descs = classify(collinear_triple)
        assert len(descs) == 6
        assert all(d.is_component for d in descs)
        assert {d.factor_dims for d in descs} == {
            (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
        }
        assert [d.vertex for d in descs] == sorted(d.vertex for d in descs)
        for d in descs:
            assert d.multidegrees.tuples == {d.factor_dims}

    def test_unit_step_pair_multidegrees(self, degenerate_pair):
        descs = classify(degenerate_pair)
        by_vertex = {d.vertex.coords: d for d in descs}
        assert by_vertex[(0, 0, 0)].multidegrees.tuples == {(2, 0)}
        assert by_vertex[(0, 1, 1)].multidegrees.tuples == {(1, 1), (0, 2)}
        assert all(d.is_component and d.is_primary for d in descs)

    def test_single_point_is_the_diagonal(self):
        cfg = configuration(4, [(0, 2, 0, -1)])
        descs = classify(cfg)
        assert len(descs) == 1
        d = descs[0]
        assert d.is_component and d.is_primary
        assert d.p == 3
        assert d.multidegrees.tuples == {(3,)}


class TestMultidegreePartition:
    def test_collinear_triple_bijection(self, collinear_triple):
        claims = multidegree_partition(collinear_triple)
        assert len(claims) == 6
        assert claims[(1, 0, 1)].coords == (0, -1, -4)
        assert claims[(0, 1, 1)].coords == (0, -2, -5)
        assert len(set(claims.values())) == 6

    def test_unit_step_pair(self, degenerate_pair):
        claims = {m: v.coords for m, v in multidegree_partition(degenerate_pair).items()}
        assert claims == {(2, 0): (0, 0, 0), (1, 1): (0, 1, 1), (0, 2): (0, 1, 1)}

    def test_single_point(self):
        cfg = configuration(3, [(0, 1, 5)])
        assert multidegree_partition(cfg) == {(2,): cfg.points[0]}

    def test_repeated_component_is_an_invariant_violation(self, collinear_triple):
        descriptors = classify(collinear_triple)
        component = next(desc for desc in descriptors if desc.is_component)
        with pytest.raises(InvariantViolationError, match="claimed by both"):
            multidegree_partition(collinear_triple, descriptors + [component])

    def test_dropped_component_is_an_invariant_violation(self, collinear_triple):
        descriptors = classify(collinear_triple)
        component = next(desc for desc in descriptors if desc.is_component)
        kept = [desc for desc in descriptors if desc is not component]
        with pytest.raises(InvariantViolationError, match="not total: missing"):
            multidegree_partition(collinear_triple, kept)


class TestComponentCounts:
    def test_collinear_triple(self, collinear_triple):
        assert component_counts(collinear_triple) == (6, 3, 3)

    def test_unit_step_pair(self, degenerate_pair):
        assert component_counts(degenerate_pair) == (2, 2, 0)

    def test_local_model_chains(self):
        for d in (3, 4, 5):
            assert component_counts(local_model_chain(d)) == (d, d, 0)


class TestMonomialType:
    def test_generic_triple(self, collinear_triple):
        assert is_monomial_type(collinear_triple)

    def test_degenerate_pair(self, degenerate_pair):
        assert not is_monomial_type(degenerate_pair)

    def test_disagreeing_general_position_is_an_invariant_violation(self, collinear_triple, degenerate_pair):
        # The verdict is p = sum(factor_dims) at every point: move one p off it, or put every p on it.
        for cfg in (collinear_triple, degenerate_pair):
            descriptors = classify(cfg)
            counts = component_counts(cfg, descriptors)
            if is_general_position(cfg):
                flipped = [replace(descriptors[0], p=descriptors[0].p + 1), *descriptors[1:]]
            else:
                flipped = [replace(desc, p=sum(desc.factor_dims)) for desc in descriptors]
            assert is_monomial_type(cfg, descriptors, counts) == is_general_position(cfg)
            with pytest.raises(InvariantViolationError, match="secondary-count law"):
                is_monomial_type(cfg, flipped, counts)

    @given(st.integers(min_value=0, max_value=2**32), st.booleans(), st.integers(2, 5), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_verdict_from_the_types_is_the_minor_scan(self, seed, generic, d, n):
        # Every configuration with d = 2 or n = 1 is in general position. Generic draws need a spread that grows
        # with n; at d = 5 and n >= 6 their hulls take seconds, so n stops at 5 there.
        if generic:
            n = min(n, 5) if d == 5 else n
            cfg = random_general_position_configuration(Random(seed), d, n, -2 * n, 2 * n)
        else:
            cfg = random_degenerate_configuration(Random(seed), max(d, 3), max(n, 2), -3, 3)
        assert is_monomial_type(cfg) == is_general_position(cfg) == generic


class TestRealizeComponent:
    def test_unit_step_pair_realization(self):
        cfg, vertex = realize_component([subspace(3), subspace(3, {2, 3})])
        assert [p.coords for p in cfg.points] == [(0, 0, 0), (0, 1, 1)]
        assert vertex.coords == (0, 0, 0)

    def test_three_singleton_kernels(self):
        kernels = [subspace(3, {1}), subspace(3, {2}), subspace(3, {3})]
        cfg, vertex = realize_component(kernels)
        desc = describe_vertex(cfg, vertex)
        assert desc.is_component
        assert desc.profile.kernels == tuple(kernels)

    def test_round_trip_on_admissible_inputs(self):
        cases = [
            [frozenset(), frozenset({2, 3})],
            [frozenset({1}), frozenset({2}), frozenset({3})],
            [frozenset({3, 4}), frozenset({1})],
            [frozenset({2}), frozenset({3, 4}), frozenset()],
        ]
        for members in cases:
            d = max([3] + [max(m) for m in members if m])
            kernels = [subspace(d, m) for m in members]
            cfg, vertex = realize_component(kernels)
            desc = describe_vertex(cfg, vertex)
            assert desc.profile.kernels == tuple(kernels)
            assert desc.is_component

    def test_complementary_planes_cannot_form_a_component(self):
        # trivial intersection but the image is only P1 x P1: dimension 2 < 3
        with pytest.raises(ContractError):
            realize_component([subspace(4, {3, 4}), subspace(4, {1, 2})])

    def test_single_zero_kernel_gives_diagonal(self):
        cfg, vertex = realize_component([subspace(3)])
        assert [p.coords for p in cfg.points] == [(0, 0, 0)]
        assert vertex == cfg.points[0]

    def test_common_direction_rejected(self):
        with pytest.raises(ContractError):
            realize_component([subspace(3, {1, 2}), subspace(3, {2, 3})])

    def test_duplicate_kernels_rejected(self):
        with pytest.raises(ContractError):
            realize_component([subspace(3, {2, 3}), subspace(3, {2, 3})])
        with pytest.raises(ContractError):
            realize_component([subspace(3), subspace(3)])


class TestStructuralIdentities:
    @given(configurations(min_d=3, max_d=4, min_n=2, max_n=4, lo=-4, hi=4))
    @settings(max_examples=30, deadline=None)
    def test_kernel_dims_complement_signature(self, cfg):
        for desc in classify(cfg):
            sig = skeleton_signature(cfg, desc.vertex)
            assert desc.factor_dims == sig.codims
            for c, w in zip(sig.codims, desc.profile.kernels):
                assert w.dim == cfg.d - 1 - c
            assert desc.p <= cfg.d - 1

    @given(configurations(min_d=3, max_d=4, min_n=2, max_n=4, lo=-4, hi=4))
    @settings(max_examples=30, deadline=None)
    def test_generators_always_contribute_components(self, cfg):
        descs = {d.vertex: d for d in classify(cfg)}
        for i, p in enumerate(cfg.points):
            desc = descs[p]
            assert desc.is_component and desc.is_primary
            assert desc.profile.kernels[i].dim == 0

    @given(st.integers(min_value=0, max_value=2**32), st.booleans(), st.integers(3, 4), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_primary_exactly_at_generators(self, seed, generic, d, n):
        sampler = random_general_position_configuration if generic else random_degenerate_configuration
        cfg = sampler(Random(seed), d, n, -3, 3)
        for desc in classify(cfg):
            assert desc.is_primary == (desc.vertex in cfg.points)

    @given(configurations(min_d=3, max_d=4, min_n=2, max_n=4, lo=-4, hi=4))
    @settings(max_examples=25, deadline=None)
    def test_count_law_and_partition(self, cfg):
        counts = component_counts(cfg)
        assert counts.primary == cfg.n
        if is_general_position(cfg):
            assert counts.total == comb(cfg.n + cfg.d - 2, cfg.d - 1)
        multidegree_partition(cfg)

    def test_intersection_caps_never_exceed_signature_bound(self):
        """d_I <= d - 1 - sum(C_i) over I at generic component vertices.

        This inequality is what makes the signature tuple admissible and
        is all the classification needs from the subset table; the
        corresponding equality fails in general (next test).
        """
        rng = Random(2024)
        checked = 0
        while checked < 40:
            cfg = _random_config(rng)
            if not is_general_position(cfg):
                continue
            checked += 1
            for desc in classify(cfg):
                if not desc.is_component:
                    continue
                for mask in range(1, 1 << cfg.n):
                    chosen = [i for i in range(cfg.n) if mask >> i & 1]
                    bound = cfg.d - 1 - sum(desc.factor_dims[i] for i in chosen)
                    assert desc.table.of([i + 1 for i in chosen]) <= bound

    def test_overlap_corrected_identity_on_random_generic_configs(self):
        rng = Random(4096)
        checked = 0
        while checked < 40:
            cfg = _random_config(rng)
            if not is_general_position(cfg):
                continue
            checked += 1
            for desc in classify(cfg):
                if not desc.is_component:
                    continue
                for mask in range(1, 1 << cfg.n):
                    chosen = [i for i in range(cfg.n) if mask >> i & 1]
                    clusters = overlap_clusters([desc.profile.argmins[i] for i in chosen])
                    expected = cfg.d - sum(desc.factor_dims[i] for i in chosen) - clusters
                    assert desc.table.of([i + 1 for i in chosen]) == expected

    def test_intersection_dims_with_overlap_correction(self, collinear_triple):
        """d_I = d - sum(C_i) - (#overlap clusters of the argmin sets over I).

        The classical form d-1-sum(C_i) presumes a single cluster; the
        configuration below is fully generic yet has a component vertex
        whose argmin sets split into two clusters for I = {1, 3}, so the
        classical form fails there while the corrected one holds.
        """
        split = configuration(3, [(0, 0, 3), (0, -2, -2), (0, 1, -4)])
        assert is_general_position(split)
        desc = describe_vertex(split, normalize((0, 0, 0)))
        assert desc.is_component
        assert desc.profile.argmins == (frozenset({1, 2}), frozenset({2, 3}), frozenset({3}))
        assert desc.table.of([1, 3]) == 0  # classical form would predict 1
        for cfg in (split, collinear_triple):
            for d in classify(cfg):
                if not d.is_component:
                    continue
                sig = d.factor_dims
                for mask in range(1, 1 << cfg.n):
                    chosen = [i for i in range(cfg.n) if mask >> i & 1]
                    clusters = overlap_clusters([d.profile.argmins[i] for i in chosen])
                    expected = cfg.d - sum(sig[i] for i in chosen) - clusters
                    assert d.table.of([i + 1 for i in chosen]) == expected


def _random_config(rng):
    from mustafin.sampling import random_configuration

    d = rng.choice((3, 4))
    n = rng.choice((2, 3, 4))
    return random_configuration(rng, d, n, -5, 5)

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mustafin import (
    configuration,
    contains,
    is_general_position,
    lattice_points,
    locate_by_multidegree,
    normalize,
    segment,
    skeleton_signature,
    tropical_combination,
)
from mustafin.errors import ContractError, DimensionError, DomainError
from mustafin.hull import _argmin_masks
from mustafin.oracles import all_box_points, brute_force_hull, skeleton_scan

from strategies import compositions, configurations


@st.composite
def tied_configurations(draw):
    """Configurations in which generators share prefixes, so that several share a breakpoint of the walk.

    The second generator repeats the first two coordinates of the first; the walk's first level then has two
    generators with one breakpoint, and longer shared prefixes tie deeper levels.
    """
    d = draw(st.integers(min_value=3, max_value=5))
    n = draw(st.integers(min_value=2, max_value=5))
    free = st.integers(min_value=-2, max_value=2)
    rows = [(0, *draw(st.lists(free, min_size=d - 1, max_size=d - 1)))]
    for _ in range(n - 1):
        source = draw(st.sampled_from(rows))
        k = draw(st.integers(min_value=2, max_value=d - 1))
        row = (*source[:k], *draw(st.lists(free, min_size=d - k, max_size=d - k)))
        if row == rows[0] and len(rows) == 1:
            row = (*row[:-1], row[-1] + 1)
        if row not in rows:
            rows.append(row)
    return configuration(d, rows)


SIX_HULL_POINTS = {
    (0, -1, -2), (0, -1, -3), (0, -1, -4), (0, -2, -4), (0, -2, -5), (0, -3, -6),
}


class TestContains:
    def test_generators_are_members(self, collinear_triple):
        for p in collinear_triple.points:
            assert contains(collinear_triple, p)

    def test_interior_vertex(self, collinear_triple):
        x = normalize((0, -1, -4))
        assert contains(collinear_triple, x)
        assert x in brute_force_hull(collinear_triple)

    def test_projection_detects_outsider(self, collinear_triple):
        x = normalize((0, -2, -3))
        assert not contains(collinear_triple, x)
        assert x not in brute_force_hull(collinear_triple)

    def test_dimension_mismatch(self, collinear_triple):
        with pytest.raises(DimensionError):
            contains(collinear_triple, normalize((0, 1)))

    @given(configurations(max_d=5, max_n=5, lo=-3, hi=3), st.data())
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_brute_force_on_box_points(self, cfg, data):
        brute = brute_force_hull(cfg)
        box = all_box_points(cfg)
        probes = data.draw(st.lists(st.sampled_from(box), min_size=1, max_size=12))
        for x in sorted(brute) + probes:
            assert contains(cfg, x) == (x in brute), x

    def test_argmin_masks_of_an_outsider(self, collinear_triple):
        # v_i - (0, -2, -3) is (0, 1, 1), (0, 0, -1), (0, -1, -3): coordinate 2 is in no argmin set
        assert _argmin_masks(collinear_triple, normalize((0, -2, -3))) == (0b001, 0b100, 0b100)

    @given(configurations(), st.data())
    def test_closed_under_combinations(self, cfg, data):
        lam = data.draw(st.lists(st.integers(-6, 6), min_size=cfg.n, max_size=cfg.n))
        assert contains(cfg, tropical_combination(lam, cfg))


class TestLatticePoints:
    def test_six_point_hull(self, collinear_triple):
        assert {p.coords for p in lattice_points(collinear_triple).points} == SIX_HULL_POINTS

    def test_single_point(self):
        cfg = configuration(3, [(0, 4, -1)])
        assert lattice_points(cfg).points == frozenset(cfg.points)

    def test_unit_step_pair_has_no_interior(self, degenerate_pair):
        assert {p.coords for p in lattice_points(degenerate_pair).points} == {(0, 0, 0), (0, 1, 1)}

    def test_generators_always_members(self, collinear_triple):
        hull_set = lattice_points(collinear_triple)
        for p in collinear_triple.points:
            assert p in hull_set

    @given(configurations(max_d=4, max_n=4, lo=-3, hi=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_combinations(self, cfg):
        assert lattice_points(cfg).points == brute_force_hull(cfg)

    @given(configurations(min_d=5, max_d=6, max_n=3, lo=-2, hi=2))
    @settings(max_examples=40, deadline=None)
    def test_high_dimension_matches_brute_force_in_order(self, cfg):
        hull_set = lattice_points(cfg)
        assert hull_set.points == brute_force_hull(cfg)
        assert list(hull_set) == sorted(hull_set.points)

    @given(configurations(max_d=6, max_n=6, lo=-2, hi=2))
    @settings(max_examples=60, deadline=None)
    def test_carried_masks_are_the_argmin_sets(self, cfg):
        hull_set = lattice_points(cfg)
        assert len(hull_set.argmin_masks) == len(hull_set)
        for x, masks in zip(hull_set, hull_set.argmin_masks):
            assert masks == _argmin_masks(cfg, x), x
        assert list(hull_set) == sorted(brute_force_hull(cfg))

    @given(tied_configurations())
    @settings(max_examples=60, deadline=None)
    def test_shared_breakpoints_keep_the_masks_and_the_points(self, cfg):
        hull_set = lattice_points(cfg)
        for x, masks in zip(hull_set, hull_set.argmin_masks):
            assert masks == _argmin_masks(cfg, x), x
        assert list(hull_set) == sorted(brute_force_hull(cfg))


class TestSkeletonSignature:
    def test_interior_vertex_signature(self, collinear_triple):
        assert skeleton_signature(collinear_triple, normalize((0, -1, -4))).codims == (1, 0, 1)

    def test_generator_has_full_codimension(self, collinear_triple):
        for i, p in enumerate(collinear_triple.points):
            codims = skeleton_signature(collinear_triple, p).codims
            assert codims[i] == collinear_triple.d - 1

    def test_degenerate_pair_signature(self, degenerate_pair):
        assert skeleton_signature(degenerate_pair, normalize((0, 1, 1))).codims == (1, 2)

    def test_outside_hull_rejected(self, collinear_triple):
        with pytest.raises(DomainError):
            skeleton_signature(collinear_triple, normalize((0, -2, -3)))


class TestLocateByMultidegree:
    def test_interior_vertex(self, collinear_triple):
        assert {p.coords for p in locate_by_multidegree(collinear_triple, (1, 0, 1))} == {(0, -1, -4)}

    def test_full_weight_at_generator(self, collinear_triple):
        assert {p.coords for p in locate_by_multidegree(collinear_triple, (2, 0, 0))} == {(0, -1, -2)}

    def test_split_weight(self, collinear_triple):
        assert {p.coords for p in locate_by_multidegree(collinear_triple, (0, 1, 1))} == {(0, -2, -5)}

    def test_bad_total_rejected(self, collinear_triple):
        with pytest.raises(ContractError):
            locate_by_multidegree(collinear_triple, (1, 1, 1))
        with pytest.raises(ContractError):
            locate_by_multidegree(collinear_triple, (2, 0))
        with pytest.raises(ContractError):
            locate_by_multidegree(collinear_triple, (3, 0, -1))

    def test_rejects_floats(self, collinear_triple):
        with pytest.raises(TypeError):
            locate_by_multidegree(collinear_triple, (1.5, 1.5, 0))

    def test_agrees_with_brute_force_scan(self, collinear_triple, degenerate_pair):
        for cfg in (collinear_triple, degenerate_pair):
            for m in compositions(cfg.d - 1, cfg.n):
                assert locate_by_multidegree(cfg, m) == skeleton_scan(cfg, m)

    @given(configurations(min_d=3, max_d=3, min_n=2, max_n=3, lo=-3, hi=3))
    @settings(max_examples=30, deadline=None)
    def test_generic_configs_locate_each_tuple_once(self, cfg):
        if not is_general_position(cfg):
            return
        seen = set()
        for m in compositions(cfg.d - 1, cfg.n):
            hits = locate_by_multidegree(cfg, m)
            assert len(hits) == 1, (m, hits)
            point = next(iter(hits))
            assert skeleton_signature(cfg, point).codims == m
            seen.add(point)
        assert len(seen) == len(compositions(cfg.d - 1, cfg.n))


class TestSegmentHullInteraction:
    @given(configurations(min_n=2, max_n=3, lo=-3, hi=3))
    @settings(max_examples=40, deadline=None)
    def test_generator_segments_stay_in_hull(self, cfg):
        for a in range(cfg.n):
            for b in range(a + 1, cfg.n):
                for p in segment(cfg.points[a], cfg.points[b]):
                    assert contains(cfg, p)

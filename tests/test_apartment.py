import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mustafin import (
    class_to_point,
    configuration,
    is_adjacent,
    is_convex_configuration,
    lattice_points,
    local_model_chain,
    normalize,
    point_to_class,
)
from mustafin.apartment import DiagonalLatticeClass
from mustafin.errors import ContractError
from mustafin.oracles import convex_closure_by_intersections

from strategies import configurations, point_pairs, torus_points


class TestDictionary:
    def test_reference_lattice(self):
        assert class_to_point(DiagonalLatticeClass((0, 0, 0))).coords == (0, 0, 0)

    def test_single_unit_exponent(self):
        assert class_to_point(DiagonalLatticeClass((1, 0, 0))).coords == (0, 1, 1)

    def test_two_unit_exponents(self):
        assert class_to_point(DiagonalLatticeClass((1, 1, 0))).coords == (0, 0, 1)

    def test_inverses(self):
        for exps in ((0, 0, 0), (1, 0, 0), (1, 1, 0)):
            c = DiagonalLatticeClass(exps)
            assert point_to_class(class_to_point(c)) == c

    def test_constructor_requires_reduced_exponents(self):
        with pytest.raises(ContractError):
            DiagonalLatticeClass((1, 2, 3))
        assert DiagonalLatticeClass.from_exponents((1, 2, 3)).exponents == (0, 1, 2)

    def test_from_exponents_rejects_floats(self):
        with pytest.raises(TypeError):
            DiagonalLatticeClass.from_exponents((0.5, 1.5, 2))

    @given(torus_points(4))
    def test_round_trip(self, p):
        assert class_to_point(point_to_class(p)) == p


def _adjacent_by_representatives(u, v, reach=30):
    # pi*M' < L' < M' search: some shift of v-u must be 0/1-valued and mixed
    diff = [v[j] - u[j] for j in range(len(u))]
    for c in range(-reach, reach + 1):
        shifted = [x + c for x in diff]
        if set(shifted) == {0, 1}:
            return True
    return False


class TestAdjacency:
    def test_unit_vector_difference(self):
        assert is_adjacent(normalize((0, 0, 0)), normalize((0, 1, 1)))

    def test_consecutive_hull_points(self):
        assert is_adjacent(normalize((0, -1, -2)), normalize((0, -1, -3)))

    def test_wide_difference(self):
        assert not is_adjacent(normalize((0, -1, -2)), normalize((0, -3, -6)))

    def test_equal_points_rejected(self):
        with pytest.raises(ContractError):
            is_adjacent(normalize((0, 1, 2)), normalize((0, 1, 2)))

    @given(point_pairs())
    def test_symmetric_and_matches_representative_search(self, pair):
        u, v = pair
        assert is_adjacent(u, v) == is_adjacent(v, u)
        assert is_adjacent(u, v) == _adjacent_by_representatives(u, v)


class TestConvexity:
    def test_hull_closure_is_convex(self, collinear_triple):
        closed = configuration(3, [p.coords for p in lattice_points(collinear_triple)])
        assert is_convex_configuration(closed)

    def test_gappy_pair_is_not_convex(self):
        cfg = configuration(3, [(0, -1, -2), (0, -3, -6)])
        assert not is_convex_configuration(cfg)
        assert normalize((0, -1, -4)) in lattice_points(cfg)

    def test_single_point_is_convex(self):
        assert is_convex_configuration(configuration(3, [(0, 2, 5)]))

    @given(configurations(max_d=3, max_n=3, lo=-3, hi=3))
    @settings(max_examples=30, deadline=None)
    def test_lattice_points_are_a_closure_operator(self, cfg):
        closed = configuration(cfg.d, [p.coords for p in lattice_points(cfg)])
        assert is_convex_configuration(closed)

    @given(configurations(max_d=3, max_n=3, lo=-2, hi=2))
    @settings(max_examples=25, deadline=None)
    def test_pairwise_intersection_closure_matches_hull(self, cfg):
        assert convex_closure_by_intersections(cfg) == lattice_points(cfg).points


class TestLocalModelChain:
    def test_dimension_two(self):
        assert [p.coords for p in local_model_chain(2).points] == [(0, 0), (0, 1)]

    def test_dimension_three(self):
        assert [p.coords for p in local_model_chain(3).points] == [(0, 0, 0), (0, 1, 1), (0, 0, 1)]

    def test_consecutive_and_wraparound_adjacency(self):
        for d in (3, 4, 5):
            chain = local_model_chain(d).points
            assert len(chain) == d
            for a, b in zip(chain, chain[1:]):
                assert is_adjacent(a, b)
            assert is_adjacent(chain[-1], chain[0])

    def test_convex(self):
        for d in (2, 3, 4, 5):
            assert is_convex_configuration(local_model_chain(d))

    def test_too_small(self):
        with pytest.raises(ContractError):
            local_model_chain(1)

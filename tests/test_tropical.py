import copy
import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mustafin import (
    Configuration,
    TorusPoint,
    configuration,
    contains,
    is_general_position,
    normalize,
    segment,
    singular_square_minor,
    tropical_combination,
    tropical_determinant,
)
from mustafin.errors import ContractError, DegenerateSegmentError, DimensionError
from mustafin.oracles import assignment_min_count

from strategies import configurations, point_pairs, raw_vectors


class TestNormalize:
    def test_subtracts_first_coordinate(self):
        assert normalize((3, 2, 1)).coords == (0, -1, -2)
        assert normalize((-2, -4, -8)).coords == (0, -2, -6)

    def test_idempotent_on_normalized_input(self):
        assert normalize((0, -1, -2)).coords == (0, -1, -2)

    def test_rejects_short_vectors(self):
        with pytest.raises(DimensionError):
            normalize((5,))

    def test_rejects_floats_instead_of_truncating(self):
        with pytest.raises(TypeError):
            normalize((0, 1.7, 2.2))

    @given(raw_vectors(), st.integers(min_value=-20, max_value=20))
    def test_translation_invariant_and_idempotent(self, raw, c):
        p = normalize(raw)
        assert normalize(tuple(v + c for v in raw)) == p
        assert normalize(p.coords) == p


class TestTorusPoint:
    @given(st.lists(raw_vectors(), min_size=1, max_size=6))
    def test_point_is_its_normalized_tuple(self, raws):
        points = [normalize(raw) for raw in raws]
        p = points[0]
        assert p == tuple(p) and hash(p) == hash(tuple(p))
        assert [tuple(q) for q in sorted(points)] == sorted(tuple(q) for q in points)
        assert p.coords == tuple(p)
        assert str(p) == str(tuple(p))
        for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert type(twin) is TorusPoint and twin == p
        with pytest.raises(AttributeError):
            p.label = "x"
        with pytest.raises(ContractError):
            TorusPoint((1, 2))
        with pytest.raises(DimensionError):
            TorusPoint((0,))


class TestConfiguration:
    def test_rejects_duplicates(self):
        with pytest.raises(ContractError):
            configuration(3, [(0, 1, 1), (2, 3, 3)])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(DimensionError):
            configuration(3, [(0, 1, 1), (0, 1)])

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            Configuration(3, ())

    def test_rejects_floats_before_the_distinctness_check(self):
        with pytest.raises(TypeError):
            configuration(3, [(0, 0.4, 0.6), (0, 0.2, 0.1)])

    def test_rejects_points_that_are_not_torus_points(self):
        with pytest.raises(ContractError, match=r"configuration\(\) or normalize\(\)"):
            Configuration(3, ((1, 2, 3), (0, 1, 1)))

    def test_rejects_torus_points_with_non_integer_coordinates(self):
        with pytest.raises(TypeError):
            Configuration(3, (TorusPoint((0, 1.5, 2)), TorusPoint((0, 0, 0))))


class TestTropicalCombination:
    def test_huge_coefficient_drops_other_terms(self, collinear_triple):
        big = 10**6
        assert tropical_combination((0, big, big), collinear_triple) == normalize((0, -1, -2))

    def test_zero_coefficients_take_coordinatewise_min(self):
        cfg = configuration(3, [(0, -1, -2), (0, -3, -6)])
        assert tropical_combination((0, 0), cfg).coords == (0, -3, -6)

    def test_weighted_combination_lands_on_segment(self):
        cfg = configuration(3, [(0, -3, -6), (0, -1, -2)])
        z = tropical_combination((2, 0), cfg)
        assert z.coords == (0, -1, -4)
        assert z in segment(cfg.points[0], cfg.points[1])

    def test_length_mismatch(self, collinear_triple):
        with pytest.raises(DimensionError):
            tropical_combination((0, 0), collinear_triple)

    @given(configurations(), st.data())
    def test_shifting_all_coefficients_is_a_no_op(self, cfg, data):
        lam = data.draw(st.lists(st.integers(-5, 5), min_size=cfg.n, max_size=cfg.n))
        c = data.draw(st.integers(-10, 10))
        assert tropical_combination(lam, cfg) == tropical_combination([v + c for v in lam], cfg)


class TestSegment:
    def test_three_point_breakpoints(self):
        xs = [p.coords for p in segment(normalize((0, -3, -6)), normalize((0, -1, -2)))]
        assert xs == [(0, -3, -6), (0, -1, -4), (0, -1, -2)]

    def test_single_piece_has_no_interior_breakpoint(self):
        xs = [p.coords for p in segment(normalize((0, 0, 0)), normalize((0, 1, 1)))]
        assert xs == [(0, 0, 0), (0, 1, 1)]

    def test_dimension_two_is_classical(self):
        xs = [p.coords for p in segment(normalize((0, 0)), normalize((0, 5)))]
        assert xs == [(0, 0), (0, 5)]

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSegmentError):
            segment(normalize((0, 1, 2)), normalize((0, 1, 2)))

    @given(point_pairs())
    def test_structure(self, pair):
        x, y = pair
        d = len(x)
        points = segment(x, y)
        assert points[0] == x and points[-1] == y
        assert len(points) <= d, "more than d breakpoints"
        assert len(points) - 1 <= d - 1, "more than d-1 classical pieces"
        cfg = Configuration(d, (x, y))
        for a, b in zip(points, points[1:]):
            diff = [b[j] - a[j] for j in range(d)]
            shifted = [v - min(diff) for v in diff]
            top = max(shifted)
            assert top > 0 and all(v in (0, top) for v in shifted), "direction not a scaled 0/1 vector"
        for p in points:
            assert contains(cfg, p), "breakpoint escaped the hull"


class TestTropicalDeterminant:
    def test_all_zero_matrix_is_singular(self):
        assert tropical_determinant([[0, 0], [0, 0]]) == (0, 2)

    def test_diagonal_optimum_is_unique(self):
        assert tropical_determinant([[0, 1], [1, 0]]) == (0, 1)

    def test_three_by_three_against_independent_count(self):
        m = [[0, 1, 2], [0, 2, 4], [0, 3, 6]]
        assert tropical_determinant(m) == (4, 1)
        assert assignment_min_count(m) == (4, 1)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            tropical_determinant([[0, 1, 2], [3, 4, 5]])
        with pytest.raises(DimensionError):
            tropical_determinant([])

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda r: st.lists(
                st.lists(st.integers(-10, 10), min_size=r, max_size=r),
                min_size=r,
                max_size=r,
            )
        )
    )
    def test_agrees_with_permutation_scan(self, matrix):
        assert tropical_determinant(matrix) == assignment_min_count(matrix)

    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda r: st.tuples(
                st.lists(
                    st.lists(st.integers(-10, 10), min_size=r, max_size=r),
                    min_size=r,
                    max_size=r,
                ),
                st.permutations(list(range(r))),
            )
        )
    )
    def test_row_permutation_invariant(self, case):
        matrix, perm = case
        shuffled = [matrix[i] for i in perm]
        assert tropical_determinant(matrix) == tropical_determinant(shuffled)


class TestGeneralPosition:
    def test_collinear_triple_is_generic(self, collinear_triple):
        assert is_general_position(collinear_triple)

    def test_repeated_difference_is_degenerate(self, degenerate_pair):
        assert not is_general_position(degenerate_pair)
        rows, cols = singular_square_minor(degenerate_pair)
        assert rows == (0, 1) and cols == (1, 2)

    def test_single_point_is_generic(self):
        assert is_general_position(configuration(4, [(0, 1, 2, 3)]))

    @given(configurations(min_n=2))
    @settings(max_examples=60)
    def test_witness_is_actually_singular(self, cfg):
        witness = singular_square_minor(cfg)
        assert is_general_position(cfg) == (witness is None)
        if witness is not None:
            rows, cols = witness
            minor = [[cfg.points[i][j] for j in cols] for i in rows]
            assert assignment_min_count(minor)[1] >= 2

    @given(configurations(min_n=2, max_d=5, max_n=5, lo=-2, hi=2))
    @settings(max_examples=60)
    def test_witness_is_first_singular_minor_in_scan_order(self, cfg):
        # The scan reuses one memo for every minor; the oracle recomputes each one.
        first = None
        for r in range(min(cfg.n, cfg.d), 1, -1):
            for rows in combinations(range(cfg.n), r):
                for cols in combinations(range(cfg.d), r):
                    minor = [[cfg.points[i][j] for j in cols] for i in rows]
                    if first is None and assignment_min_count(minor)[1] >= 2:
                        first = (rows, cols)
        assert singular_square_minor(cfg) == first

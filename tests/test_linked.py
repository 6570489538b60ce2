import copy
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from mustafin import (
    ZERO,
    Configuration,
    LinkedGraph,
    build_graph,
    configuration,
    exactness_check,
    graph_to_dot,
    lattice_points,
    local_model_chain,
    normalize,
    path_map,
    reduction_profile,
    segment,
    segment_lattice_path,
    simple_root_maps,
)
from mustafin.apartment import is_adjacent
from mustafin.errors import ContractError, DimensionError, DomainError
from mustafin.oracles import brute_force_hull, edge_maps_by_pair_scan, root_maps_by_walk, step_diagonal

from strategies import configurations


@pytest.fixture
def pair_graph():
    return build_graph(configuration(2, [(0, 0), (0, 1)]))


@st.composite
def endpoint_pairs(draw):
    """Two classes with d in 2..6 and coordinates in [-4, 4]; y = x about half the time."""
    d = draw(st.integers(min_value=2, max_value=6))
    points = st.tuples(*[st.integers(min_value=-4, max_value=4)] * (d - 1))
    x = draw(points.map(lambda row: normalize((0,) + row)))
    return x, draw(st.one_of(st.just(x), points.map(lambda row: normalize((0,) + row))))


@st.composite
def wide_configurations(draw):
    """Coordinates in [-40, 40], often at its ends, where a neighbour lookup by integer codes could carry.

    Up to four points in d = 2 and up to two in d = 3 or 4, so that the pair scan stays small."""
    d = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4 if d == 2 else 2))
    coordinate = st.one_of(st.sampled_from([-40, 40]), st.integers(min_value=-40, max_value=40))
    rows = draw(st.lists(st.tuples(*[coordinate] * (d - 1)), min_size=n, max_size=n, unique=True))
    return Configuration(d, tuple(normalize((0,) + row) for row in rows))


@st.composite
def diagonal_chains(draw):
    """A path u_0, ..., u_k with arbitrary 0/1 diagonals on both directions of each edge."""
    d = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=4))
    path = [normalize((0, i)) for i in range(k + 1)]
    diagonal = st.tuples(*[st.integers(min_value=0, max_value=1)] * d)
    maps = {}
    for u, v in zip(path, path[1:]):
        maps[(u, v)], maps[(v, u)] = draw(diagonal), draw(diagonal)
    return LinkedGraph(d, tuple(path), maps), path


def _simple_paths(graph, start, end, cap):
    found = []
    stack = [(start, [start])]
    while stack and len(found) < cap:
        node, walk = stack.pop()
        if node == end:
            found.append(walk)
            continue
        for nxt in graph.neighbors(node):
            if nxt not in walk:
                stack.append((nxt, walk + [nxt]))
    return found


class TestBuildGraph:
    def test_two_classes_in_dimension_two(self, pair_graph):
        u, v = normalize((0, 0)), normalize((0, 1))
        assert pair_graph.vertices == (u, v)
        assert pair_graph.edges == [(u, v)]
        assert pair_graph.diagonal(u, v) == (1, 0)
        assert pair_graph.diagonal(v, u) == (0, 1)

    def test_three_class_path(self):
        cfg = configuration(3, [(0, 0, 0), (0, -1, 0), (0, -2, -1)])
        graph = build_graph(cfg)
        assert len(graph.vertices) == 3
        degrees = {v: len(graph.neighbors(v)) for v in graph.vertices}
        assert sorted(degrees.values()) == [1, 1, 2]

    def test_single_vertex_has_no_edges(self):
        graph = build_graph(configuration(3, [(0, 5, 2)]))
        assert len(graph.vertices) == 1 and graph.edges == []

    def test_edge_diagonals_complement_each_other(self, collinear_triple):
        graph = build_graph(collinear_triple)
        for u, v in graph.edges:
            f, g = graph.diagonal(u, v), graph.diagonal(v, u)
            assert all(a + b == 1 for a, b in zip(f, g))
            assert any(f) and any(g)

    @given(st.one_of(configurations(min_d=2, max_d=5, min_n=1, max_n=4, lo=-2, hi=2), wide_configurations()))
    @settings(max_examples=100, deadline=None)
    def test_edge_maps_equal_the_pair_scan(self, cfg):
        graph = build_graph(cfg)
        assert graph.vertices == tuple(lattice_points(cfg))
        assert graph.edge_maps == edge_maps_by_pair_scan(cfg)
        # build_graph inserts each edge from its smaller end first, in sorted order
        assert [(u, v) for u, v in graph.edge_maps if u < v] == graph.edges

    @given(configurations(min_d=2, max_d=5, min_n=1, max_n=4, lo=-2, hi=2), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_edges_and_neighbors_equal_scans_of_the_edge_maps(self, cfg, rng):
        full = build_graph(cfg)
        # A hand-made graph may hold one direction of a pair, both, or neither, in any order.
        kept = [item for item in full.edge_maps.items() if rng.random() < 0.5]
        rng.shuffle(kept)
        kept = dict(kept)
        for graph in (full, LinkedGraph(cfg.d, full.vertices, kept)):
            assert graph.edges == sorted({tuple(sorted((u, v))) for u, v in graph.edge_maps})
            for u in graph.vertices:
                assert graph.neighbors(u) == sorted(v for (a, v) in graph.edge_maps if a == u)

    def test_one_directional_edge(self):
        u, v = normalize((0, 0)), normalize((0, 1))
        graph = LinkedGraph(2, (u, v), {(v, u): (0, 1)})
        assert graph.edges == [(u, v)]
        assert graph.neighbors(u) == [] and graph.neighbors(v) == [u]
        graph.neighbors(v).clear()
        assert graph.neighbors(v) == [u]


class TestPathMap:
    def test_single_vertex_path_is_identity(self, pair_graph):
        u = pair_graph.vertices[0]
        assert path_map(pair_graph, [u]) == (1, 1)

    def test_round_trip_vanishes(self, pair_graph):
        u, v = pair_graph.vertices
        assert path_map(pair_graph, [u, v, u]) is ZERO

    def test_zero_survives_copy_and_pickle(self):
        assert copy.copy(ZERO) is ZERO and copy.deepcopy(ZERO) is ZERO
        assert pickle.loads(pickle.dumps(ZERO)) is ZERO

    def test_non_path_rejected(self, collinear_triple):
        graph = build_graph(collinear_triple)
        far = (normalize((0, -1, -2)), normalize((0, -3, -6)))
        with pytest.raises(ContractError):
            path_map(graph, far)
        with pytest.raises(ContractError):
            path_map(graph, [])

    def test_non_vertex_rejected(self, collinear_triple):
        graph = build_graph(collinear_triple)
        inside, outside = normalize((0, -1, -4)), normalize((0, -2, -3))
        for path in ([outside], [inside, outside]):
            with pytest.raises(ContractError, match="is not a vertex of the graph"):
                path_map(graph, path)

    def test_minimal_paths_reproduce_profile_diagonals(self, collinear_triple):
        graph = build_graph(collinear_triple)
        hull_pts = list(lattice_points(collinear_triple))
        for u in hull_pts:
            profile = reduction_profile(collinear_triple, u)
            for i, generator in enumerate(collinear_triple.points):
                walk = segment_lattice_path(u, generator)
                assert path_map(graph, walk) == profile.diagonals()[i] or (
                    path_map(graph, walk) is ZERO and not any(profile.diagonals()[i])
                )

    def test_cycles_vanish(self):
        graph = build_graph(local_model_chain(3))
        a, b, c = graph.vertices
        for cycle in ([a, b, c, a], [a, c, b, a]):
            if all((u, v) in graph.edge_maps for u, v in zip(cycle, cycle[1:])):
                assert path_map(graph, cycle) is ZERO

    def test_every_simple_path_matches_minimal_or_vanishes(self, collinear_triple):
        for cfg in (collinear_triple, local_model_chain(3)):
            graph = build_graph(cfg)
            for start in graph.vertices:
                for end in graph.vertices:
                    if start == end:
                        continue
                    minimal = path_map(graph, segment_lattice_path(start, end))
                    for walk in _simple_paths(graph, start, end, cap=200):
                        value = path_map(graph, walk)
                        assert value is ZERO or value == minimal, (walk, value, minimal)


class TestExactness:
    def test_segment_chains_pass(self, collinear_triple):
        graph = build_graph(collinear_triple)
        pts = collinear_triple.points
        for a in range(len(pts)):
            for b in range(len(pts)):
                if a == b:
                    continue
                chain = segment_lattice_path(pts[a], pts[b])
                report = exactness_check(graph, chain)
                assert report.all_ok

    def test_pair_chain_passes(self, pair_graph):
        assert exactness_check(pair_graph, list(pair_graph.vertices)).all_ok

    def test_non_nested_supports_fail_condition_three(self):
        u, v, w = normalize((0, 0)), normalize((0, 1)), normalize((0, 2))
        maps = {
            (u, v): (1, 0), (v, u): (0, 1),
            (v, w): (0, 1), (w, v): (1, 0),
        }
        graph = LinkedGraph(2, (u, v, w), maps)
        report = exactness_check(graph, [u, v, w])
        assert report.ker_f_is_im_g == (True, True)
        assert report.ker_g_is_im_f == (True, True)
        assert report.im_f_avoids_ker_f == (False,)
        assert not report.all_ok

    def test_non_complementary_edge_fails_conditions_one_and_two(self):
        u, v = normalize((0, 0)), normalize((0, 1))
        graph = LinkedGraph(2, (u, v), {(u, v): (1, 0), (v, u): (1, 0)})
        report = exactness_check(graph, [u, v])
        assert report.ker_f_is_im_g == (False,)
        assert report.ker_g_is_im_f == (False,)
        assert not report.all_ok

    @given(diagonal_chains())
    @settings(max_examples=60, deadline=None)
    def test_conditions_follow_their_definitions(self, chain):
        graph, path = chain
        report = exactness_check(graph, path)
        image = [
            [{j for j, a in enumerate(graph.diagonal(u, v)) if a} for u, v in zip(path, path[1:])],
            [{j for j, a in enumerate(graph.diagonal(v, u)) if a} for u, v in zip(path, path[1:])],
        ]
        kernel = [[set(range(graph.d)) - im for im in images] for images in image]
        f, g = 0, 1
        edges, interior = range(len(path) - 1), range(1, len(path) - 1)
        assert report.ker_f_is_im_g == tuple(kernel[f][i] == image[g][i] for i in edges)
        assert report.ker_g_is_im_f == tuple(kernel[g][i] == image[f][i] for i in edges)
        assert report.im_f_avoids_ker_f == tuple(not image[f][i - 1] & kernel[f][i] for i in interior)
        assert report.im_g_avoids_ker_g == tuple(not image[g][i] & kernel[g][i - 1] for i in interior)

    def test_needs_an_edge(self, pair_graph):
        with pytest.raises(ContractError):
            exactness_check(pair_graph, [pair_graph.vertices[0]])


class TestSimpleRootMaps:
    def test_root_at_generator_gives_identity_factor(self, collinear_triple):
        for i, p in enumerate(collinear_triple.points):
            maps = simple_root_maps(collinear_triple, p)
            assert maps[i] == (1, 1, 1)

    def test_interior_root_supports(self, collinear_triple):
        maps = simple_root_maps(collinear_triple, normalize((0, -1, -4)))
        assert [sum(m) for m in maps] == [2, 1, 2]

    def test_two_class_example(self):
        cfg = configuration(2, [(0, 0), (0, 1)])
        assert simple_root_maps(cfg, normalize((0, 0))) == [(1, 1), (1, 0)]

    def test_outside_hull_rejected(self, collinear_triple):
        with pytest.raises(DomainError):
            simple_root_maps(collinear_triple, normalize((0, 1, 1)))

    @given(configurations(min_d=3, max_d=4, min_n=2, max_n=3, lo=-3, hi=3))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_reduction_profile_everywhere(self, cfg):
        for root in lattice_points(cfg):
            walked = tuple(root_maps_by_walk(cfg, root))
            assert walked == reduction_profile(cfg, root).diagonals() == tuple(simple_root_maps(cfg, root))


class TestSegmentLatticePath:
    def test_unit_steps_and_endpoints(self, collinear_triple):
        x, y = normalize((0, -1, -4)), normalize((0, -3, -6))
        walk = segment_lattice_path(x, y)
        assert walk[0] == x and walk[-1] == y
        assert [p.coords for p in walk] == [(0, -1, -4), (0, -2, -5), (0, -3, -6)]
        for u, v in zip(walk, walk[1:]):
            step_diagonal(u, v)  # raises unless adjacent

    def test_trivial_walk(self):
        p = normalize((0, 3, 1))
        assert segment_lattice_path(p, p) == [p]

    def test_endpoints_of_different_lengths_rejected(self):
        with pytest.raises(DimensionError):
            segment_lattice_path(normalize((0, 1)), normalize((0, 1, 2)))

    @given(endpoint_pairs())
    @settings(max_examples=150, deadline=None)
    def test_path_is_the_lattice_segment(self, pair):
        x, y = pair
        walk = segment_lattice_path(x, y)
        delta = [b - a for a, b in zip(x.coords, y.coords)]
        assert walk[0] == x and walk[-1] == y
        assert len(walk) == max(delta) - min(delta) + 1
        assert all(is_adjacent(u, v) for u, v in zip(walk, walk[1:]))
        if x != y:
            assert set(walk) == brute_force_hull(Configuration(len(x), (x, y)))
            rest = iter(walk)
            assert all(corner in rest for corner in segment(x, y))  # a subsequence, in order


class TestGraphConnectivity:
    def _connected(self, graph):
        if not graph.vertices:
            return True
        seen = {graph.vertices[0]}
        frontier = [graph.vertices[0]]
        while frontier:
            u = frontier.pop()
            for v in graph.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == len(graph.vertices)

    def test_hull_graphs_are_connected(self, collinear_triple, degenerate_pair):
        for cfg in (collinear_triple, degenerate_pair, local_model_chain(4)):
            assert self._connected(build_graph(cfg))

    @given(configurations(min_d=3, max_d=3, min_n=2, max_n=3, lo=-3, hi=3))
    @settings(max_examples=20, deadline=None)
    def test_random_hull_graphs_are_connected(self, cfg):
        assert self._connected(build_graph(cfg))


class TestDot:
    def test_dot_lists_vertices_and_supports(self, pair_graph):
        dot = graph_to_dot(pair_graph)
        assert dot.startswith("graph hull {") and dot.endswith("}")
        assert '"0,0"' in dot and '"0,1"' in dot
        assert '{1} / {2}' in dot

    def test_each_edge_shows_its_own_diagonals(self):
        # A hand-made graph may give two edges one forward diagonal and different backward ones.
        u, v, w = normalize((0, 0)), normalize((0, 1)), normalize((0, 2))
        graph = LinkedGraph(2, (u, v, w), {(u, v): (1, 0), (v, u): (0, 1), (v, w): (1, 0), (w, v): (1, 1)})
        assert graph_to_dot(graph).splitlines()[-3:] == [
            '  "0,0" -- "0,1" [label="{1} / {2}"];', '  "0,1" -- "0,2" [label="{1} / {1,2}"];', "}"
        ]

    def test_an_edge_held_in_one_direction_shows_the_other_as_a_dash(self):
        u, v = normalize((0, 0)), normalize((0, 1))
        graph = LinkedGraph(2, (u, v), {(v, u): (0, 1)})
        assert graph.edges == [(u, v)]
        assert graph_to_dot(graph).splitlines()[-2:] == ['  "0,0" -- "0,1" [label="- / {2}"];', "}"]

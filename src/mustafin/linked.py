"""Rank-one linked-Grassmannian combinatorics over a hull of lattice classes.

Vertices are the hull lattice points, edges the building-adjacent pairs. Each directed edge carries the 0/1
diagonal of its special-fiber map: for u -> v with difference shifted to a zero-one vector w, the diagonal is
supported on the zero set of w (the inclusion direction), and the opposite direction gets the complement.
Composing diagonals along paths either reproduces the minimal-path map or vanishes identically. The minimal path
from x to y is the closed form min(c + x, y), c an integer between the smallest and largest entry of y - x
(`segment_lattice_path`); its independent route is `oracles.brute_force_hull` of the pair {x, y}. The composed
diagonals from a hull point toward the generators are read off its reduction profile (`simple_root_maps`);
`oracles.root_maps_by_walk` composes them along the paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import product
from math import prod
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ContractError, DimensionError
from .fiber import reduction_profile
from .hull import HullLatticeSet, lattice_points
from .tropical import Configuration, TorusPoint, _segment_points


class _ZeroPathMap:
    """Distinguished outcome of a path whose composed map vanishes; ``ZERO`` is its one instance."""

    def __repr__(self) -> str:
        return "ZERO"

    def __reduce__(self) -> str:
        return "ZERO"  # copy and pickle hand back the module's ZERO


ZERO = _ZeroPathMap()


@dataclass
class LinkedGraph:
    """Graph of hull lattice classes with diagonal edge maps."""

    d: int
    vertices: tuple[TorusPoint, ...]
    edge_maps: dict[tuple[TorusPoint, TorusPoint], tuple[int, ...]] = field(repr=False)

    @property
    def edges(self) -> list[tuple[TorusPoint, TorusPoint]]:
        """Unordered edges, each once with endpoints sorted."""
        maps = self.edge_maps  # each pair from its smaller end, or from the larger if only that direction is held
        return sorted([(u, v) if u <= v else (v, u) for u, v in maps if u <= v or (v, u) not in maps])

    def diagonal(self, u: TorusPoint, v: TorusPoint) -> tuple[int, ...]:
        try:
            return self.edge_maps[(u, v)]
        except KeyError:
            raise ContractError(f"{u.coords} -> {v.coords} is not an edge") from None

    def neighbors(self, u: TorusPoint) -> list[TorusPoint]:
        """Sorted out-neighbours of ``u``, from an adjacency cached on the first call."""
        return list(self._out_neighbors.get(u, ()))

    @cached_property
    def _vertex_set(self) -> frozenset[TorusPoint]:
        return frozenset(self.vertices)

    @cached_property
    def _out_neighbors(self) -> dict[TorusPoint, list[TorusPoint]]:
        adjacency: dict[TorusPoint, list[TorusPoint]] = {}
        for u, v in sorted(self.edge_maps):
            adjacency.setdefault(u, []).append(v)
        return adjacency


def hull_edges(hull: HullLatticeSet) -> Iterator[tuple[TorusPoint, TorusPoint, tuple[int, ...], tuple[int, ...]]]:
    """Each edge (u, u + e_S) of the linked graph on ``hull`` and its forward and backward diagonals, sorted.

    Modulo all-ones, adjacent classes differ by +e_S or -e_S for a nonempty S
    of {2..d}, so every edge is u -> u + e_S from one end: each vertex looks up
    2^(d-1) - 1 neighbours. The diagonal of u -> u + e_S is 1 off S, of u + e_S -> u on S.

    A vector x is looked up by its code sum_j x_j B^(d-j), B = max - min + 2 over the hull's coordinates. Less
    the minimum, hull coordinates are digits in [0, B - 2] and those of u + e_S in [0, B - 1], so adding e_S
    carries nowhere, code(u + e_S) = code(u) + code(e_S), and two vectors with digits in [0, B - 1] have equal
    codes only if they are equal. Points in order and steps in lexicographic order make the pairs (u, u + e_S)
    arrive sorted.
    """
    d = hull.config.d
    base = max(map(max, hull)) - min(map(min, hull)) + 2
    weights = [base ** (d - 1 - j) for j in range(d)]
    own = {sum(map(mul, u, weights)): u for u in hull}
    steps = [(0, *bits) for bits in product((0, 1), repeat=d - 1)][1:]
    moves = [(sum(map(mul, step, weights)), tuple(1 - b for b in step), step) for step in steps]
    for code, u in own.items():
        for shift, forward, backward in moves:
            v = own.get(code + shift)
            if v is not None:
                yield u, v, forward, backward


def build_graph(config: Configuration) -> LinkedGraph:
    """Linked graph on the hull lattice points of a configuration, its edge maps filled from ``hull_edges``."""
    hull = lattice_points(config)
    edge_maps: dict[tuple[TorusPoint, TorusPoint], tuple[int, ...]] = {}
    for u, v, forward, backward in hull_edges(hull):
        edge_maps[u, v] = forward
        edge_maps[v, u] = backward
    return LinkedGraph(config.d, hull.ordered, edge_maps)


def _compose(d: int, diagonals) -> tuple[int, ...]:
    """Entrywise product of diagonals; the all-ones diagonal when there are none."""
    return tuple(prod(column) for column in zip((1,) * d, *diagonals))


def path_map(graph: LinkedGraph, path: Sequence[TorusPoint]):
    """Entrywise product of edge diagonals along ``path``; ZERO if it vanishes.

    A single-vertex path composes to the identity (all-ones) diagonal.
    """
    if not path:
        raise ContractError("a path needs at least one vertex")
    for vertex in path:
        if vertex not in graph._vertex_set:
            raise ContractError(f"{vertex.coords} is not a vertex of the graph")
    product = _compose(graph.d, (graph.diagonal(u, v) for u, v in zip(path, path[1:])))
    if not any(product):
        return ZERO
    return product


@dataclass(frozen=True)
class ChainExactnessReport:
    """Exactness of a chain of diagonal maps, one flag list per condition.

    Per edge i: (1) ker f_i = im g_i and (2) ker g_i = im f_i, where f
    runs forward along the chain and g backward. Per interior vertex i:
    (3) im f_{i-1} meets ker f_i trivially and (4) im g_i meets ker g_{i-1}
    trivially; for 0/1 diagonals both reduce to support nesting.
    """

    ker_f_is_im_g: tuple[bool, ...]
    ker_g_is_im_f: tuple[bool, ...]
    im_f_avoids_ker_f: tuple[bool, ...]
    im_g_avoids_ker_g: tuple[bool, ...]

    @property
    def all_ok(self) -> bool:
        return all(all(getattr(self, f.name)) for f in fields(self))


def exactness_check(graph: LinkedGraph, path: Sequence[TorusPoint]) -> ChainExactnessReport:
    """Check the four chain exactness conditions along a path in the graph."""
    if len(path) < 2:
        raise ContractError("exactness needs a chain with at least one edge")
    forward = [graph.diagonal(u, v) for u, v in zip(path, path[1:])]
    backward = [graph.diagonal(v, u) for u, v in zip(path, path[1:])]

    def supp(diag):
        return frozenset(j for j, a in enumerate(diag) if a)

    full = frozenset(range(graph.d))
    # Conditions (1) and (2) are one test: for subsets F, G of [d], F^c = G iff G^c = F.
    complementary = tuple(full - supp(f) == supp(g) for f, g in zip(forward, backward))
    # (3) and (4) as support nesting: im f_{i-1} in im f_i and im g_i in im g_{i-1}.
    cond3 = tuple(supp(f) <= supp(later) for f, later in zip(forward, forward[1:]))
    cond4 = tuple(supp(later) <= supp(g) for g, later in zip(backward, backward[1:]))
    return ChainExactnessReport(complementary, complementary, cond3, cond4)


def segment_lattice_path(x: TorusPoint, y: TorusPoint) -> list[TorusPoint]:
    """Lattice points of the tropical segment x -> y in order: a minimal path in the linked graph.

    With delta = y - x they are min(c + x, y) for the integers c from min(delta) to max(delta):
    - from c to c + 1 exactly the coordinates with delta_j > c go up by one, a nonempty proper
      subset for min(delta) <= c < max(delta), so consecutive points are adjacent;
    - the path has max(delta) - min(delta) steps, the building distance from x to y;
    - a point min(c + x, y) of the segment is a lattice class only at integer c.
    For x = y the path is [x].
    """
    if len(x) != len(y):
        raise DimensionError(f"endpoint dimensions differ: {len(x)} vs {len(y)}")
    delta = [b - a for a, b in zip(x.coords, y.coords)]
    return _segment_points(x, y, range(min(delta), max(delta) + 1))


def simple_root_maps(config: Configuration, root: TorusPoint) -> list[tuple[int, ...]]:
    """Composed minimal-path diagonals from hull point ``root`` toward each generator, by its reduction profile.

    Along min(c + x, v_i), x = ``root``, the step c -> c + 1 raises the coordinates with (v_i - x)_j > c and its
    diagonal is 1 on the rest: exactly the coordinates where v_i - x is smallest never rise, so the composed
    diagonal is 1 on J_i. DomainError off the hull; ``oracles.root_maps_by_walk`` composes the step diagonals.
    """
    return list(reduction_profile(config, root).diagonals())


def render_edges(edges: Iterable[tuple], template: Callable[[tuple[int, ...], tuple[int, ...]], str]) -> Iterator[str]:
    """``template(forward, backward) % (u + v)`` for each edge (u, v, forward, backward), with one template per
    pair of diagonals."""
    templates = {}
    for u, v, forward, backward in edges:
        key = forward, backward
        if key not in templates:
            templates[key] = template(forward, backward)
        yield templates[key] % (u + v)


def dot_lines(d: int, vertices: Iterable[TorusPoint], edges: Iterable[tuple]) -> Iterator[str]:
    """The DOT lines of a graph, one at a time; edge labels show the two diagonal supports, ``-`` for None."""
    name = '"' + ",".join(["%d"] * d) + '"'

    def edge(*diagonals: tuple[int, ...] | None) -> str:
        label = " / ".join("-" if g is None else "{%s}" % ",".join(str(j + 1) for j, a in enumerate(g) if a)
                           for g in diagonals)
        return f'  {name} -- {name} [label="{label}"];'

    yield "graph hull {"
    yield from map(f"  {name};".__mod__, vertices)
    yield from render_edges(edges, edge)
    yield "}"


def graph_to_dot(graph: LinkedGraph) -> str:
    """DOT rendering; edge labels show the two diagonal supports, ``-`` for a direction the graph does not hold."""
    maps = graph.edge_maps
    edges = ((u, v, maps.get((u, v)), maps.get((v, u))) for u, v in graph.edges)
    return "\n".join(dot_lines(graph.d, graph.vertices, edges))

"""Rank-one linked-Grassmannian combinatorics over a hull of lattice classes.

Vertices are the hull lattice points, edges the building-adjacent pairs.
Each directed edge carries the 0/1 diagonal of its special-fiber map: for
u -> v with difference shifted to a zero-one vector w, the diagonal is
supported on the zero set of w (the inclusion direction), and the opposite
direction gets the complement. Composing diagonals along paths either
reproduces the minimal-path map or vanishes identically. The minimal path
from x to y is the closed form min(c + x, y), c an integer between the
smallest and largest entry of y - x (`segment_lattice_path`); its
independent route is `oracles.brute_force_hull` of the pair {x, y}.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import product, starmap
from math import prod
from operator import add, mod, mul
from typing import Callable, Iterator, Sequence

from .apartment import is_adjacent
from .errors import ContractError, DimensionError, DomainError
from .hull import contains, lattice_points
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


def step_diagonal(u: TorusPoint, v: TorusPoint) -> tuple[int, ...]:
    """Diagonal of the edge map u -> v: 1 where the shifted difference is 0."""
    if not is_adjacent(u, v):
        raise ContractError(f"{u.coords} and {v.coords} are not adjacent")
    diff = [b - a for a, b in zip(u.coords, v.coords)]
    lo = min(diff)
    return tuple(1 if value == lo else 0 for value in diff)


def build_graph(config: Configuration) -> LinkedGraph:
    """Linked graph on the hull lattice points of a configuration.

    Modulo all-ones, adjacent classes differ by +e_S or -e_S for a nonempty S
    of {2..d}, so every edge is u -> u + e_S from one end: each vertex looks up
    2^(d-1) - 1 neighbours. The diagonal of u -> u + e_S is 1 off S, of u + e_S -> u on S.

    A vector x is looked up by its code sum_j x_j B^(d-j), B = max - min + 2 over the hull's coordinates. Less
    the minimum, hull coordinates are digits in [0, B - 2] and those of u + e_S in [0, B - 1], so adding e_S
    carries nowhere, code(u + e_S) = code(u) + code(e_S), and two vectors with digits in [0, B - 1] have equal
    codes only if they are equal. Points in order and steps in lexicographic order make the keys (u, u + e_S)
    arrive sorted.
    """
    hull = lattice_points(config)
    base = max(map(max, hull)) - min(map(min, hull)) + 2
    weights = [base ** (config.d - 1 - j) for j in range(config.d)]
    own = {sum(map(mul, u, weights)): u for u in hull}
    steps = [(0, *bits) for bits in product((0, 1), repeat=config.d - 1)][1:]
    moves = [(sum(map(mul, step, weights)), tuple(1 - b for b in step), step) for step in steps]
    edge_maps: dict[tuple[TorusPoint, TorusPoint], tuple[int, ...]] = {}
    for code, u in own.items():
        for shift, forward, backward in moves:
            v = own.get(code + shift)
            if v is not None:
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
    """Composed minimal-path diagonals from ``root`` toward each generator.

    Agreement with the reduction profile at the root is a theorem, not an
    assumption; the test suite checks it.
    """
    if not contains(config, root):
        raise DomainError(f"{root.coords} is not in the hull of the configuration")
    return _root_maps(config, root)


def _root_maps(config: Configuration, root: TorusPoint) -> list[tuple[int, ...]]:
    paths = (segment_lattice_path(root, generator) for generator in config.points)
    return [_compose(config.d, (step_diagonal(u, v) for u, v in zip(p, p[1:]))) for p in paths]


def render_edges(graph: LinkedGraph, template: Callable[[tuple[int, ...], tuple[int, ...]], str]) -> Iterator[str]:
    """``template(forward, backward) % (u + v)`` for each edge (u, v) of ``graph.edges``, with one template per
    step pattern. The forward diagonal names the pattern: in a built graph the backward one is its complement."""
    edges, maps = graph.edges, graph.edge_maps
    forwards = [maps[edge] for edge in edges]
    templates = {f: template(f, graph.diagonal(v, u)) for f, (u, v) in dict(zip(forwards, edges)).items()}
    return map(mod, map(templates.__getitem__, forwards), starmap(add, edges))


def dot_lines(graph: LinkedGraph) -> Iterator[str]:
    """The lines of ``graph_to_dot``, one at a time; edge labels show the two diagonal supports."""
    name = '"' + ",".join(["%d"] * graph.d) + '"'

    def edge(*diagonals: tuple[int, ...]) -> str:
        label = " / ".join("{" + ",".join(str(j + 1) for j, a in enumerate(diag) if a) + "}" for diag in diagonals)
        return f'  {name} -- {name} [label="{label}"];'

    yield "graph hull {"
    yield from map(f"  {name};".__mod__, graph.vertices)
    yield from render_edges(graph, edge)
    yield "}"


def graph_to_dot(graph: LinkedGraph) -> str:
    """DOT rendering; edge labels show the two diagonal supports."""
    return "\n".join(dot_lines(graph))

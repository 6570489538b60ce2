"""Brute-force reference computations used to cross-check the fast paths.

These deliberately avoid the covering test on argmin masks, the memoised minor
expansion, the neighbour lookups and the hull-point signature machinery,
so that each check in the test suite and in ``verify`` compares two
independent routes.

The report trees at the end check the CLI's renderers: they build one dict per hull
point or edge, and ``json.dumps(tree, indent=2, sort_keys=True)`` plus a newline is
what the ``classify``, ``hull`` and ``graph`` commands print, which stream the same
text from templates made once per argmin type, vertex or pair of diagonals. The trees take
most values from the library, but general position from the minor scan and the edges
from the all-pairs adjacency scan, so they also check the CLI's verdict from the
argmin types and its edges streamed from the hull walk's integer codes.
"""

from __future__ import annotations

from itertools import permutations, product
from math import comb, prod
from typing import Sequence

from .apartment import DiagonalLatticeClass, class_to_point, intersection_class, is_adjacent, point_to_class
from .fiber import classify, component_counts, multidegree_partition
from .hull import lattice_points
from .linked import step_diagonal
from .multidegree import MultidegreeSet
from .tropical import Configuration, TorusPoint, is_general_position, normalize, tropical_combination


def bounding_box(config: Configuration) -> list[tuple[int, int]]:
    """Coordinatewise [min, max] over the normalized generators."""
    return [
        (min(p[j] for p in config.points), max(p[j] for p in config.points))
        for j in range(config.d)
    ]


def coordinate_range(config: Configuration) -> int:
    """Largest coordinate spread over the normalized generators."""
    return max(hi - lo for lo, hi in bounding_box(config))


def brute_force_hull(config: Configuration) -> frozenset[TorusPoint]:
    """All integer tropical combinations with coefficients in [0, range]^n.

    With normalized generators the canonical coefficients of any hull
    lattice point already lie in that box, so the enumeration is
    exhaustive; the result is intersected with the bounding box.
    """
    reach = coordinate_range(config)
    box = bounding_box(config)
    points = set()
    for lam in product(range(reach + 1), repeat=config.n):
        z = tropical_combination(lam, config)
        if all(lo <= z[j] <= hi for j, (lo, hi) in enumerate(box)):
            points.add(z)
    return frozenset(points)


def assignment_min_count(matrix: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Tropical determinant and its number of optimal permutations, by scanning all r! of them."""
    r = len(matrix)
    rows = [tuple(row) for row in matrix]
    best: int | None = None
    count = 0
    for sigma in permutations(range(r)):
        total = sum(rows[i][sigma[i]] for i in range(r))
        if best is None or total < best:
            best, count = total, 1
        elif total == best:
            count += 1
    assert best is not None
    return best, count


def edge_maps_by_pair_scan(config: Configuration) -> dict[tuple[TorusPoint, TorusPoint], tuple[int, ...]]:
    """Linked-graph edge maps by testing ``is_adjacent`` on every pair of hull points."""
    verts = list(lattice_points(config))
    pairs = [(u, v) for a, u in enumerate(verts) for v in verts[a + 1 :] if is_adjacent(u, v)]
    return {edge: step_diagonal(*edge) for u, v in pairs for edge in ((u, v), (v, u))}


def skeleton_scan(config: Configuration, m: Sequence[int]) -> set[TorusPoint]:
    """Locate multidegree ``m`` by scanning signatures over the brute-force hull.

    Argmin multiplicities are recomputed inline rather than through the
    hull module.
    """
    hits = set()
    for point in brute_force_hull(config):
        ok = True
        for target, generator in zip(m, config.points):
            diffs = [generator[j] - point[j] for j in range(config.d)]
            if diffs.count(min(diffs)) - 1 < target:
                ok = False
                break
        if ok:
            hits.add(point)
    return hits


def convex_closure_by_intersections(config: Configuration) -> frozenset[TorusPoint]:
    """Closure of the generators under pairwise lattice intersections.

    Iterates [pi^a L, pi^b L'] |-> class of pi^a L meet pi^b L' (exponentwise
    max) to a fixpoint; shifts beyond the coordinate range add nothing
    because one lattice then contains the other.
    """
    reach = coordinate_range(config)
    closure: set[DiagonalLatticeClass] = {point_to_class(p) for p in config.points}
    while True:
        fresh = set()
        current = list(closure)
        for a_idx, c1 in enumerate(current):
            for c2 in current[a_idx:]:
                for shift in range(-reach, reach + 1):
                    merged = intersection_class(0, c1, shift, c2)
                    if merged not in closure:
                        fresh.add(merged)
        if not fresh:
            break
        closure |= fresh
    return frozenset(class_to_point(c) for c in closure)


def all_box_points(config: Configuration) -> list[TorusPoint]:
    """Every normalized lattice point of the generators' bounding box."""
    box = bounding_box(config)
    return [
        normalize(candidate)
        for candidate in product(*(range(lo, hi + 1) for lo, hi in box))
    ]


def hilbert_by_inclusion_exclusion(mset: MultidegreeSet, u: Sequence[int]) -> int:
    """Multigraded Hilbert function at u by inclusion-exclusion over subsets of M.

    Sum over the nonempty subsets S of the multidegree tuples of
    (-1)^(|S|-1) * prod_i binom(u_i + l_i, l_i), where l_i is the smallest
    i-th entry over S: 2^|M| terms.
    """
    tuples = mset.sorted_tuples()
    n = len(u)
    total = 0

    def rec(idx: int, mins: tuple[int, ...] | None, size: int) -> None:
        nonlocal total
        if idx == len(tuples):
            if size:
                assert mins is not None
                sign = 1 if size % 2 else -1
                total += sign * prod(comb(u[i] + mins[i], mins[i]) for i in range(n))
            return
        rec(idx + 1, mins, size)
        t = tuples[idx]
        merged = t if mins is None else tuple(min(a, b) for a, b in zip(mins, t))
        rec(idx + 1, merged, size + 1)

    rec(0, None, 0)
    return total


def classification_tree(config: Configuration, echo: dict) -> dict:
    """The ``classify`` report with one dict per hull point."""
    descriptors = classify(config)
    counts = component_counts(config, descriptors)
    partition = multidegree_partition(config, descriptors)
    vertices = []
    for desc in descriptors:
        vertices.append(
            {
                "vertex": list(desc.vertex.coords),
                "argmins": [sorted(J) for J in desc.profile.argmins],
                "kernel_dims": [w.dim for w in desc.profile.kernels],
                "factor_dims": list(desc.factor_dims),
                "p": desc.p,
                "is_component": desc.is_component,
                "is_primary": desc.is_primary,
                "multidegrees": [list(m) for m in desc.multidegrees.sorted_tuples()],
            }
        )
    monomial = is_general_position(config)
    return {
        "config": echo,
        "general_position": monomial,
        "monomial_type": monomial,
        "counts": {
            "total": counts.total,
            "primary": counts.primary,
            "secondary": counts.secondary,
        },
        "hull": [list(desc.vertex.coords) for desc in descriptors],
        "vertices": vertices,
        "partition": [
            {"multidegree": list(m), "vertex": list(v.coords)}
            for m, v in sorted(partition.items())
        ],
    }


def hull_tree(config: Configuration, echo: dict) -> dict:
    """The ``hull`` report."""
    return {
        "config": echo,
        "hull": [list(p.coords) for p in lattice_points(config)],
    }


def graph_tree(config: Configuration, echo: dict) -> dict:
    """The ``graph`` report with one dict per edge, the edges from the all-pairs adjacency scan."""
    maps = edge_maps_by_pair_scan(config)
    return {
        "config": echo,
        "vertices": [list(v.coords) for v in lattice_points(config)],
        "edges": [
            {"u": list(u.coords), "v": list(v.coords), "forward": list(maps[u, v]), "backward": list(maps[v, u])}
            for u, v in sorted(edge for edge in maps if edge[0] < edge[1])
        ],
    }

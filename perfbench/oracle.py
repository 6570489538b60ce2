"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports the program. Points are plain integer tuples whose
first coordinate is 0, generators are lists of such tuples, and argmin
sets use 1-based coordinate indices, as in the program's reports.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def normalized(raw) -> tuple[int, ...]:
    base = raw[0]
    return tuple(c - base for c in raw)


def box_volume(gens) -> int:
    """Number of lattice points in the coordinatewise bounding box of the generators."""
    volume = 1
    for column in zip(*gens):
        volume *= max(column) - min(column) + 1
    return volume


def in_hull(gens, x) -> bool:
    """Min-plus residuation test: x is in the hull iff min_i(lam_i + g_i) == x."""
    lams = [max(a - b for a, b in zip(x, g)) for g in gens]
    for j, xj in enumerate(x):
        if min(lam + g[j] for lam, g in zip(lams, gens)) != xj:
            return False
    return True


def unit_steps(d: int) -> list[tuple[int, ...]]:
    """The 2^d - 2 zero-one steps modulo the all-ones vector, normalized."""
    steps = []
    for mask in range(1, (1 << d) - 1):
        step = tuple((mask >> j) & 1 for j in range(d))
        steps.append(normalized(step))
    return steps


def hull_by_walk(gens) -> set[tuple[int, ...]]:
    """Hull lattice points by a breadth-first walk from the generators.

    Any two hull lattice points are joined inside the hull by their
    tropical segment, which is a chain of zero-one unit steps, so the walk
    over zero-one neighbours that stay in the hull reaches every point.
    """
    d = len(gens[0])
    steps = unit_steps(d)
    lo = [min(column) for column in zip(*gens)]
    hi = [max(column) for column in zip(*gens)]
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for step in steps:
                y = tuple(a + b for a, b in zip(x, step))
                if y in seen:
                    continue
                if any(c < l or c > h for c, l, h in zip(y, lo, hi)):
                    continue
                if in_hull(gens, y):
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def argmin_sets(gens, v) -> list[frozenset[int]]:
    """J_i = the 1-based coordinates where g_i - v is minimal."""
    out = []
    for g in gens:
        diffs = [a - b for a, b in zip(g, v)]
        lo = min(diffs)
        out.append(frozenset(j + 1 for j, value in enumerate(diffs) if value == lo))
    return out


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every tuple of `parts` nonnegative integers with the given sum."""
    out = []
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        tup = []
        for b in bars:
            tup.append(b - prev - 1)
            prev = b
        tup.append(total + parts - 1 - prev - 1)
        out.append(tuple(tup))
    return out


def assignment_min_count(matrix) -> tuple[int, int]:
    """Min-plus determinant and its number of optimal permutations, by a DP over column sets."""
    r = len(matrix)
    best = {0: (0, 1)}
    for i in range(r):
        row = matrix[i]
        nxt: dict[int, tuple[int, int]] = {}
        for mask, (cost, ways) in best.items():
            for j in range(r):
                bit = 1 << j
                if mask & bit:
                    continue
                key = mask | bit
                value = cost + row[j]
                old = nxt.get(key)
                if old is None or value < old[0]:
                    nxt[key] = (value, ways)
                elif value == old[0]:
                    nxt[key] = (value, old[1] + ways)
        best = nxt
    return best[(1 << r) - 1]


def singular_minors(gens):
    """Yield (rows, cols) of every tropically singular square minor of size >= 2."""
    n, d = len(gens), len(gens[0])
    for r in range(2, min(n, d) + 1):
        for rows in combinations(range(n), r):
            for cols in combinations(range(d), r):
                matrix = [[gens[i][j] for j in cols] for i in rows]
                if assignment_min_count(matrix)[1] >= 2:
                    yield rows, cols


def is_generic(gens) -> bool:
    return next(singular_minors(gens), None) is None


def admissible(m, union_sizes) -> bool:
    """Hall-type test: sum_{i in I} m_i <= |union of J_i over I| - 1 for every nonempty I."""
    sums = [0] * len(union_sizes)
    for mask in range(1, len(union_sizes)):
        low = (mask & -mask).bit_length() - 1
        sums[mask] = sums[mask & (mask - 1)] + m[low]
        if sums[mask] > union_sizes[mask] - 1:
            return False
    return True


def union_sizes(argmins) -> list[int]:
    """|union of J_i over I| for every subset I, indexed by bitmask."""
    n = len(argmins)
    bits = [sum(1 << (j - 1) for j in J) for J in argmins]
    unions = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        unions[mask] = unions[mask & (mask - 1)] | bits[low]
    return [u.bit_count() for u in unions]


def multidegrees(argmins) -> tuple[int, list[tuple[int, ...]]]:
    """(p, M(p)): the top total degree with an admissible tuple, and those tuples."""
    sizes = union_sizes(argmins)
    n = len(argmins)
    caps = [len(J) - 1 for J in argmins]
    p, top = 0, [(0,) * n]
    h = 1
    while True:
        level = [
            m
            for m in compositions(h, n)
            if all(a <= c for a, c in zip(m, caps)) and admissible(m, sizes)
        ]
        if not level:
            return p, top
        p, top = h, level
        h += 1


def _c(u: int, k: int) -> int:
    return 1 if k == 0 else comb(u + k, k) - comb(u + k - 1, k - 1)


def hilbert_value(tuples, u) -> int:
    """H(u) as a sum over the down-closure of M of prod_i c(u_i, k_i)."""
    down = set()
    for m in tuples:
        box = [()]
        for top in m:
            box = [prefix + (k,) for prefix in box for k in range(top + 1)]
        down.update(box)
    total = 0
    for k in down:
        term = 1
        for ui, ki in zip(u, k):
            term *= _c(ui, ki)
        total += term
    return total


def neighbour_pairs(vertices) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs u < v of the vertex set whose difference has spread exactly 1."""
    present = set(vertices)
    steps = unit_steps(len(vertices[0]))
    pairs = set()
    for u in present:
        for step in steps:
            v = tuple(a + b for a, b in zip(u, step))
            if v in present and u < v:
                pairs.add((u, v))
    return pairs


def argmin_indicator(u, v) -> tuple[int, ...]:
    diff = [b - a for a, b in zip(u, v)]
    lo = min(diff)
    return tuple(1 if value == lo else 0 for value in diff)


def component_law(n: int, d: int) -> int:
    return comb(n + d - 2, d - 1)

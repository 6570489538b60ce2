"""Min-plus primitives on exact integer points of the tropical torus.

Points live in Z^d modulo the all-ones direction. Every public operation
works on normalized representatives (first coordinate pinned to 0), which
makes equality, hashing and lexicographic order well defined. A
``TorusPoint`` is a tuple subclass: it equals, hashes and sorts as its
normalized coordinate tuple, and ``.coords`` returns the point itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ContractError, DegenerateSegmentError, DimensionError


class TorusPoint(tuple):
    """A lattice class in one apartment: the normalized integer vector itself, so it equals,
    hashes and sorts as that tuple."""

    __slots__ = ()

    def __new__(cls, coords: Iterable[int]) -> TorusPoint:
        point = tuple.__new__(cls, coords)
        if len(point) < 2:
            raise DimensionError(f"ambient dimension must be >= 2, got {len(point)}")
        if point[0] != 0:
            raise ContractError(f"coordinates {point} are not normalized; use normalize()")
        return point

    @property
    def coords(self) -> tuple[int, ...]:
        """The point itself, as its coordinate tuple."""
        return self


@dataclass(frozen=True)
class Configuration:
    """An ordered tuple of n distinct torus points in ambient dimension d."""

    d: int
    points: tuple[TorusPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ContractError("a configuration needs at least one point")
        for p in self.points:
            if len(p) != self.d:
                raise DimensionError(f"point {p.coords} does not have length d={self.d}")
        if len(set(self.points)) != len(self.points):
            raise ContractError("configuration points must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.points)


def normalize(raw: Sequence[int]) -> TorusPoint:
    """Canonical representative of ``raw`` modulo the all-ones direction.

    Subtracts ``raw[0]`` from every coordinate; idempotent and invariant
    under adding a constant vector.
    """
    coords = tuple(int(c) for c in raw)
    if len(coords) < 2:
        raise DimensionError(f"ambient dimension must be >= 2, got {len(coords)}")
    base = coords[0]
    return TorusPoint(tuple(c - base for c in coords))


def configuration(d: int, raw_points: Sequence[Sequence[int]]) -> Configuration:
    """Build a configuration, normalizing every input vector."""
    return Configuration(d, tuple(normalize(p) for p in raw_points))


def tropical_combination(lambdas: Sequence[int], config: Configuration) -> TorusPoint:
    """Min-plus combination: coordinate j is min_i(lambdas[i] + v_i[j])."""
    if len(lambdas) != config.n:
        raise DimensionError(f"expected {config.n} coefficients, got {len(lambdas)}")
    return normalize(
        tuple(
            min(lam + p[j] for lam, p in zip(lambdas, config.points))
            for j in range(config.d)
        )
    )


def segment(x: TorusPoint, y: TorusPoint) -> list[TorusPoint]:
    """Breakpoints of the tropical segment from ``x`` to ``y``.

    The segment is a concatenation of at most d-1 ordinary line segments
    whose directions are zero-one vectors modulo the all-ones direction;
    the returned list holds the <= d distinct corner points in order from
    ``x`` to ``y``, computed as min(c + x, y) for c running through the
    sorted values of y - x.
    """
    if len(x) != len(y):
        raise DimensionError(f"endpoint dimensions differ: {len(x)} vs {len(y)}")
    if x == y:
        raise DegenerateSegmentError(f"segment endpoints coincide at {x.coords}")
    # With delta = y - x, min(c + x, y) - x - c = min(0, delta - c) is 0 where delta is largest and
    # min(delta) - c where it is smallest: distinct c give distinct classes, so none repeats.
    return _segment_points(x, y, sorted({b - a for a, b in zip(x.coords, y.coords)}))


def _segment_points(x: TorusPoint, y: TorusPoint, cs: Iterable[int]) -> list[TorusPoint]:
    """The points min(c + x, y) of the tropical segment from ``x`` to ``y``, one per c in ``cs``."""
    return [normalize([min(c + a, b) for a, b in zip(x.coords, y.coords)]) for c in cs]


def _minor_determinants(rows: Sequence[Sequence[int]]) -> Callable[..., tuple[int, int]]:
    """Memoised ``det(rs, cs) -> (value, optimal_count)`` of the minor on sorted index tuples.

    Expands along the last row, det(rs, cs) = min over c of rows[rs[-1]][c] + det(rs[:-1], cs - c),
    adding the counts of tied choices: each minor is computed once for all minors containing it.
    """
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, int]] = {}

    def det(rs: tuple[int, ...], cs: tuple[int, ...]) -> tuple[int, int]:
        key = rs, cs
        known = memo.get(key) if rs else (0, 1)
        if known is not None:
            return known
        head, row, best, ways = rs[:-1], rows[rs[-1]], None, 0
        for k, c in enumerate(cs):
            value, count = det(head, cs[:k] + cs[k + 1 :])
            value += row[c]
            if best is None or value < best:
                best, ways = value, count
            elif value == best:
                ways += count
        memo[key] = best, ways
        return best, ways

    return det


def tropical_determinant(matrix: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Min-plus determinant of a square matrix.

    Returns ``(value, optimal_count)`` where value is the minimum over all
    permutations of the diagonal sum and optimal_count the number of
    permutations attaining it. The matrix is tropically singular iff
    optimal_count >= 2. Expansion over column subsets: O(2^r * r^2) time
    and 2^r memo entries for an r x r matrix.
    """
    r = len(matrix)
    if r == 0:
        raise DimensionError("empty matrix has no tropical determinant")
    rows = [tuple(row) for row in matrix]
    if any(len(row) != r for row in rows):
        raise DimensionError(f"matrix is not square: {r} rows, widths {[len(q) for q in rows]}")
    return _minor_determinants(rows)(tuple(range(r)), tuple(range(r)))


def _square_minors(n: int, d: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(rows, cols) of each n x d square minor of size >= 2: largest first, then ``combinations`` order."""
    for r in range(min(n, d), 1, -1):
        for rows in combinations(range(n), r):
            yield from ((rows, cols) for cols in combinations(range(d), r))


def singular_square_minor(
    config: Configuration,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First tropically singular square minor of the coordinate matrix, if any.

    Scans all square submatrices of the n x d point matrix from maximal
    size down to 2 x 2 (1 x 1 minors are never singular) and returns the
    0-based ``(row_indices, column_indices)`` of the first singular one,
    or None when the configuration is in tropical general position.
    """
    det = _minor_determinants([p.coords for p in config.points])
    return next((m for m in _square_minors(config.n, config.d) if det(*m)[1] >= 2), None)


def is_general_position(config: Configuration) -> bool:
    """True iff no square minor of the point matrix is tropically singular, by the minor scan.

    Full genericity (every size, not only maximal minors) is what makes the induced subdivision a
    triangulation. ``classify`` reads it from the argmin types instead (``fiber.is_monomial_type``); this
    scan is the route of ``gp`` and that verdict's oracle.
    """
    return singular_square_minor(config) is None

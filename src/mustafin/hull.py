"""Tropical convex hulls: membership, lattice-point enumeration, skeleton data.

Membership uses the residuation (nearest-point) projection, which is exact
over the integers: pi(x) >= x coordinatewise, with equality everywhere iff
x lies in the hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import ContractError, DimensionError, DomainError
from .tropical import Configuration, TorusPoint, normalize


@dataclass(frozen=True)
class HullLatticeSet:
    """All lattice points of tconv(config), i.e. the lattice classes of conv."""

    config: Configuration
    points: frozenset[TorusPoint]

    def sorted_points(self) -> list[TorusPoint]:
        return sorted(self.points)

    def __contains__(self, point: TorusPoint) -> bool:
        return point in self.points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[TorusPoint]:
        return iter(self.sorted_points())


@dataclass(frozen=True)
class SkeletonSignature:
    """Per-generator skeleton codimensions of a hull point.

    codims[i] + 1 equals the multiplicity of the minimum of v_i - point,
    i.e. codims[i] is the deepest hyperplane skeleton at generator i the
    point sits on.
    """

    point: TorusPoint
    codims: tuple[int, ...]


def residuation_projection(config: Configuration, x: TorusPoint) -> tuple[int, ...]:
    """Nearest point of the hull above ``x``: min_i(lam_i + v_i) with maximal residuals."""
    if len(x) != config.d:
        raise DimensionError(f"point length {len(x)} does not match d={config.d}")
    lam = [max(x[j] - p[j] for j in range(config.d)) for p in config.points]
    return tuple(
        min(lam[i] + p[j] for i, p in enumerate(config.points))
        for j in range(config.d)
    )


def contains(config: Configuration, x: TorusPoint) -> bool:
    """True iff ``x`` lies in the tropical convex hull of the configuration."""
    return residuation_projection(config, x) == x.coords


def bounding_box(config: Configuration) -> list[tuple[int, int]]:
    """Coordinatewise [min, max] over the normalized generators."""
    return [
        (min(p[j] for p in config.points), max(p[j] for p in config.points))
        for j in range(config.d)
    ]


def lattice_points(config: Configuration) -> HullLatticeSet:
    """Enumerate every lattice point of the hull.

    Normalized hull points lie in the coordinatewise bounding box of the
    normalized generators, so a box scan with the membership test is
    exhaustive.
    """
    box = bounding_box(config)
    members = set()
    for candidate in product(*(range(lo, hi + 1) for lo, hi in box)):
        point = normalize(candidate)
        if contains(config, point):
            members.add(point)
    return HullLatticeSet(config, frozenset(members))


def _argmin_sets(config: Configuration, x: TorusPoint) -> tuple[frozenset[int], ...]:
    """Argmin set of v_i - x (1-based coordinates) per generator; ``x`` must be a hull point."""
    sets = []
    for p in config.points:
        diffs = [a - b for a, b in zip(p.coords, x.coords)]
        lo = min(diffs)
        sets.append(frozenset(j for j, value in enumerate(diffs, 1) if value == lo))
    return tuple(sets)


def skeleton_signature(config: Configuration, x: TorusPoint) -> SkeletonSignature:
    """Skeleton codimensions of a hull point (argmin multiplicities minus one)."""
    if not contains(config, x):
        raise DomainError(f"{x.coords} is not in the hull of the configuration")
    return SkeletonSignature(x, tuple(len(J) - 1 for J in _argmin_sets(config, x)))


def locate_by_multidegree(config: Configuration, m: Sequence[int]) -> set[TorusPoint]:
    """Hull lattice points whose skeleton signature dominates ``m`` coordinatewise.

    ``m`` must be a nonnegative tuple of length n summing to d-1. In
    tropical general position the result is a single point whose signature
    equals ``m`` exactly.
    """
    m = tuple(int(v) for v in m)
    if len(m) != config.n:
        raise ContractError(f"expected {config.n} entries, got {len(m)}")
    if any(v < 0 for v in m):
        raise ContractError(f"multidegree entries must be nonnegative: {m}")
    if sum(m) != config.d - 1:
        raise ContractError(f"multidegree entries must sum to d-1={config.d - 1}: {m}")
    hits = set()
    for point in lattice_points(config):
        if all(len(J) - 1 >= v for J, v in zip(_argmin_sets(config, point), m)):
            hits.add(point)
    return hits

"""Tropical convex hulls: membership, lattice-point enumeration, skeleton data.

Membership is the covering test on the argmin sets of v_i - x: x lies in the hull
iff every coordinate is in some argmin set. The sets are bitmasks, as the walk carries
them. Enumeration grows prefixes by fibres and never scans the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import index, or_, sub
from typing import Iterator, Sequence

from .errors import ContractError, DimensionError, DomainError
from .tropical import Configuration, TorusPoint


@dataclass(frozen=True)
class HullLatticeSet:
    """All lattice points of tconv(config), i.e. the lattice classes of conv, in lexicographic order."""

    config: Configuration
    ordered: tuple[TorusPoint, ...]
    # argmin_masks[k][i]: argmin set of v_i - ordered[k] as a bitmask, bit j-1 for coordinate j
    argmin_masks: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @cached_property
    def points(self) -> frozenset[TorusPoint]:
        """The points as a set, built on first read and kept by this instance."""
        return frozenset(self.ordered)

    def __contains__(self, point: TorusPoint) -> bool:
        return point in self.points

    def __len__(self) -> int:
        return len(self.ordered)

    def __iter__(self) -> Iterator[TorusPoint]:
        return iter(self.ordered)


@dataclass(frozen=True)
class SkeletonSignature:
    """Per-generator skeleton codimensions of a hull point.

    codims[i] + 1 equals the multiplicity of the minimum of v_i - point,
    i.e. codims[i] is the deepest hyperplane skeleton at generator i the
    point sits on.
    """

    point: TorusPoint
    codims: tuple[int, ...]


def _argmin_masks(config: Configuration, x: TorusPoint) -> tuple[int, ...]:
    """Argmin set of v_i - x per generator as a bitmask, bit j-1 for coordinate j."""
    xs = x.coords
    if len(xs) != config.d:
        raise DimensionError(f"point length {len(xs)} does not match d={config.d}")
    masks = []
    for g in config.points:
        diffs = list(map(sub, g.coords, xs))
        lo = min(diffs)
        masks.append(sum(1 << j for j, value in enumerate(diffs) if value == lo))
    return tuple(masks)


def contains(config: Configuration, x: TorusPoint) -> bool:
    """True iff ``x`` lies in the tropical convex hull of the configuration.

    With lam_i = max_j(x_j - g_ij), x is in the hull iff x_j = min_i(lam_i + g_ij) for every j
    (residuation). Each lam_i + g_ij >= x_j, with equality iff j is in the argmin set J_i of
    v_i - x; so x is in the hull iff the J_i cover every coordinate.
    """
    return reduce(or_, _argmin_masks(config, x)) == (1 << config.d) - 1


def _hull_point_masks(config: Configuration, x: TorusPoint) -> tuple[int, ...]:
    """``_argmin_masks`` of a hull point; DomainError if they fail the covering test of ``contains``."""
    masks = _argmin_masks(config, x)
    if reduce(or_, masks) != (1 << config.d) - 1:
        raise DomainError(f"{x.coords} is not in the hull of the configuration")
    return masks


def lattice_points(config: Configuration) -> HullLatticeSet:
    """Enumerate every lattice point of the hull, in lexicographic order, with its argmin sets.

    Cutting coordinates is min-plus linear, so length-k prefixes y of hull points form the
    hull of the cut generators. With Lam_i = max_{j<k}(y_j - g_ij), (y, t) has coefficients
    max(Lam_i, t - g_ik), and pi(y, t) >= (y, t) is equal iff t >= lo = min_i(Lam_i + g_ik)
    and each j < k keeps an i with Lam_i + g_ij = y_j and t <= Lam_i + g_ik, i.e. t <= hi =
    min_{j<k} max{Lam_i + g_ik : Lam_i + g_ij = y_j}. (y, lo) = min_i(Lam_i + g_i) is a hull
    point, so each fibre is all of [lo, hi].

    Each prefix carries the bitmasks T_i = {j < k : y_j - g_ij = Lam_i}; Lam_i is y_j - g_ij
    at any j in T_i. With u_i = Lam_i + g_ik, the child (y, t) keeps T_i if t < u_i, adds k
    if t = u_i and becomes {k} if t > u_i. hi is the u_i at which the T_i, taken by
    decreasing u_i, first cover every j < k. At length d, T_i is where x_j - g_ij is largest,
    i.e. the argmin set of v_i - x. Equal mask tuples are stored once. The generators are sorted
    by u_i once per prefix; t steps up from lo and one list of child masks changes only at the
    breakpoints, to T_i | {k} as t reaches u_i and to {k} once t passes it. Cost O(n log n) per
    prefix and O(n) per point, the copy of the list into the point's tuple.
    """
    gens = [p.coords for p in config.points]
    n = len(gens)
    level, level_masks = [(0,)], [(1,) * n]
    distinct: dict[tuple[int, ...], tuple[int, ...]] = {}
    for k in range(1, config.d):
        bit, full = 1 << k, (1 << k) - 1
        parents, parent_masks = level, level_masks
        level, level_masks = [], []
        for y, masks in zip(parents, parent_masks):
            tops = [mask.bit_length() - 1 for mask in masks]
            ups = [y[j] - g[j] + g[k] for j, g in zip(tops, gens)]
            order = sorted(range(n), key=ups.__getitem__)
            covered = 0
            for i in reversed(order):
                covered |= masks[i]
                if covered == full:
                    hi = ups[i]
                    break
            cur, reached, passed = list(masks), 0, 0
            for t in range(ups[order[0]], hi + 1):
                while reached < n and ups[order[reached]] == t:
                    cur[order[reached]] = masks[order[reached]] | bit
                    reached += 1
                while ups[order[passed]] < t:
                    cur[order[passed]] = bit
                    passed += 1
                child = tuple(cur)
                level.append(y + (t,))
                level_masks.append(distinct.setdefault(child, child))
    return HullLatticeSet(config, tuple(map(TorusPoint, level)), tuple(level_masks))


def skeleton_signature(config: Configuration, x: TorusPoint) -> SkeletonSignature:
    """Skeleton codimensions of a hull point (argmin multiplicities minus one)."""
    return SkeletonSignature(x, tuple(mask.bit_count() - 1 for mask in _hull_point_masks(config, x)))


def locate_by_multidegree(config: Configuration, m: Sequence[int]) -> set[TorusPoint]:
    """Hull lattice points whose skeleton signature dominates ``m`` coordinatewise.

    ``m`` must be a nonnegative tuple of length n summing to d-1. In
    tropical general position the result is a single point whose signature
    equals ``m`` exactly.
    """
    m = tuple(map(index, m))
    if len(m) != config.n:
        raise ContractError(f"expected {config.n} entries, got {len(m)}")
    if any(v < 0 for v in m):
        raise ContractError(f"multidegree entries must be nonnegative: {m}")
    if sum(m) != config.d - 1:
        raise ContractError(f"multidegree entries must sum to d-1={config.d - 1}: {m}")
    hull = lattice_points(config)
    signatures = zip(hull, hull.argmin_masks)
    return {x for x, masks in signatures if all(mask.bit_count() > v for mask, v in zip(masks, m))}

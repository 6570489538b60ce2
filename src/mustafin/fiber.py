"""Special fibers of one-apartment Mustafin degenerations.

Every hull lattice point v carries a reduced diagonal map toward each
generator: factor i survives exactly on the argmin set J_i of v_i - v, and
its kernel is the complementary coordinate subspace. A hull point
contributes an irreducible component iff the image of its joint rational
map has full dimension d-1, which the multidegree engine decides exactly.

The hull walk ``hull.lattice_points`` carries the argmin sets of every point it enumerates as bitmasks, and
``hull._argmin_masks`` computes them in the same format for single points; one routine turns masks into argmin
sets and kernels for both. Per-type fields are computed once per argmin type, M(p) in closed form when the
type graph is a forest and the d_I table only when read; primacy is read from the argmin sets. The oracles,
the acceptance suite and the benchmark keep independent copies on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple, Sequence

from .errors import ContractError, InvariantViolationError
from .hull import _hull_point_masks, lattice_points
from .multidegree import (
    ArgminType,
    CoordinateSubspace,
    DIndexTable,
    MultidegreeSet,
    _tuples_with_sum,
    dimension_p,
    intersection_dims,
)
from .tropical import Configuration, TorusPoint, is_general_position, normalize


@dataclass(frozen=True)
class ReductionProfile:
    """Per-factor reduction data of the diagonal maps at one hull vertex."""

    vertex: TorusPoint
    argmins: tuple[frozenset[int], ...]
    kernels: tuple[CoordinateSubspace, ...]

    def diagonals(self) -> tuple[tuple[int, ...], ...]:
        """0/1 diagonal of each factor map: 1 exactly on the argmin set."""
        d = len(self.vertex)
        return tuple(
            tuple(1 if j + 1 in J else 0 for j in range(d)) for J in self.argmins
        )


@dataclass(frozen=True)
class ComponentDescriptor:
    """Invariants of the variety contributed by one hull lattice point.

    ``factor_dims[i]`` is the dimension of the image in factor i
    (|J_i| - 1); ``p`` is the dimension of the joint image;
    ``is_component`` flags p = d-1; ``is_primary`` flags vertices of the
    original configuration, whose component maps birationally onto its
    factor. All points of one argmin type share ``argmin_type``.
    """

    vertex: TorusPoint
    profile: ReductionProfile
    p: int
    multidegrees: MultidegreeSet
    is_component: bool
    is_primary: bool
    factor_dims: tuple[int, ...]
    argmin_type: ArgminType = field(repr=False, compare=False)

    @property
    def table(self) -> DIndexTable:
        """The d_I table, built on first read and shared by every point of the argmin type."""
        return self.argmin_type.table


class ComponentCounts(NamedTuple):
    total: int
    primary: int
    secondary: int


def reduction_profile(config: Configuration, v: TorusPoint) -> ReductionProfile:
    """Argmin sets and kernels of the reduced diagonal maps at hull point ``v``."""
    return _profiles(config, [v], [_hull_point_masks(config, v)])[0]


def _profiles(config: Configuration, points: Sequence[TorusPoint], types: Sequence[tuple[int, ...]]) -> list:
    """Profiles of points with the given argmin types (tuples of argmin masks); each distinct mask and
    type is converted once, so points of one type share their argmins and kernels."""
    full = frozenset(range(1, config.d + 1))
    sets = {}
    for mask in {mask for masks in types for mask in masks}:
        J = frozenset(j for j in full if mask >> (j - 1) & 1)
        sets[mask] = J, CoordinateSubspace(config.d, full - J)
    parts = {masks: tuple(zip(*map(sets.get, masks))) for masks in set(types)}
    return [ReductionProfile(v, *parts[masks]) for v, masks in zip(points, types)]


def describe_vertex(config: Configuration, v: TorusPoint) -> ComponentDescriptor:
    """Full descriptor (profile, dimension, multidegrees) of one hull point."""
    return _describe(config, [v], [_hull_point_masks(config, v)])[0]


def _describe(config: Configuration, points: Sequence[TorusPoint], types: Sequence[tuple[int, ...]]) -> list:
    """One descriptor per point of the given argmin type; each type's ``ArgminType``, flags and factor dimensions
    are made once. Primacy: x = v_i iff v_i - x is constant, iff J_i = [d], iff d - 1 is a factor dimension."""
    profiles = _profiles(config, points, types)
    records = {}
    for masks, profile in zip(types, profiles):
        if masks not in records:
            kind = ArgminType(masks, profile.kernels)
            mset, dims = kind.multidegrees, tuple(len(J) - 1 for J in profile.argmins)
            records[masks] = mset.p, mset, mset.p == config.d - 1, config.d - 1 in dims, dims, kind
    return [ComponentDescriptor(profile.vertex, profile, *records[masks]) for masks, profile in zip(types, profiles)]


def classify(config: Configuration) -> list[ComponentDescriptor]:
    """One descriptor per hull lattice point, in lexicographic vertex order.

    Descriptors with ``is_component`` set are exactly the irreducible
    components of the special fiber. The enumerated points are not tested
    for membership again; their argmin sets come with the enumeration, and
    each distinct set becomes a frozenset and a kernel once.
    """
    hull = lattice_points(config)
    return _describe(config, hull.ordered, hull.argmin_masks)


def multidegree_partition(
    config: Configuration, descriptors: Sequence[ComponentDescriptor] | None = None
) -> dict[tuple[int, ...], TorusPoint]:
    """Assign every tuple with sum d-1 to the unique component claiming it.

    Raises InvariantViolationError if some tuple is claimed by zero or by
    several components; that would indicate a bug, not bad input.
    """
    if descriptors is None:
        descriptors = classify(config)
    claims: dict[tuple[int, ...], TorusPoint] = {}
    for desc in descriptors:
        if not desc.is_component:
            continue
        for m in desc.multidegrees.tuples:
            if m in claims:
                raise InvariantViolationError(
                    f"multidegree {m} claimed by both {claims[m].coords} and {desc.vertex.coords}"
                )
            claims[m] = desc.vertex
    expected = set(_tuples_with_sum([config.d - 1] * config.n, config.d - 1))
    # Components have p = d - 1, and M(p) holds nonnegative tuples of sum p: no claim lies outside expected.
    missing = expected - set(claims)
    if missing:
        raise InvariantViolationError(f"multidegree partition is not total: missing {sorted(missing)}")
    return claims


def component_counts(
    config: Configuration,
    descriptors: Sequence[ComponentDescriptor] | None = None,
) -> ComponentCounts:
    """Total, primary and secondary component counts of the special fiber."""
    if descriptors is None:
        descriptors = classify(config)
    total = sum(1 for desc in descriptors if desc.is_component)
    primary = sum(1 for desc in descriptors if desc.is_component and desc.is_primary)
    return ComponentCounts(total, primary, total - primary)


def is_monomial_type(config: Configuration, counts: ComponentCounts | None = None) -> bool:
    """True iff the fiber is cut out by monomials.

    Equivalent both to tropical general position and to the secondary
    count reaching binom(n+d-2, d-1) - n; both are computed and
    cross-asserted. ``counts`` are the fiber's component counts, computed
    from a classification when not given.
    """
    gp = is_general_position(config)
    if counts is None:
        counts = component_counts(config)
    saturated = counts.secondary == comb(config.n + config.d - 2, config.d - 1) - config.n
    if gp != saturated:
        raise InvariantViolationError(
            f"general position ({gp}) disagrees with the secondary-count law ({saturated})"
        )
    return gp


def realize_component(kernels: Sequence[CoordinateSubspace]) -> tuple[Configuration, TorusPoint]:
    """Configuration whose fiber has a component with the prescribed kernels.

    Generator i is the indicator vector of kernel i's member set; the
    component sits at the origin. Requires the kernels to intersect
    trivially, to be pairwise distinct (distinct generators), and to admit
    a degree-(d-1) multidegree tuple: trivial intersection alone does not
    force a full-dimensional image (e.g. complementary 2-dimensional
    kernels in d=4 give a 2-dimensional product of lines), and then no
    configuration can realize them as a component.
    """
    if not kernels:
        raise ContractError("need at least one kernel")
    d = kernels[0].d
    if any(w.d != d for w in kernels):
        raise ContractError("kernels have mismatched ambient dimensions")
    common = frozenset(range(1, d + 1))
    for w in kernels:
        common &= w.members
    if common:
        raise ContractError(f"kernels share the directions {sorted(common)}; intersection must be trivial")
    if dimension_p(d, intersection_dims(tuple(kernels))) != d - 1:
        raise ContractError("kernels cannot support a component of full dimension d-1")
    points = tuple(
        normalize(tuple(1 if j + 1 in w.members else 0 for j in range(d))) for w in kernels
    )
    config = Configuration(d, points)
    origin = normalize((0,) * d)
    return config, origin

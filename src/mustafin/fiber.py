"""Special fibers of one-apartment Mustafin degenerations.

Every hull lattice point v carries a reduced diagonal map toward each
generator: factor i survives exactly on the argmin set J_i of v_i - v, and
its kernel is the complementary coordinate subspace. A hull point
contributes an irreducible component iff the image of its joint rational
map has full dimension d-1, which the multidegree engine decides exactly.

The hull walk ``hull.lattice_points`` carries the argmin sets of every point it enumerates as bitmasks, and
``hull._argmin_masks`` computes them in the same format for single points; one routine turns masks into one
reduction profile per argmin type for both. A profile holds the masks and their sets; its kernels and its d_I
table are built only when read. Per-type fields are computed once per argmin type: one pass over the masks
(``type_multidegrees``) gives p, the forest verdict and, on a forest, M(p) in closed form; only a type with a
cycle reads the table. Primacy and general position are read from the argmin types. The oracles, the
acceptance suite and the benchmark keep independent copies on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import NamedTuple, Sequence

from .errors import ContractError, InvariantViolationError
from .hull import _hull_point_masks, lattice_points
from .multidegree import (CoordinateSubspace, DIndexTable, MultidegreeSet, _kernel_table, _tuples_with_sum,
                          admissible_tuples, dimension_p, intersection_dims)
from .tropical import Configuration, TorusPoint, normalize


@dataclass(frozen=True)
class ReductionProfile:
    """Per-factor reduction data of the diagonal maps at the hull points of one argmin type: ``argmins[i]`` is
    J_i, ``masks[i]`` the same set as a bitmask (bit j - 1 for coordinate j); kernel i is spanned by the e_j off J_i."""

    d: int
    masks: tuple[int, ...]
    argmins: tuple[frozenset[int], ...]

    def diagonals(self) -> tuple[tuple[int, ...], ...]:
        """0/1 diagonal of each factor map: 1 exactly on the argmin set."""
        return tuple(tuple(mask >> j & 1 for j in range(self.d)) for mask in self.masks)

    @cached_property
    def kernels(self) -> tuple[CoordinateSubspace, ...]:
        """The kernels, built on first read and kept by this profile."""
        return tuple(CoordinateSubspace(self.d, frozenset(range(1, self.d + 1)) - J) for J in self.argmins)

    @cached_property
    def table(self) -> DIndexTable:
        """The d_I table of the kernels, built from their bitmasks on first read and kept by this profile."""
        return _kernel_table(self.d, [(1 << self.d) - 1 ^ mask for mask in self.masks])


@dataclass(frozen=True)
class ComponentDescriptor:
    """Invariants of the variety contributed by one hull lattice point.

    ``factor_dims[i]`` is the dimension of the image in factor i
    (|J_i| - 1); ``p`` is the dimension of the joint image;
    ``is_component`` flags p = d-1; ``is_primary`` flags vertices of the
    original configuration, whose component maps birationally onto its
    factor. All points of one argmin type share ``profile``.
    """

    vertex: TorusPoint
    profile: ReductionProfile
    p: int
    multidegrees: MultidegreeSet
    is_component: bool
    is_primary: bool
    factor_dims: tuple[int, ...]

    @property
    def table(self) -> DIndexTable:
        """The d_I table, built on first read and shared by every point of the argmin type."""
        return self.profile.table


class ComponentCounts(NamedTuple):
    total: int
    primary: int
    secondary: int


def reduction_profile(config: Configuration, v: TorusPoint) -> ReductionProfile:
    """Argmin sets and kernels of the reduced diagonal maps at hull point ``v``."""
    masks = _hull_point_masks(config, v)
    return _profiles(config.d, [masks])[masks]


def _profiles(d: int, types: Sequence[tuple[int, ...]]) -> dict:
    """One profile per distinct argmin type (a tuple of argmin masks); each distinct mask becomes a frozenset once."""
    bits, distinct = [(1 << (j - 1), j) for j in range(1, d + 1)], {mask for masks in types for mask in masks}
    sets = {mask: frozenset([j for bit, j in bits if mask & bit]) for mask in distinct}
    return {masks: ReductionProfile(d, masks, tuple(map(sets.get, masks))) for masks in set(types)}


def type_multidegrees(profile: ReductionProfile) -> MultidegreeSet:
    """M(p) of an argmin type from one merge pass over its masks, reading the d_I table only on a cycle.

    The type graph joins factor i to the coordinates of J_i. The pass merges each J_i with the components (unions
    of overlap clusters) it meets; factor i closes a cycle iff J_i meets one in two or more coordinates. With k
    components and U = union J_i, p = |U| - k (``dimension_p``), i.e. d - k at a hull type. On a forest, with
    t_i = |J_i| - 1, the singleton constraints give m_i <= t_i in every M(h); the cyclomatic number sum |J_i| -
    n - |U| + k = sum t_i - p is 0, M(p) is nonempty by ``dimension_p``'s spanning-tree argument, and the only
    tuple under the caps t with sum t_i is t. With a cycle, M(p) is the subset scan on the table.
    """
    masks, components, forest = profile.masks, [], True
    for J in masks:
        merged = J
        for C in components:
            if meet := C & J:
                forest = forest and meet & (meet - 1) == 0
                merged |= C
        components = [C for C in components if not C & J] + [merged]
    p = sum(map(int.bit_count, components)) - len(components)
    if forest:
        return MultidegreeSet(p, frozenset([tuple([J.bit_count() - 1 for J in masks])]))
    return MultidegreeSet(p, frozenset(admissible_tuples(profile.d, profile.table, p)))


def describe_vertex(config: Configuration, v: TorusPoint) -> ComponentDescriptor:
    """Full descriptor (profile, dimension, multidegrees) of one hull point."""
    return _describe(config.d, [v], [_hull_point_masks(config, v)])[0]


def _describe(d: int, points: Sequence[TorusPoint], types: Sequence[tuple[int, ...]]) -> list:
    """One descriptor per point of the given argmin type; each type's profile, M(p), flags and factor dimensions
    are made once, p and M(p) by one pass over its masks (``type_multidegrees``), and no kernel is built.
    Primacy: x = v_i iff v_i - x is constant, iff J_i = [d], iff d - 1 is a factor dimension."""
    records = {}
    for masks, profile in _profiles(d, types).items():
        mset = type_multidegrees(profile)
        dims = tuple([mask.bit_count() - 1 for mask in masks])
        records[masks] = profile, mset.p, mset, mset.p == d - 1, d - 1 in dims, dims
    return [ComponentDescriptor(v, *records[masks]) for v, masks in zip(points, types)]


def classify(config: Configuration) -> list[ComponentDescriptor]:
    """One descriptor per hull lattice point, in lexicographic vertex order.

    Descriptors with ``is_component`` set are exactly the irreducible
    components of the special fiber. The enumerated points are not tested
    for membership again; their argmin sets come with the enumeration, and
    each distinct set becomes a frozenset once.
    """
    hull = lattice_points(config)
    return _describe(config.d, hull.ordered, hull.argmin_masks)


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


def is_monomial_type(config: Configuration, descriptors: Sequence[ComponentDescriptor] | None = None,
                     counts: ComponentCounts | None = None) -> bool:
    """True iff the fiber is cut out by monomials: tropical general position, read from the argmin types and
    cross-asserted with the secondary count reaching binom(n+d-2, d-1) - n. ``descriptors`` and ``counts`` are the
    fiber's classification and component counts, computed when not given.

    General position holds iff every type graph (factor i joined to the coordinates of J_i) is a forest, iff every
    descriptor has p = sum(factor_dims): the difference is the cyclomatic number (``type_multidegrees``). Proof,
    with g_i = v_i and c_i = min_j(g_ij - x_j) at a hull point x, so that j is in J_i iff g_ij - x_j = c_i:
    - A cycle i_1 j_1 ... i_r j_r at x makes the minor on its rows and columns singular: every permutation s has
      sum g_is(i) >= sum c_i + sum x_j, with equality iff each s(i) is in J_i, as for i_k -> j_k and i_k -> j_(k-1).
    - A singular minor on rows R and columns C has optimal permutations s != t and an integral optimal dual
      a_i + b_j <= g_ij of the assignment LP, tight on both. At x_j = b_j on C and x_j = -M off C, M large, s(i)
      and t(i) lie in J_i for i in R, and s and t differ on a cycle. The projection y = min_i(l_i + g_i),
      l_i = max_j(x_j - g_ij), is an integral hull point with y_j = x_j on J_i(x) and y_j - g_ij <= l_i, so
      J_i(y) contains J_i(x) and the cycle.
    Equivalently, the regular subdivision of the product of simplices is a triangulation (Develin-Sturmfels,
    Tropical convexity, Doc. Math. 2004; Develin-Santos-Sturmfels, On the rank of a tropical matrix, MSRI Publ.
    52, 2005).
    """
    if descriptors is None:
        descriptors = classify(config)
    if counts is None:
        counts = component_counts(config, descriptors)
    gp = all(desc.p == sum(desc.factor_dims) for desc in descriptors)
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
    common = frozenset.intersection(*(w.members for w in kernels))
    if common:
        raise ContractError(f"kernels share the directions {sorted(common)}; intersection must be trivial")
    if dimension_p(d, intersection_dims(tuple(kernels))) != d - 1:
        raise ContractError("kernels cannot support a component of full dimension d-1")
    points = tuple(normalize(tuple(int(j + 1 in w.members) for j in range(d))) for w in kernels)
    return Configuration(d, points), normalize((0,) * d)

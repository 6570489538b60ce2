"""Dimension and multidegree combinatorics for images of rational maps.

Given coordinate subspaces W_1, ..., W_n of k^d with the map
P(k^d) --> P(k^d/W_1) x ... x P(k^d/W_n), the image's dimension p, its
multidegree tuples and its multigraded Hilbert function are determined by
the table d_I = dim of the intersection of the W_i over I. The dimension
is the count p = d - d_[n] - (number of overlap clusters of the factors),
and the Hilbert function is a sum over the down-closure of M(p). When the
type graph of the factors is a forest, M(p) is one tuple read off the
argmin sets with no table. Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Sequence

from .errors import ContractError, UndefinedMapError


@dataclass(frozen=True)
class CoordinateSubspace:
    """Span of a subset of the standard basis vectors e_j, j in 1..d."""

    d: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ContractError(f"ambient dimension must be positive, got {self.d}")
        if not all(1 <= j <= self.d for j in self.members):
            raise ContractError(f"members {sorted(self.members)} not within 1..{self.d}")

    @property
    def dim(self) -> int:
        return len(self.members)

    def bitmask(self) -> int:
        mask = 0
        for j in self.members:
            mask |= 1 << (j - 1)
        return mask


def subspace(d: int, members: Iterable[int] = ()) -> CoordinateSubspace:
    return CoordinateSubspace(d, frozenset(members))


@dataclass(frozen=True)
class DIndexTable:
    """Intersection dimensions d_I for every nonempty subset I of factors.

    Entry ``by_mask[mask]`` is the dimension of the intersection of the
    kernels selected by the bits of ``mask`` (bit i-1 for factor i);
    ``by_mask[0]`` is the ambient dimension d.
    """

    d: int
    n: int
    by_mask: tuple[int, ...]

    def of(self, factors: Iterable[int]) -> int:
        """d_I for the 1-based factor index set I."""
        mask = 0
        for i in factors:
            if not 1 <= i <= self.n:
                raise ContractError(f"factor index {i} not within 1..{self.n}")
            mask |= 1 << (i - 1)
        return self.by_mask[mask]


@dataclass(frozen=True)
class MultidegreeSet:
    """Admissible exponent tuples of common total degree p."""

    p: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        for t in self.tuples:
            if sum(t) != self.p or any(v < 0 for v in t):
                raise ContractError(f"tuple {t} is not a nonnegative vector of total {self.p}")

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)

    @cached_property
    def _down_closure(self) -> list[list[list[tuple[int, int, int]]]]:
        """The tuples below some member as a layered DAG, built on first use and kept by this instance.

        A node of layer i stands for a set S of suffixes of length n - i. Its entry (lo, hi, c) says
        that the suffixes below S whose first entry k has lo < k <= hi go on as those below node c
        of layer i + 1, the set of t[1:] over the t in S with t[0] >= hi. Equal sets share one node.
        """
        if not self.tuples:
            raise ContractError("Hilbert function of an empty multidegree set is undefined")
        layers, sets = [], [self.tuples]
        for _ in range(len(next(iter(self.tuples)))):
            index: dict[frozenset[tuple[int, ...]], int] = {}
            layers.append([])
            for S in sets:
                tops = sorted({t[0] for t in S})
                layers[-1].append([
                    (lo, hi, index.setdefault(frozenset([t[1:] for t in S if t[0] >= hi]), len(index)))
                    for lo, hi in zip([-1, *tops], tops)
                ])
            sets = list(index)
        return layers


def intersection_dims(kernels: Sequence[CoordinateSubspace]) -> DIndexTable:
    """Tabulate d_I = |intersection of member sets over I| for all nonempty I."""
    if not kernels:
        raise ContractError("need at least one subspace")
    d = kernels[0].d
    if any(w.d != d for w in kernels):
        raise ContractError("subspaces have mismatched ambient dimensions")
    n = len(kernels)
    bits = [w.bitmask() for w in kernels]
    # inter[mask] = intersection of the member sets over the bits of mask, built by peeling the low bit
    inter = [(1 << d) - 1] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        inter[mask] = inter[mask & (mask - 1)] & bits[low]
    return DIndexTable(d, n, tuple(members.bit_count() for members in inter))


def _tuples_with_sum(caps: Sequence[int], total: int) -> Iterable[tuple[int, ...]]:
    """All nonnegative tuples below the given caps with the given sum."""
    n = len(caps)

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == n - 1:
            if 0 <= remaining <= caps[i]:
                yield prefix + (remaining,)
            return
        for v in range(min(caps[i], remaining) + 1):
            yield from rec(i + 1, remaining - v, prefix + (v,))

    if n:
        yield from rec(0, total, ())


def admissible_tuples(d: int, table: DIndexTable, h: int) -> set[tuple[int, ...]]:
    """The set M(h): tuples m >= 0 with sum h and d - sum_{i in I} m_i > d_I for all I."""
    if h < 0:
        raise ContractError(f"total degree must be nonnegative, got {h}")
    n = table.n
    caps = [d - 1 - table.by_mask[1 << i] for i in range(n)]
    found = set()
    for m in _tuples_with_sum(caps, h):
        # sums[mask] = sum of m_i over the bits of mask, built by peeling the low bit
        sums = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            sums[mask] = sums[mask & (mask - 1)] + m[low]
            if d - sums[mask] <= table.by_mask[mask]:
                break
        else:
            found.add(m)
    return found


def dimension_p(d: int, table: DIndexTable) -> int:
    """Largest h with M(h) nonempty; the dimension of the image variety.

    Let J_i be the complement of kernel i, so m lies in M(h) iff
    sum_{i in I} m_i <= |union_I J| - 1 for every I. Factors i and j
    overlap iff |J_i & J_j| = d - d_i - d_j + d_ij > 0; with k clusters
    under overlap, p = |union J| - k = d - d_[n] - k.
    Upper bound: sum the inequality over each cluster C.
    Attained: take a spanning tree of each cluster's union whose edges each
    lie inside some J_i, and let m_i count the edges labelled i; for every
    I the edges labelled in I form a forest on union_I J.
    """
    n = table.n
    single = [table.by_mask[1 << i] for i in range(n)]
    if d in single:
        raise UndefinedMapError("M(0) is empty: some kernel is the full ambient space")
    cluster = list(range(n))
    for j in range(n):
        for i in range(j):
            if d - single[i] - single[j] + table.by_mask[1 << i | 1 << j] > 0:
                old, new = cluster[i], cluster[j]
                cluster = [new if c == old else c for c in cluster]
    return d - table.by_mask[-1] - len(set(cluster))


def multidegree_set(d: int, table: DIndexTable) -> MultidegreeSet:
    """M(p) at the maximal nonempty level p."""
    p = dimension_p(d, table)
    return MultidegreeSet(p, frozenset(admissible_tuples(d, table, p)))


def forest_multidegrees(masks: Sequence[int]) -> MultidegreeSet | None:
    """M(p) = {t}, t_i = |J_i| - 1, if the type graph of the argmin sets is a forest; None if it has a cycle.

    ``masks[i - 1]`` holds the nonempty J_i (bit j - 1 for coordinate j); the type graph joins factor i to
    the coordinates of J_i, and factor i closes a cycle iff J_i meets a component of factors 1..i-1 in two
    or more coordinates. Proof on a forest: the singleton constraints give m_i <= t_i in every M(h). The
    overlap clusters are the type graph's k components on [n] and U = union J_i, so its cyclomatic number
    sum |J_i| - n - |U| + k is sum t_i - p (``dimension_p``), 0 exactly on a forest. M(p) is nonempty by
    ``dimension_p``'s spanning-tree argument, and the only tuple under the caps t with sum t_i is t.
    """
    components: list[int] = []
    for J in masks:
        merged, apart = J, []
        for C in components:
            meet = C & J
            if not meet:
                apart.append(C)
            elif meet & (meet - 1) == 0:
                merged |= C
            else:
                return None
        components = [*apart, merged]
    caps = tuple(J.bit_count() - 1 for J in masks)
    return MultidegreeSet(sum(caps), frozenset([caps]))


def hilbert_function(mset: MultidegreeSet, u: Sequence[int]) -> int:
    """Multigraded Hilbert function at u.

    Sum over the down-closure of the multidegree tuples of
    prod_i c(u_i, k_i), with c(u, 0) = 1 and c(u, k) = binom(u + k - 1, k).
    Summing c over a box k <= l gives binom(u + l, l), so this is the
    inclusion-exclusion over the boxes below the tuples. It is summed over the layers
    of ``_down_closure``: an entry's range lo < k <= hi gives
    binom(u + hi, hi) - binom(u + lo, lo), the second term 0 at lo = -1.
    Exact big-integer arithmetic.
    """
    layers = mset._down_closure
    u = tuple(map(int, u))
    if len(u) != len(layers):
        raise ContractError(f"expected {len(layers)} grading variables, got {len(u)}")
    if min(u, default=0) < 0:
        raise ContractError(f"grading variables must be nonnegative: {u}")
    values = [1]
    for v, layer in zip(reversed(u), reversed(layers)):
        below, values = values, []
        for node in layer:
            total = 0
            for lo, hi, c in node:
                total += (comb(v + hi, hi) - (comb(v + lo, lo) if lo >= 0 else 0)) * below[c]
            values.append(total)
    return values[0]

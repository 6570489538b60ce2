"""Dimension and multidegree combinatorics for images of rational maps.

Given coordinate subspaces W_1, ..., W_n of k^d with the map
P(k^d) --> P(k^d/W_1) x ... x P(k^d/W_n), the image's dimension p, its
multidegree tuples and its multigraded Hilbert function are determined by
the table d_I = dim of the intersection of the W_i over I. The dimension
is the count p = d - d_[n] - (number of overlap clusters of the factors),
and the Hilbert function is a sum over the down-closure of M(p).
Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import comb
from operator import index, le
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
        n = len(next(iter(self.tuples), ()))
        for t in self.tuples:
            if sum(t) != self.p or min(t, default=0) < 0 or len(t) != n:
                raise ContractError(f"tuple {t} is not a nonnegative {n}-vector of total {self.p}")

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
    return _kernel_table(d, [sum(1 << (j - 1) for j in w.members) for w in kernels])


def _kernel_table(d: int, bits: Sequence[int]) -> DIndexTable:
    """The d_I table of the kernels with member bitmasks ``bits`` (bit j - 1 for e_j). inter[mask] is the
    intersection of the member sets over the bits of mask; each factor doubles the list."""
    inter = [(1 << d) - 1]
    for members in bits:
        inter += [common & members for common in inter]
    return DIndexTable(d, len(bits), tuple(map(int.bit_count, inter)))


def _tuples_with_sum(caps: Sequence[int], total: int) -> list[tuple[int, ...]]:
    """All nonnegative tuples below the given caps with the given sum, in lexicographic order, built one entry
    at a time. An entry leaves at most what the later caps can take, and the last entry is what remains."""
    *head, last = caps
    level = [((), total)]
    for cap, later in zip(head, list(accumulate(reversed(caps[1:])))[::-1]):
        level = [(t + (v,), rem - v) for t, rem in level for v in range(max(0, rem - later), min(cap, rem) + 1)]
    return [t + (rem,) for t, rem in level if rem <= last]


def admissible_tuples(d: int, table: DIndexTable, h: int) -> set[tuple[int, ...]]:
    """The set M(h): tuples m >= 0 with sum h and d - sum_{i in I} m_i > d_I for all I.

    The limit of I is d - 1 - d_I, that of the empty set 0; the singleton limits are the candidates' caps. A
    candidate's sums over all subsets are built by doubling: entry m_i adds bit i to every mask so far, and a
    zero entry repeats the list. So sums[mask] lines up with limits[mask]; no sum may exceed its limit.
    """
    if h < 0:
        raise ContractError(f"total degree must be nonnegative, got {h}")
    limits = [0] + [d - 1 - v for v in table.by_mask[1:]]
    found = set()
    for m in _tuples_with_sum([limits[1 << i] for i in range(table.n)], h):
        sums = [0]
        for v in m:
            sums += [s + v for s in sums] if v else sums
        if all(map(le, sums, limits)):
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


def hilbert_function(mset: MultidegreeSet, u: Sequence[int]) -> int:
    """Multigraded Hilbert function at u.

    Sum over the down-closure of the multidegree tuples of
    prod_i c(u_i, k_i), with c(u, 0) = 1 and c(u, k) = binom(u + k - 1, k).
    Summing c over a box k <= l gives binom(u + l, l), so this is the
    inclusion-exclusion over the boxes below the tuples. It is summed over the layers
    of ``_down_closure``: an entry's range lo < k <= hi gives
    binom(u + hi, hi) - binom(u + lo, lo), the second term 0 at lo = -1.
    Exact big-integer arithmetic; u's entries go through ``operator.index``, so a float raises.
    """
    layers = mset._down_closure
    u = tuple(map(index, u))
    if len(u) != len(layers) or min(u, default=0) < 0:
        raise ContractError(f"expected {len(layers)} nonnegative grading variables, got {u}")
    values = [1]
    for v, layer in zip(reversed(u), reversed(layers)):
        below, values = values, []
        for node in layer:
            total = 0
            for lo, hi, c in node:
                total += (comb(v + hi, hi) - (comb(v + lo, lo) if lo >= 0 else 0)) * below[c]
            values.append(total)
    return values[0]

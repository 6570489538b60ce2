"""Dictionary between diagonal lattice classes and torus points.

A lattice of diagonal form pi^{m_1} R e_1 + ... + pi^{m_d} R e_d is
identified, up to homothety, with the torus point (-m_1, ..., -m_d).
Adjacency in the building and convexity of configurations are expressed
through this dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Sequence

from .errors import ContractError, DimensionError
from .hull import lattice_points
from .tropical import Configuration, TorusPoint, normalize


@dataclass(frozen=True)
class DiagonalLatticeClass:
    """Homothety class of a diagonal lattice, stored with minimal exponent 0."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exponents) < 2:
            raise DimensionError(f"ambient dimension must be >= 2, got {len(self.exponents)}")
        if min(self.exponents) != 0:
            raise ContractError(f"exponents {self.exponents} are not reduced; use from_exponents()")

    @classmethod
    def from_exponents(cls, exponents: Sequence[int]) -> "DiagonalLatticeClass":
        exps = tuple(map(index, exponents))
        if not exps:
            raise DimensionError("empty exponent vector")
        base = min(exps)
        return cls(tuple(e - base for e in exps))


def class_to_point(c: DiagonalLatticeClass) -> TorusPoint:
    """Torus point of a diagonal class: normalize(-m)."""
    return normalize(tuple(-e for e in c.exponents))


def point_to_class(p: TorusPoint) -> DiagonalLatticeClass:
    """Inverse dictionary direction: exponents -p, shifted to minimum 0."""
    return DiagonalLatticeClass.from_exponents(tuple(-c for c in p))


def intersection_class(
    a: int, c1: DiagonalLatticeClass, b: int, c2: DiagonalLatticeClass
) -> DiagonalLatticeClass:
    """Class of pi^a L1 intersected with pi^b L2: exponentwise max(m1+a, m2+b)."""
    if len(c1.exponents) != len(c2.exponents):
        raise DimensionError("lattice classes live in different ambient dimensions")
    return DiagonalLatticeClass.from_exponents(
        tuple(max(e1 + a, e2 + b) for e1, e2 in zip(c1.exponents, c2.exponents))
    )


def is_adjacent(u: TorusPoint, v: TorusPoint) -> bool:
    """True iff the classes admit representatives with pi*M' < L' < M'.

    Equivalent to the difference v - u having spread exactly one, i.e.
    some representative of v - u modulo the all-ones vector is a
    zero-one vector that is neither all zeros nor all ones.
    """
    if len(u) != len(v):
        raise DimensionError(f"point dimensions differ: {len(u)} vs {len(v)}")
    if u == v:
        raise ContractError("adjacency is only defined for distinct classes")
    diff = [b - a for a, b in zip(u.coords, v.coords)]
    return max(diff) - min(diff) == 1


def is_convex_configuration(config: Configuration) -> bool:
    """True iff the configuration already contains all its hull lattice points."""
    return set(config.points) == set(lattice_points(config).points)


def local_model_chain(d: int) -> Configuration:
    """The standard chain L_0, ..., L_{d-1} with L_i = pi R e_1 + ... + pi R e_i + R e_{i+1} + ...

    Point i is the class with exponent vector (1, ..., 1, 0, ..., 0)
    carrying i ones; consecutive points (and the wrap-around pair) are
    adjacent, and the configuration is convex.
    """
    if d < 2:
        raise ContractError(f"local model chain needs d >= 2, got {d}")
    points = []
    for i in range(d):
        exps = tuple(1 if j < i else 0 for j in range(d))
        points.append(class_to_point(DiagonalLatticeClass.from_exponents(exps)))
    return Configuration(d, tuple(points))

"""Seeded generators for randomized suites."""

from __future__ import annotations

from random import Random

from .errors import ContractError
from .tropical import Configuration, TorusPoint, is_general_position, normalize

MAX_TRIES = 10_000


def random_point(rng: Random, d: int, lo: int, hi: int) -> TorusPoint:
    """Normalized point with free coordinates drawn uniformly from [lo, hi]."""
    return normalize((0,) + tuple(rng.randint(lo, hi) for _ in range(d - 1)))


def random_configuration(rng: Random, d: int, n: int, lo: int, hi: int) -> Configuration:
    if n > max(hi - lo + 1, 0) ** (d - 1):
        raise ContractError(f"[{lo}, {hi}]^{d - 1} holds fewer than {n} distinct normalized points")
    points: list[TorusPoint] = []
    while len(points) < n:
        p = random_point(rng, d, lo, hi)
        if p not in points:
            points.append(p)
    return Configuration(d, tuple(points))


def random_general_position_configuration(rng: Random, d: int, n: int, lo: int, hi: int) -> Configuration:
    return _first_draw(rng, d, n, lo, hi, True, "general-position")


def random_degenerate_configuration(rng: Random, d: int, n: int, lo: int, hi: int) -> Configuration:
    return _first_draw(rng, d, n, lo, hi, False, "degenerate")


def _first_draw(rng: Random, d: int, n: int, lo: int, hi: int, generic: bool, kind: str) -> Configuration:
    for _ in range(MAX_TRIES):
        config = random_configuration(rng, d, n, lo, hi)
        if is_general_position(config) == generic:
            return config
    raise RuntimeError(f"no {kind} configuration found in {MAX_TRIES} tries")


def random_matrix(rng: Random, r: int, lo: int = -10, hi: int = 10) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(r)] for _ in range(r)]

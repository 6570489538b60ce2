"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines for
passing criteria too. Criterion 6 checks the subset-intersection identity
in its overlap-cluster form d_I = d - sum C_i - k_I on every subset, and
the classical form d_I = d - 1 - sum C_i on the single-cluster subsets
(k_I = 1), the only ones where it holds (see the test's docstring).
"""

import time
from dataclasses import dataclass
from math import comb, prod
from random import Random

import pytest

from mustafin import (
    LinkedGraph,
    classify,
    component_counts,
    configuration,
    exactness_check,
    hilbert_function,
    is_convex_configuration,
    is_general_position,
    lattice_points,
    local_model_chain,
    locate_by_multidegree,
    multidegree_partition,
    normalize,
    segment_lattice_path,
    simple_root_maps,
    skeleton_signature,
    tropical_determinant,
)
from mustafin.oracles import assignment_min_count, brute_force_hull, root_maps_by_walk, skeleton_scan, step_diagonal
from mustafin.sampling import (
    random_configuration,
    random_degenerate_configuration,
    random_general_position_configuration,
    random_matrix,
)

from strategies import overlap_clusters

SUITE_SEED = 0x5EED01
COMBOS = [(d, n) for d in (3, 4) for n in (2, 3, 4)]


@dataclass
class Case:
    config: object
    descriptors: list


@dataclass
class Suite:
    generic: list
    degenerate: list

    @property
    def all_cases(self):
        return self.generic + self.degenerate


@pytest.fixture(scope="module")
def suite():
    rng = Random(SUITE_SEED)
    generic, degenerate = [], []
    i = 0
    while len(generic) < 200:
        d, n = COMBOS[i % len(COMBOS)]
        i += 1
        cfg = random_general_position_configuration(rng, d, n, -6, 6)
        generic.append(Case(cfg, classify(cfg)))
    while len(degenerate) < 100:
        d, n = COMBOS[i % len(COMBOS)]
        i += 1
        cfg = random_degenerate_configuration(rng, d, n, -6, 6)
        degenerate.append(Case(cfg, classify(cfg)))
    return Suite(generic, degenerate)


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


EXPECTED_TRIPLE_PROFILES = {
    (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
}


def test_criterion_1_collinear_triple_reproduction():
    start = time.monotonic()
    cfg = configuration(3, [(0, -1, -2), (0, -2, -4), (0, -3, -6)])
    descs = classify(cfg)
    elapsed = time.monotonic() - start
    components = [d for d in descs if d.is_component]
    profiles = {d.factor_dims for d in components}
    singletons = all(d.multidegrees.tuples == {d.factor_dims} for d in components)
    claimed = {m for d in components for m in d.multidegrees.tuples}
    ok = (
        len(components) == 6
        and profiles == EXPECTED_TRIPLE_PROFILES
        and singletons
        and claimed == EXPECTED_TRIPLE_PROFILES
        and elapsed < 1.0
    )
    assert report(
        1, ok, f"6 components with exact factor profiles, value-1 multidegrees, {elapsed:.3f}s"
    )


def test_criterion_2_unit_step_pair_reproduction():
    cfg = configuration(3, [(0, 0, 0), (0, 1, 1)])
    descs = [d for d in classify(cfg) if d.is_component]
    by_vertex = {d.vertex.coords: d.multidegrees.tuples for d in descs}
    ok = len(descs) == 2 and by_vertex == {
        (0, 0, 0): {(2, 0)},
        (0, 1, 1): {(1, 1), (0, 2)},
    }
    assert report(2, ok, "two components with multidegree sets {(2,0)} and {(1,1),(0,2)}")


def test_criterion_3_count_law(suite):
    failures = []
    for case in suite.generic:
        cfg = case.config
        total = sum(1 for d in case.descriptors if d.is_component)
        primary = sum(1 for d in case.descriptors if d.is_component and d.is_primary)
        expected = comb(cfg.n + cfg.d - 2, cfg.d - 1)
        if total != expected or total - primary != expected - cfg.n:
            failures.append((cfg, total, expected))
    ok = not failures
    assert report(
        3, ok, f"{len(suite.generic)} generic configurations obey the binomial count law"
    ), failures[:3]


def test_criterion_4_multidegree_partition(suite):
    failures = []
    for case in suite.all_cases:
        try:
            claims = multidegree_partition(case.config, case.descriptors)
        except Exception as exc:  # totality/uniqueness violations raise
            failures.append((case.config, repr(exc)))
            continue
        if len(claims) != comb(case.config.n + case.config.d - 2, case.config.d - 1):
            failures.append((case.config, "wrong tuple count"))
    ok = not failures
    assert report(
        4,
        ok,
        f"{len(suite.all_cases)} configurations partition the degree-(d-1) tuples exactly once",
    ), failures[:3]


def test_criterion_5_oracle_equivalences():
    start = time.monotonic()
    rng = Random(SUITE_SEED + 5)
    cases = 0
    failures = []

    for _ in range(150):
        d = rng.choice((3, 4))
        n = rng.choice((2, 3, 4))
        cfg = random_configuration(rng, d, n, 0, 5)
        cases += 1
        if lattice_points(cfg).points != brute_force_hull(cfg):
            failures.append(("membership", cfg))

    for _ in range(250):
        r = rng.randint(1, 6)
        matrix = random_matrix(rng, r)
        cases += 1
        if tropical_determinant(matrix) != assignment_min_count(matrix):
            failures.append(("determinant", matrix))

    for _ in range(150):
        d = rng.choice((3, 4))
        n = rng.choice((2, 3))
        cfg = random_configuration(rng, d, n, 0, 5)
        m = _random_composition(rng, d - 1, n)
        cases += 1
        if locate_by_multidegree(cfg, m) != skeleton_scan(cfg, m):
            failures.append(("locate", cfg, m))

    elapsed = time.monotonic() - start
    ok = not failures and cases >= 500 and elapsed < 60.0
    assert report(
        5, ok, f"{cases} oracle comparisons, zero discrepancies, {elapsed:.1f}s"
    ), failures[:3]


def _random_composition(rng, total, n):
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(total - prev)
    return tuple(parts)


def test_criterion_6_kernel_dimension_identities(suite):
    """Kernel dims vs signature at every hull point, and the subset identity.

    Let J_i be the argmin set of v_i - v, C_i = |J_i| - 1, and k_I the
    number of overlap clusters of {J_i : i in I}. At every component vertex
    of the generic configurations the generator-coordinate incidence graph
    is a forest, so for every nonempty I

        d_I = d - sum_{i in I} C_i - k_I,

    and the classical form d_I = d - 1 - sum_{i in I} C_i holds exactly on
    the single-cluster subsets (k_I = 1). Both are asserted, the second
    wherever it applies. The classical form fails on split subsets: the
    fully generic configuration {(0,0,3),(0,-2,-2),(0,1,-4)} at its
    component vertex (0,0,0) with I = {1,3} has two clusters and d_I = 0,
    not 1. The argmin sets are computed here from the points, not read from
    the program's profile, so its kernels do not predict its own table.
    """
    kernel_failures = []
    corrected_failures = []
    classical_failures = []
    single = split = 0
    for case in suite.all_cases:
        cfg = case.config
        for desc in case.descriptors:
            sig = skeleton_signature(cfg, desc.vertex).codims
            for c, w in zip(sig, desc.profile.kernels):
                if w.dim != cfg.d - 1 - c:
                    kernel_failures.append((cfg, desc.vertex))
    for case in suite.generic:
        cfg = case.config
        for desc in case.descriptors:
            if not desc.is_component:
                continue
            argmins = _argmin_sets(cfg, desc.vertex)
            sig = desc.factor_dims
            for mask in range(1, 1 << cfg.n):
                chosen = [i for i in range(cfg.n) if mask >> i & 1]
                clusters = overlap_clusters([argmins[i] for i in chosen])
                d_I = desc.table.of([i + 1 for i in chosen])
                total = sum(sig[i] for i in chosen)
                where = (cfg.points, desc.vertex.coords, tuple(i + 1 for i in chosen))
                if d_I != cfg.d - total - clusters:
                    corrected_failures.append(where)
                if clusters == 1:
                    single += 1
                    if d_I != cfg.d - 1 - total:
                        classical_failures.append(where)
                else:
                    split += 1
    ok = (
        not kernel_failures
        and not corrected_failures
        and not classical_failures
        and single > 0
        and split > 0
    )
    assert report(
        6,
        ok,
        "kernel-dimension identity "
        + ("holds" if not kernel_failures else "FAILS")
        + f"; d_I = d-sum C_i-k_I on {single + split} subsets"
        + f" ({len(corrected_failures)} violations)"
        + f"; d_I = d-1-sum C_i on {single} single-cluster subsets"
        + f" ({len(classical_failures)} violations); {split} split subsets",
    ), (kernel_failures[:2], corrected_failures[:2], classical_failures[:2])


def _argmin_sets(cfg, vertex):
    """1-based argmin set of p - vertex for each generator p."""
    sets = []
    for p in cfg.points:
        diffs = [a - b for a, b in zip(p.coords, vertex.coords)]
        lo = min(diffs)
        sets.append(frozenset(j + 1 for j, value in enumerate(diffs) if value == lo))
    return sets


def test_criterion_7_linked_graph_agreement(suite):
    root_failures = []
    chain_failures = []
    for case in suite.all_cases:
        cfg = case.config
        for desc in case.descriptors:
            walked = tuple(root_maps_by_walk(cfg, desc.vertex))
            if not walked == desc.profile.diagonals() == tuple(simple_root_maps(cfg, desc.vertex)):
                root_failures.append((cfg, desc.vertex))
        for a in range(cfg.n):
            for b in range(a + 1, cfg.n):
                walk = segment_lattice_path(cfg.points[a], cfg.points[b])
                maps = {}
                for u, v in zip(walk, walk[1:]):
                    maps[(u, v)] = step_diagonal(u, v)
                    maps[(v, u)] = step_diagonal(v, u)
                chain = LinkedGraph(cfg.d, tuple(walk), maps)
                if not exactness_check(chain, walk).all_ok:
                    chain_failures.append((cfg, a, b))
    ok = not root_failures and not chain_failures
    assert report(
        7,
        ok,
        "root maps equal reduction profiles at every hull point; "
        "all two-point segment chains exact",
    ), (root_failures[:2], chain_failures[:2])


def test_criterion_8_local_models():
    ok = True
    details = []
    for d in (3, 4, 5):
        cfg = local_model_chain(d)
        counts = component_counts(cfg)
        convex = is_convex_configuration(cfg)
        details.append(f"d={d}: {counts.total} components ({counts.primary} primary), convex={convex}")
        ok = ok and counts == (d, d, 0) and convex
    assert report(8, ok, "; ".join(details))


def test_criterion_9_hilbert_normalization(suite):
    origin_failures = []
    factor_failures = []
    for case in suite.all_cases:
        for desc in case.descriptors:
            if not desc.is_component:
                continue
            n = case.config.n
            if hilbert_function(desc.multidegrees, (0,) * n) != 1:
                origin_failures.append((case.config, desc.vertex))
            tuples = desc.multidegrees.sorted_tuples()
            if len(tuples) == 1:
                t = tuples[0]
                for u in _grid(n, 4):
                    expected = prod(comb(u[i] + t[i], t[i]) for i in range(n))
                    if hilbert_function(desc.multidegrees, u) != expected:
                        factor_failures.append((case.config, desc.vertex, u))
                        break
    ok = not origin_failures and not factor_failures
    assert report(
        9,
        ok,
        "Hilbert value 1 at u=0 for every component; singleton sets factor into binomials",
    ), (origin_failures[:2], factor_failures[:2])


def _grid(n, top):
    if n == 0:
        return [()]
    return [(v,) + rest for v in range(top + 1) for rest in _grid(n - 1, top)]

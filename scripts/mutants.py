#!/usr/bin/env python3
"""Committed mutation checks: every mutant in the table must fail its tests.

Each row of MUTANTS holds a file, an old text that occurs exactly once in it,
the new text that replaces it, and a pytest selector. For each row the script
copies ``src/``, ``tests/`` and ``sample_configs/`` to a temporary directory,
applies the mutant there and runs the selector in a subprocess. The mutant is
killed when pytest reports failing tests. The script first runs every selector
on an unmutated copy and exits 1 unless they all pass. It also exits 1 if a
mutant survives, if its selector does not run (a collection or usage error), or
if an old text is missing or occurs more than once, so a refactor has to update
the table rather than drop a row silently.

    python3 scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old text, new text, pytest selector)
MUTANTS = [
    (
        "src/mustafin/linked.py",
        "complementary = tuple(full - supp(f) == supp(g) for f, g in zip(forward, backward))",
        "complementary = tuple(True for f, g in zip(forward, backward))",
        "tests/test_linked.py::TestExactness",
    ),
    (
        "src/mustafin/linked.py",
        "cond4 = tuple(supp(later) <= supp(g) for",
        "cond4 = tuple(supp(g) <= supp(later) for",
        "tests/test_linked.py::TestExactness",
    ),
    (
        "src/mustafin/linked.py",
        "range(min(delta), max(delta) + 1)",
        "range(min(delta), max(delta))",
        "tests/test_linked.py::TestSegmentLatticePath",
    ),
    (
        "src/mustafin/linked.py",
        "        return ZERO\n",
        "        return None\n",
        "tests/test_linked.py::TestPathMap",
    ),
    (
        "src/mustafin/hull.py",
        "return reduce(or_, _argmin_masks(config, x)) == (1 << config.d) - 1",
        "return reduce(or_, _argmin_masks(config, x)) == (1 << (config.d - 1)) - 1",
        "tests/test_hull.py::TestContains",
    ),
    (
        "src/mustafin/hull.py",
        "if reduce(or_, masks) != (1 << config.d) - 1:",
        "if reduce(or_, masks) != (1 << (config.d - 1)) - 1:",
        "tests/test_fiber.py::TestReductionProfile",
    ),
    (
        "src/mustafin/hull.py",
        "lo = min(diffs)",
        "lo = max(diffs)",
        "tests/test_hull.py::TestLatticePoints::test_carried_masks_are_the_argmin_sets",
    ),
    (
        "src/mustafin/multidegree.py",
        "    @cached_property\n    def _down_closure",
        "    @property\n    def _down_closure",
        "tests/test_compute_once.py::test_hilbert_builds_the_down_closure_once_per_set",
    ),
    (
        "src/mustafin/cli.py",
        "except (ValueError, RecursionError) as exc:",
        "except json.JSONDecodeError as exc:",
        "tests/test_cli.py::TestErrorHandling::test_undecodable_document_is_one_parse_record",
    ),
    (
        "src/mustafin/fiber.py",
        "if m in claims:",
        "if False:",
        "tests/test_fiber.py::TestMultidegreePartition::test_repeated_component_is_an_invariant_violation",
    ),
    (
        "src/mustafin/fiber.py",
        "if missing:",
        "if False:",
        "tests/test_fiber.py::TestMultidegreePartition::test_dropped_component_is_an_invariant_violation",
    ),
    (
        "src/mustafin/fiber.py",
        "if gp != saturated:",
        "if False:",
        "tests/test_fiber.py::TestMonomialType::test_disagreeing_general_position_is_an_invariant_violation",
    ),
    (
        "src/mustafin/fiber.py",
        "d - 1 in dims",
        "d - 2 in dims",
        "tests/test_fiber.py::TestStructuralIdentities::test_primary_exactly_at_generators",
    ),
    (
        "src/mustafin/fiber.py",
        "for masks, profile in _profiles(d, types).items():",
        "for masks, profile in ((masks, _profiles(d, types)[masks]) for masks in types):",
        "tests/test_compute_once.py::test_classify_builds_each_argmin_set_and_each_type_once",
    ),
    (
        "src/mustafin/multidegree.py",
        "table.by_mask[1 << i | 1 << j] > 0:",
        "table.by_mask[1 << i | 1 << j] >= 0:",
        "tests/test_multidegree.py::TestLevelScan::test_matches_exhaustive_levels",
    ),
    (
        "src/mustafin/multidegree.py",
        "limits = [0] + [d - 1 - v for v in table.by_mask[1:]]",
        "limits = [0] + [d - v for v in table.by_mask[1:]]",
        "tests/test_multidegree.py::TestLevelScan::test_matches_exhaustive_levels",
    ),
    (
        "src/mustafin/multidegree.py",
        "all(map(le, sums, limits))",
        "all(map(le, sums[:-1], limits))",
        "tests/test_multidegree.py::TestAdmissibleTuples::test_every_output_satisfies_every_inequality",
    ),
    (
        "src/mustafin/multidegree.py",
        "if d in single:",
        "if False:",
        "tests/test_multidegree.py::TestDimensionP::test_full_kernel_is_rejected",
    ),
    (
        "src/mustafin/multidegree.py",
        "cluster = [new if c == old else c for c in cluster]",
        "cluster[i] = new",
        "tests/test_multidegree.py::TestDimensionP::test_overlap_clusters_merge_transitively",
    ),
    (
        "src/mustafin/multidegree.py",
        "(comb(v + hi, hi) - (comb(v + lo, lo) if lo >= 0 else 0))",
        "comb(v + hi, hi)",
        "tests/test_multidegree.py::TestHilbertFunction::test_worked_two_tuple_value",
    ),
    (
        "src/mustafin/cli.py",
        'json.dumps(obj, indent=2, sort_keys=True).replace("\\n", newline)',
        'json.dumps(obj, indent=2, sort_keys=True)',
        "tests/test_cli.py::test_dump_equals_the_json_encoder",
    ),
    (
        "src/mustafin/cli.py",
        'encode_basestring_ascii(k) + ": " +',
        'encode_basestring_ascii(k) + ":" +',
        "tests/test_cli.py::test_reports_are_the_oracle_trees_rendered",
    ),
    (
        "src/mustafin/cli.py",
        "keys = [desc.profile.argmins for desc in descs]",
        "keys = [desc.p for desc in descs]",
        "tests/test_cli.py::test_reports_are_the_oracle_trees_rendered",
    ),
    (
        "src/mustafin/cli.py",
        "_ints(n, FIELD), _ints(d, FIELD)",
        "_ints(n, FIELD), _ints(d, ENTRY)",
        "tests/test_cli.py::test_reports_are_the_oracle_trees_rendered",
    ),
    (
        "src/mustafin/cli.py",
        'yield "[]" if start == "[" else "\\n  ]"',
        'yield "\\n  ]"',
        "tests/test_cli.py::test_reports_are_the_oracle_trees_rendered",
    ),
    (
        "src/mustafin/cli.py",
        "@cache\ndef build_parser",
        "def build_parser",
        "tests/test_compute_once.py::test_main_builds_the_parser_once_per_process",
    ),
    (
        "src/mustafin/hull.py",
        "cur[order[reached]] = masks[order[reached]] | bit",
        "cur[order[reached]] = masks[order[reached]]",
        "tests/test_hull.py::TestLatticePoints::test_carried_masks_are_the_argmin_sets",
    ),
    (
        "src/mustafin/hull.py",
        "ups[order[reached]] == t:",
        "ups[order[reached]] < t:",
        "tests/test_hull.py::TestLatticePoints::test_carried_masks_are_the_argmin_sets",
    ),
    (
        "src/mustafin/linked.py",
        "(u, v) if u <= v else (v, u)",
        "(u, v) if v <= u else (v, u)",
        "tests/test_linked.py::TestBuildGraph::test_two_classes_in_dimension_two",
    ),
    (
        "src/mustafin/linked.py",
        "for u, v in sorted(self.edge_maps):",
        "for u, v in self.edge_maps:",
        "tests/test_linked.py::TestBuildGraph::test_edges_and_neighbors_equal_scans_of_the_edge_maps",
    ),
    (
        "src/mustafin/fiber.py",
        "forest = forest and meet & (meet - 1) == 0",
        "forest = forest and meet & (meet - 1) >= 0",
        "tests/test_multidegree.py::TestForestTypes::test_argmin_type_equals_the_subset_scan",
    ),
    (
        "src/mustafin/fiber.py",
        "frozenset([tuple([J.bit_count() - 1 for J in masks])])",
        "frozenset([tuple([J.bit_count() for J in masks])])",
        "tests/test_multidegree.py::TestForestTypes::test_argmin_type_equals_the_subset_scan",
    ),
    (
        "src/mustafin/fiber.py",
        "return self.profile.table",
        "return intersection_dims(self.profile.kernels)",
        "tests/test_compute_once.py::test_generic_classify_scans_no_subsets_and_reads_each_table_once_per_type",
    ),
    (
        "src/mustafin/cli.py",
        "% tuple(sorted(J))",
        "% tuple(J)",
        "tests/test_cli.py::test_argmin_sets_print_sorted_where_a_set_iterates_out_of_order",
    ),
    (
        "src/mustafin/cli.py",
        "tuples = {m: tuple_at % m",
        "tuples = {m: tuple_at % tuple(sorted(m))",
        "tests/test_golden.py::test_stdout_matches_recording[random_generic-classify]",
    ),
    (
        "src/mustafin/cli.py",
        "indent=2, sort_keys=True).replace",
        "indent=2).replace",
        "tests/test_cli.py::test_dump_equals_the_json_encoder",
    ),
    (
        "src/mustafin/tropical.py",
        "if len(point) < 2:",
        "if len(point) < 1:",
        "tests/test_tropical.py::TestTorusPoint::test_point_is_its_normalized_tuple",
    ),
    (
        "src/mustafin/tropical.py",
        "if point[0] != 0:",
        "if False:",
        "tests/test_tropical.py::TestTorusPoint::test_point_is_its_normalized_tuple",
    ),
    (
        "src/mustafin/cli.py",
        'map(_ints(echo["d"], ITEM).__mod__, points)',
        'map(_ints(echo["d"], FIELD).__mod__, points)',
        "tests/test_golden.py::test_stdout_matches_recording[unit_step_pair-hull]",
    ),
    (
        "src/mustafin/linked.py",
        "base = max(map(max, hull)) - min(map(min, hull)) + 2",
        "base = max(map(max, hull)) - min(map(min, hull)) + 1",
        "tests/test_linked.py::TestBuildGraph::test_edge_maps_equal_the_pair_scan",
    ),
    (
        "src/mustafin/linked.py",
        "for shift, forward, backward in moves:",
        "for shift, forward, backward in reversed(moves):",
        "tests/test_linked.py::TestBuildGraph::test_edge_maps_equal_the_pair_scan",
    ),
    (
        "src/mustafin/tropical.py",
        "ways += count",
        "ways = count",
        "tests/test_tropical.py::TestTropicalDeterminant::test_agrees_with_permutation_scan",
    ),
    (
        "src/mustafin/tropical.py",
        "key = rs, cs",
        "key = len(rs), cs",
        "tests/test_tropical.py::TestGeneralPosition::test_witness_is_first_singular_minor_in_scan_order",
    ),
    (
        "src/mustafin/fiber.py",
        "ComponentDescriptor(v, *records[masks])",
        "ComponentDescriptor(v, ReductionProfile(d, masks, records[masks][0].argmins), *records[masks][1:])",
        "tests/test_compute_once.py::test_classify_builds_each_argmin_set_and_each_type_once",
    ),
    (
        "src/mustafin/hull.py",
        "    return HullLatticeSet(config, tuple(map(TorusPoint, level)), tuple(level_masks))",
        "    found = HullLatticeSet(config, tuple(map(TorusPoint, level)), tuple(level_masks))\n"
        "    return found if found.points else found",
        "tests/test_compute_once.py::test_classify_graph_and_hull_never_build_the_point_set",
    ),
    (
        "src/mustafin/fiber.py",
        "gp = all(desc.p == sum(desc.factor_dims) for desc in descriptors)",
        "gp = all(desc.p <= sum(desc.factor_dims) for desc in descriptors)",
        "tests/test_fiber.py::TestMonomialType::test_verdict_from_the_types_is_the_minor_scan",
    ),
    (
        "src/mustafin/linked.py",
        "steps = [(0, *bits) for bits in product((0, 1), repeat=d - 1)][1:]",
        "steps = [(0, *bits) for bits in product((0, 1), repeat=d - 1)][:0:-1]",
        "tests/test_compute_once.py::test_graph_streams_its_edges_and_builds_no_edge_maps",
    ),
    (
        "src/mustafin/linked.py",
        "key = forward, backward",
        "key = forward",
        "tests/test_linked.py::TestDot::test_each_edge_shows_its_own_diagonals",
    ),
    (
        "src/mustafin/cli.py",
        "*[d - 1 - f for f in desc.factor_dims]",
        "*[d - f for f in desc.factor_dims]",
        "tests/test_cli.py::test_reports_are_the_oracle_trees_rendered",
    ),
    (
        "src/mustafin/cli.py",
        "_vec(d - 1 - f for f in desc.factor_dims)",
        "_vec(d - f for f in desc.factor_dims)",
        "tests/test_cli.py::test_reports_are_the_oracle_trees_rendered",
    ),
    (
        "src/mustafin/multidegree.py",
        "return d - table.by_mask[-1] - len(set(cluster))",
        "return min(2, d - table.by_mask[-1] - len(set(cluster)))",
        "tests/test_multidegree.py::TestLevelScan::test_matches_exhaustive_levels",
    ),
    (
        "src/mustafin/multidegree.py",
        "return d - table.by_mask[-1] - len(set(cluster))",
        "return d - (table.by_mask[0] + n) - len(set(cluster))",
        "tests/test_multidegree.py::TestDimensionP",
    ),
    (
        "src/mustafin/multidegree.py",
        "(comb(v + hi, hi) - (comb(v + lo, lo) if lo >= 0 else 0))",
        "(comb(v + 1 + hi, hi) - (comb(v + 1 + lo, lo) if lo >= 0 else 0))",
        "tests/test_multidegree.py::TestHilbertFunction::test_single_factor_projective_space",
    ),
    (
        "src/mustafin/hull.py",
        "while ups[order[passed]] < t:",
        "while ups[order[passed]] <= t:",
        "tests/test_hull.py::TestLatticePoints::test_shared_breakpoints_keep_the_masks_and_the_points",
    ),
    (
        "src/mustafin/hull.py",
        "cur[order[reached]] = masks[order[reached]] | bit",
        "cur[order[reached]] = bit",
        "tests/test_hull.py::TestLatticePoints::test_shared_breakpoints_keep_the_masks_and_the_points",
    ),
    (
        "src/mustafin/fiber.py",
        "p = sum(map(int.bit_count, components)) - len(components)",
        "p = sum(map(int.bit_count, components)) - len(components) + 1",
        "tests/test_multidegree.py::TestForestTypes::test_one_pass_equals_dimension_p_and_the_subset_scan",
    ),
    (
        "src/mustafin/multidegree.py",
        "max(0, rem - later)",
        "max(0, rem - later + 1)",
        "tests/test_multidegree.py::TestAdmissibleTuples::test_equals_the_product_scan",
    ),
    (
        "src/mustafin/multidegree.py",
        "all(map(le, sums, limits))",
        "all(map(int.__lt__, sums, limits))",
        "tests/test_multidegree.py::TestAdmissibleTuples::test_equals_the_product_scan",
    ),
    (
        "src/mustafin/multidegree.py",
        "sums += [s + v for s in sums] if v else sums",
        "sums += [s for s in sums] if v else sums",
        "tests/test_multidegree.py::TestAdmissibleTuples::test_equals_the_product_scan",
    ),
    (
        "src/mustafin/multidegree.py",
        "[s + v for s in sums] if v else sums",
        "[s + v for s in sums] if v > 1 else sums",
        "tests/test_multidegree.py::TestAdmissibleTuples::test_equals_the_product_scan",
    ),
    (
        "src/mustafin/tropical.py",
        "coords = tuple(map(index, raw))",
        "coords = tuple(map(int, raw))",
        "tests/test_tropical.py::TestNormalize::test_rejects_floats_instead_of_truncating",
    ),
    (
        "src/mustafin/multidegree.py",
        "if lo >= 0 else 0",
        "if lo >= 0 else 1",
        "tests/test_multidegree.py::TestMonomialOracle::test_describe_matches_the_monomial_count",
    ),
    (
        "src/mustafin/multidegree.py",
        "for t in S if t[0] >= hi]",
        "for t in S if t[0] > hi]",
        "tests/test_multidegree.py::TestMonomialOracle::test_describe_matches_the_monomial_count",
    ),
    (
        "src/mustafin/multidegree.py",
        " or len(t) != n:",
        ":",
        "tests/test_multidegree.py::TestHilbertFunction::test_tuples_of_different_lengths_are_rejected",
    ),
    (
        "src/mustafin/linked.py",
        ".diagonals())",
        ".diagonals())[::-1]",
        "tests/test_linked.py::TestSimpleRootMaps",
    ),
    (
        "src/mustafin/tropical.py",
        "if not isinstance(p, TorusPoint):",
        "if False:",
        "tests/test_tropical.py::TestConfiguration::test_rejects_points_that_are_not_torus_points",
    ),
    (
        "src/mustafin/tropical.py",
        "if len(tuple(map(index, p))) != self.d:",
        "if len(p) != self.d:",
        "tests/test_tropical.py::TestConfiguration::test_rejects_torus_points_with_non_integer_coordinates",
    ),
]


def pytest_in_copy(selectors: list[str], file: str | None = None, text: str | None = None) -> int:
    """pytest's exit code for ``selectors`` in a temporary copy of the tree, ``file`` holding ``text`` if given."""
    with tempfile.TemporaryDirectory() as tmp:
        # The golden tests read sample_configs/, so the copy needs it besides src/ and tests/.
        for tree in ("src", "tests", "sample_configs"):
            shutil.copytree(ROOT / tree, Path(tmp, tree), ignore=shutil.ignore_patterns("__pycache__"))
        if file is not None:
            Path(tmp, file).write_text(text)
        paths = [str(Path(tmp, "src")), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selectors],
            cwd=tmp, env=env, capture_output=True, text=True,
        ).returncode


def run_mutant(file: str, old: str, new: str, selector: str) -> str:
    """'killed', 'survived', or the reason the row could not be run."""
    text = (ROOT / file).read_text()
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times"
    code = pytest_in_copy([selector], file, text.replace(old, new))
    # pytest exits 0 when every test passed and 1 when some failed; anything else did not run.
    return {0: "survived", 1: "killed"}.get(code, f"pytest exited {code}")


def main() -> int:
    # A selector that already fails on the unmutated copy would count every mutant of its row as killed.
    code = pytest_in_copy(sorted({selector for *_, selector in MUTANTS}))
    if code != 0:
        print(f"the selectors do not all pass on the unmutated tree (pytest exited {code})")
        return 1
    failed = 0
    for file, old, new, selector in MUTANTS:
        outcome = run_mutant(file, old, new, selector)
        failed += outcome != "killed"
        print(f"{outcome}: {file}: {old.strip()!r} -> {new.strip()!r} [{selector}]", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

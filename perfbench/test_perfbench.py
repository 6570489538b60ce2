"""Tests of the benchmark itself: python3 -m pytest perfbench

Short runs of every workload must pass every check, the checks must flag
hand-corrupted outputs, and the benchmark's own computations must agree
with the program on random inputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def prog():
    return workloads.Program(run.SRC)


@pytest.fixture(scope="module")
def cli_ops(prog, tmp_path_factory):
    wl = workloads.WORKLOADS["cli-explore"](prog, tmp_path_factory.mktemp("cli"))
    ops = {op[2][0]: op for op in wl.make_round(7, 0)}
    return wl, ops


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_run_passes_every_check(name):
    result = run.run_workload(name, seed=3, seconds=1, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result = run.run_workload(name, seed=3, seconds=1, trace=True)
    assert result["failed"] == 0, result["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["hull.lattice_points.ms"]["value"] > 0


def test_dropped_hull_point_is_flagged(cli_ops):
    wl, ops = cli_ops
    op = ops["hull"]
    report = json.loads(wl.run(op).output)
    assert wl.check(op, workloads.Outcome(json.dumps(report))) == []
    del report["hull"][len(report["hull"]) // 2]
    assert wl.check(op, workloads.Outcome(json.dumps(report)))


def test_doubly_claimed_multidegree_is_flagged(cli_ops):
    wl, ops = cli_ops
    op = ops["classify"]
    report = json.loads(wl.run(op).output)
    assert wl.check(op, workloads.Outcome(json.dumps(report))) == []
    components = [v for v in report["vertices"] if v["is_component"]]
    components[1]["multidegrees"].append(components[0]["multidegrees"][0])
    problems = wl.check(op, workloads.Outcome(json.dumps(report)))
    assert any("claimed 2 times" in p for p in problems)


def test_doubly_claimed_multidegree_is_flagged_through_the_api(prog):
    wl = workloads.WORKLOADS["classify-highdim"](prog, None)
    op = wl.make_round(7, 0)[0]
    outcome = wl.run(op)
    assert wl.check(op, outcome) == []
    descriptors, counts, partition = outcome.output
    first, second = [desc for desc in descriptors if desc.is_component][:2]
    doubled = second.multidegrees.tuples | first.multidegrees.tuples
    descriptors[descriptors.index(second)] = type(second)(
        **{**second.__dict__, "multidegrees": type(second.multidegrees)(second.p, doubled)}
    )
    assert wl.check(op, workloads.Outcome((descriptors, counts, partition)))


def test_missing_edge_is_flagged(cli_ops):
    wl, ops = cli_ops
    op = ops["graph"]
    report = json.loads(wl.run(op).output)
    assert wl.check(op, workloads.Outcome(json.dumps(report))) == []
    report["edges"].pop()
    assert wl.check(op, workloads.Outcome(json.dumps(report)))


def test_flipped_gp_verdict_is_flagged(cli_ops):
    wl, ops = cli_ops
    op = ops["gp"]
    report = json.loads(wl.run(op).output)
    assert wl.check(op, workloads.Outcome(json.dumps(report))) == []
    report["general_position"] = not report["general_position"]
    assert wl.check(op, workloads.Outcome(json.dumps(report)))


def test_gp_check_accepts_a_true_witness_and_rejects_a_false_one():
    gens = [(0, 0, 0), (0, 1, 1)]
    rows, cols = next(oracle.singular_minors(gens))
    minor = [[gens[i][j] for j in cols] for i in rows]
    witness = {"rows": list(rows), "cols": list(cols), "minor": minor}
    assert workloads.check_gp(gens, {"general_position": False, "witness": witness}) == []
    assert workloads.check_gp(gens, {"general_position": True})
    generic = [(0, -1, -2), (0, -2, -4), (0, -3, -6)]
    assert workloads.check_gp(generic, {"general_position": True}) == []
    fake = {"rows": [0, 1], "cols": [0, 1], "minor": [[0, -1], [0, -2]]}
    assert workloads.check_gp(generic, {"general_position": False, "witness": fake})


def test_off_by_one_hilbert_value_is_flagged(cli_ops):
    wl, ops = cli_ops
    op = ops["hilbert"]
    value = int(wl.run(op).output)
    assert wl.check(op, workloads.Outcome(f"{value}\n")) == []
    assert wl.check(op, workloads.Outcome(f"{value + 1}\n"))
    assert wl.check(op, workloads.Outcome(f"{value - 1}\n"))


def test_hull_walk_matches_the_program(prog):
    rng = Random(11)
    for d, n, w in [(3, 3, 6), (4, 4, 4), (5, 3, 3), (3, 8, 4)]:
        gens = workloads.spanning_points(rng, d, n, 0, w)
        config = prog.tropical.configuration(d, gens)
        want = {p.coords for p in prog.hull.lattice_points(config)}
        assert oracle.hull_by_walk(gens) == want


def test_assignment_dp_matches_the_program(prog):
    rng = Random(12)
    for _ in range(200):
        r = rng.randint(1, 5)
        matrix = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(r)]
        assert oracle.assignment_min_count(matrix) == prog.tropical.tropical_determinant(matrix)


def test_multidegrees_and_hilbert_match_the_program(prog):
    rng = Random(13)
    cases = wide = 0
    for d, n, w in [(3, 3, 4), (4, 3, 3), (4, 4, 2), (5, 3, 2), (3, 4, 3), (4, 3, 2)]:
        gens = workloads.spanning_points(rng, d, n, 0, w)
        config = prog.tropical.configuration(d, gens)
        for desc in prog.fiber.classify(config):
            p, tuples = oracle.multidegrees(oracle.argmin_sets(gens, desc.vertex.coords))
            assert (p, set(tuples)) == (desc.p, set(desc.multidegrees.tuples))
            u = tuple(rng.randint(0, 3) for _ in range(n))
            assert oracle.hilbert_value(tuples, u) == prog.multidegree.hilbert_function(desc.multidegrees, u)
            cases += 1
            wide += len(tuples) > 1
    assert cases > 50 and wide > 5


def test_generic_points_are_generic_and_span_their_range(prog):
    rng = Random(14)
    for _ in range(20):
        gens = workloads.generic_points(rng, 4, 5, -3, 3)
        assert oracle.is_generic(gens)
        assert prog.tropical.is_general_position(prog.tropical.configuration(4, gens))
    for _ in range(20):
        gens = workloads.spanning_points(rng, 6, 3, -2, 2)
        assert [(min(c), max(c)) for c in list(zip(*gens))[1:]] == [(-2, 2)] * 5


def test_compositions_are_all_tuples_with_the_sum():
    assert sorted(oracle.compositions(2, 3)) == sorted(
        m for m in [(a, b, 2 - a - b) for a in range(3) for b in range(3)] if min(m) >= 0
    )
    assert len(oracle.compositions(3, 12)) == oracle.component_law(12, 4)


def test_inputs_depend_only_on_seed_and_round(prog):
    wl = workloads.WORKLOADS["classify-manygen"](prog, None)
    first = [op[1] for op in wl.make_round(5, 3)]
    assert first == [op[1] for op in wl.make_round(5, 3)]
    assert first != [op[1] for op in wl.make_round(6, 3)]


def test_tail_is_a_fixed_nearest_rank_percentile():
    assert run.TAIL == 90
    assert run.percentile([float(v) for v in range(1, 201)], 90) == 180.0
    assert run.percentile([float(v) for v in range(1, 97)], 90) == 87.0
    assert run.percentile([5.0], 90) == 5.0


def test_every_kind_weighs_the_same_in_the_median():
    by_kind = {"cheap": [1.0] * 99, "dear": [100.0, 100.0, 100.0]}
    assert run.geometric_mean_of_medians(by_kind) == pytest.approx(10.0)


def test_rounds_hold_one_operation_of_each_kind(prog, tmp_path):
    for name, make in workloads.WORKLOADS.items():
        wl = make(prog, tmp_path)
        kinds = [op[0] for op in wl.make_round(2, 0)]
        assert len(kinds) == len(set(kinds)) >= 2, name


def test_unreadable_output_counts_as_wrong(cli_ops):
    wl, ops = cli_ops

    class Garbled:
        check = staticmethod(wl.check)

        @staticmethod
        def run(op):
            return workloads.Outcome("not json")

    tally = run.Tally()
    tally.run_round(Garbled, [ops["hull"], ops["hilbert"]])
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 2)

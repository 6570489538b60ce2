"""Seeded inputs, operations and output checks of the three workloads.

An operation's input is made only from the workload's seed and the
index of its round, so the same seed gives the same inputs however many
rounds a run reaches, and no input repeats within a run. A round is
drawn by the benchmark (`draw`, not timed) and then handed to the
program (`prepare`, part of the timed set-up for the first rounds). A
workload never imports the program: the runner passes in a `Program`, whose
module attributes are what the tracer wraps.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
from functools import partial
from itertools import combinations
from pathlib import Path
from random import Random

import oracle

MODULES = ("tropical", "hull", "fiber", "multidegree", "linked", "apartment", "cli")


class Program:
    """A fresh import of the `mustafin` package found under `src`."""

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "mustafin" or m.startswith("mustafin.")]:
            del sys.modules[name]
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        package = importlib.import_module("mustafin")
        origin = Path(package.__file__).resolve()
        if src.resolve() not in origin.parents:
            raise ImportError(f"mustafin was imported from {origin}, not from {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"mustafin.{name}"))


def _round_rng(workload: str, seed: int, index: int) -> Random:
    return Random(f"{workload}/{seed}/{index}")


def spanning_points(rng: Random, d: int, n: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """n distinct normalized points whose every free coordinate spans exactly [lo, hi].

    Pinning the bounding box fixes the box volume, which sets the cost of
    the program's box scan, so operations of one shape cost about the same.
    """
    while True:
        columns = []
        for _ in range(d - 1):
            column = [rng.randint(lo, hi) for _ in range(n)]
            low, high = rng.sample(range(n), 2)
            column[low], column[high] = lo, hi
            columns.append(column)
        points = [(0,) + tuple(column[i] for column in columns) for i in range(n)]
        if len(set(points)) == n:
            return points


def _candidate_rows(rows, d: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Every row that makes no singular 2 x 2 minor with `rows`.

    With first coordinates pinned to 0, a 2 x 2 minor on columns (0, j)
    is singular iff two rows share coordinate j, and one on (l, j) iff
    two rows share x_j - x_l.
    """
    prefixes = [(0,)]
    for j in range(1, d):
        prefixes = [
            row + (x,)
            for row in prefixes
            for x in range(lo, hi + 1)
            if all(x != q[j] and all(row[l] - x != q[l] - q[j] for l in range(1, j)) for q in rows)
        ]
    return prefixes


def _singular_with(rows, row, d: int) -> bool:
    """True iff a square minor of size >= 3 that uses `row` and earlier rows is singular."""
    for r in range(3, min(len(rows) + 1, d) + 1):
        for prev in combinations(rows, r - 1):
            for cols in combinations(range(d), r):
                matrix = [[q[j] for j in cols] for q in prev] + [[row[j] for j in cols]]
                if oracle.assignment_min_count(matrix)[1] >= 2:
                    return True
    return False


def generic_points(rng: Random, d: int, n: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """n normalized points in tropical general position, free coordinates in [lo, hi].

    Rows are added one at a time, each drawn at random from the rows that
    close no singular square minor with the rows before it; when none is
    left the configuration is started over.
    """
    rows: list[tuple[int, ...]] = []
    while len(rows) < n:
        candidates = _candidate_rows(rows, d, lo, hi)
        rng.shuffle(candidates)
        row = next((c for c in candidates if not _singular_with(rows, c, d)), None)
        if row is None:
            rows = []
        else:
            rows.append(row)
    return rows


class Outcome:
    """What the runner learns from one operation."""

    __slots__ = ("output", "stdout_bytes")

    def __init__(self, output, stdout_bytes: int = 0):
        self.output = output
        self.stdout_bytes = stdout_bytes


class ClassifyWorkload:
    """`classify`, then `component_counts` and `multidegree_partition`, through the Python API.

    A round holds one configuration of each shape (d, n, w): n points
    whose free coordinates each span exactly w + 1 values. An operation's
    kind is its shape.
    """

    def __init__(self, prog: Program, workdir: Path, name: str, shapes, setup_rounds: int,
                 warmup_rounds: int, trace_rounds_per_s: float):
        self.prog = prog
        self.name = name
        self.shapes = shapes
        self.setup_rounds = setup_rounds
        self.warmup_rounds = warmup_rounds
        self.trace_rounds_per_s = trace_rounds_per_s

    def draw(self, seed: int, index: int) -> list:
        """The benchmark's side of a round: the points of each configuration."""
        rng = _round_rng(self.name, seed, index)
        return [
            (f"op.classify.d{d}n{n}w{w}", spanning_points(rng, d, n, -(w // 2), w - w // 2), d)
            for d, n, w in self.shapes
        ]

    def prepare(self, drawn: list) -> list:
        """The program's side of a round: one `Configuration` per operation."""
        return [(kind, points, self.prog.tropical.configuration(d, points)) for kind, points, d in drawn]

    def make_round(self, seed: int, index: int) -> list:
        return self.prepare(self.draw(seed, index))

    def run(self, op) -> Outcome:
        fiber = self.prog.fiber
        config = op[2]
        descriptors = fiber.classify(config)
        counts = fiber.component_counts(config, descriptors)
        partition = fiber.multidegree_partition(config, descriptors)
        return Outcome((descriptors, counts, partition))

    def check(self, op, outcome: Outcome) -> list[str]:
        gens = op[1]
        descriptors, counts, partition = outcome.output
        vertices = [
            {
                "vertex": desc.vertex.coords,
                "argmins": [frozenset(J) for J in desc.profile.argmins],
                "factor_dims": tuple(desc.factor_dims),
                "p": desc.p,
                "is_component": desc.is_component,
                "is_primary": desc.is_primary,
                "multidegrees": [tuple(m) for m in desc.multidegrees.tuples],
            }
            for desc in descriptors
        ]
        return check_classification(
            gens,
            vertices,
            (counts.total, counts.primary, counts.secondary),
            {tuple(m): v.coords for m, v in partition.items()},
        )


class CliWorkload:
    """One in-process `mustafin.cli.main` call per operation, stdout captured.

    A round holds one call of each command in `commands`, each on its own
    generic configuration. An operation's kind is its command.
    """

    def __init__(self, prog: Program, workdir: Path, name: str, d: int, n: int, lo: int, hi: int,
                 commands, setup_rounds: int, warmup_rounds: int, trace_rounds_per_s: float):
        self.prog = prog
        self.workdir = workdir
        self.name = name
        self.d, self.n, self.lo, self.hi = d, n, lo, hi
        self.commands = commands
        self.setup_rounds = setup_rounds
        self.warmup_rounds = warmup_rounds
        self.trace_rounds_per_s = trace_rounds_per_s

    def draw(self, seed: int, index: int) -> list:
        """The benchmark's side of a round: generic points and the query of each call."""
        rng = _round_rng(self.name, seed, index)
        drawn = []
        for k, command in enumerate(self.commands):
            gens = generic_points(rng, self.d, self.n, self.lo, self.hi)
            query = None
            if command == "hilbert":
                lams = [rng.randint(0, self.hi - self.lo) for _ in gens]
                vertex = oracle.normalized(
                    tuple(min(lam + g[j] for lam, g in zip(lams, gens)) for j in range(self.d))
                )
                query = (vertex, tuple(rng.randint(0, 3) for _ in gens))
            drawn.append((command, gens, query, f"s{seed}-r{index}-{k}"))
        return drawn

    def prepare(self, drawn: list) -> list:
        """The program's side of a round: one configuration file and argument list per call."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for command, gens, query, stem in drawn:
            path = self.workdir / f"{stem}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"d": self.d, "points": [list(g) for g in gens]}, handle)
            argv = [command, os.fspath(path)]
            if query is not None:
                vertex, u = query
                argv += ["--vertex", ",".join(map(str, vertex)), "--u", ",".join(map(str, u))]
            ops.append((f"cli.{command}", gens, argv, query))
        return ops

    def make_round(self, seed: int, index: int) -> list:
        return self.prepare(self.draw(seed, index))

    def run(self, op) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.prog.cli.main(op[2])
        if code != 0:
            raise RuntimeError(f"{' '.join(op[2])} exited {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        return Outcome(text, len(text.encode("utf-8")))

    def check(self, op, outcome: Outcome) -> list[str]:
        _, gens, argv, query = op
        command, text = argv[0], outcome.output
        if command == "hilbert":
            vertex, u = query
            _, tuples = oracle.multidegrees(oracle.argmin_sets(gens, vertex))
            want = oracle.hilbert_value(tuples, u)
            got = text.strip()
            return [] if got == str(want) else [f"hilbert at {vertex}, u={u}: got {got}, want {want}"]
        report = json.loads(text)
        problems = []
        echo = report.get("config", {})
        if echo.get("d") != len(gens[0]) or [tuple(p) for p in echo.get("points", [])] != gens:
            problems.append("config echo differs from the input")
        if command == "hull":
            problems += check_hull(gens, [tuple(p) for p in report["hull"]])
        elif command == "gp":
            problems += check_gp(gens, report)
        elif command == "graph":
            problems += check_graph(gens, report)
        elif command == "classify":
            problems += check_classify_report(gens, report)
        return problems


def check_hull(gens, listed, want=None) -> list[str]:
    """`listed` must be the walked hull, sorted and without repeats."""
    want = sorted(oracle.hull_by_walk(gens)) if want is None else want
    if listed == want:
        return []
    missing = sorted(set(want) - set(listed))
    extra = sorted(set(listed) - set(want))
    return [f"hull lists {len(listed)} points, the walk finds {len(want)}: "
            f"missing {missing[:3]}, extra {extra[:3]} (else out of order or repeated)"]


def check_classification(gens, vertices, counts, partition, walked=None) -> list[str]:
    """Check one classification against the walk, the argmin sets and the composition count."""
    d, n = len(gens[0]), len(gens)
    problems = check_hull(gens, [v["vertex"] for v in vertices], walked)
    claims: dict[tuple[int, ...], list] = {}
    components = primary = 0
    for v in vertices:
        x = v["vertex"]
        argmins = oracle.argmin_sets(gens, x)
        if v["argmins"] != argmins:
            problems.append(f"argmin sets at {x}: got {v['argmins']}, want {argmins}")
        if v["factor_dims"] != tuple(len(J) - 1 for J in argmins):
            problems.append(f"factor_dims at {x}: {v['factor_dims']}")
        if v["is_primary"] != (x in gens):
            problems.append(f"is_primary at {x}: {v['is_primary']}")
        if v["is_component"] != (v["p"] == d - 1):
            problems.append(f"is_component at {x} is {v['is_component']} with p={v['p']}")
        for m in v["multidegrees"]:
            if len(m) != n or sum(m) != v["p"] or min(m) < 0:
                problems.append(f"multidegree {m} at {x} does not have total p={v['p']}")
        if v["is_component"]:
            components += 1
            primary += v["is_primary"]
            for m in v["multidegrees"]:
                claims.setdefault(m, []).append(x)
    expected = oracle.compositions(d - 1, n)
    for m in expected:
        owners = claims.get(m, [])
        if len(owners) != 1:
            problems.append(f"multidegree {m} claimed {len(owners)} times")
        elif partition.get(m) != owners[0]:
            problems.append(f"partition maps {m} to {partition.get(m)}, claimed by {owners[0]}")
    extra = set(claims) - set(expected)
    if extra or len(partition) != len(expected):
        problems.append(f"claims outside the compositions of {d - 1}: {sorted(extra)[:3]}")
    if counts != (components, primary, components - primary):
        problems.append(f"counts {counts}, recounted {(components, primary, components - primary)}")
    if oracle.is_generic(gens) and (components, primary) != (oracle.component_law(n, d), n):
        problems.append(f"generic configuration with {components} components, {primary} primary")
    return problems


def check_classify_report(gens, report) -> list[str]:
    d = len(gens[0])
    vertices = [
        {
            "vertex": tuple(v["vertex"]),
            "argmins": [frozenset(J) for J in v["argmins"]],
            "factor_dims": tuple(v["factor_dims"]),
            "p": v["p"],
            "is_component": v["is_component"],
            "is_primary": v["is_primary"],
            "multidegrees": [tuple(m) for m in v["multidegrees"]],
        }
        for v in report["vertices"]
    ]
    counts = report["counts"]
    walked = sorted(oracle.hull_by_walk(gens))
    problems = check_classification(
        gens,
        vertices,
        (counts["total"], counts["primary"], counts["secondary"]),
        {tuple(e["multidegree"]): tuple(e["vertex"]) for e in report["partition"]},
        walked,
    )
    problems += check_hull(gens, [tuple(p) for p in report["hull"]], walked)
    for v in report["vertices"]:
        if v["kernel_dims"] != [d - len(J) for J in v["argmins"]]:
            problems.append(f"kernel_dims at {v['vertex']}: {v['kernel_dims']}")
    generic = oracle.is_generic(gens)
    if report["general_position"] != generic or report["monomial_type"] != generic:
        problems.append(f"general_position/monomial_type {report['general_position']}/"
                        f"{report['monomial_type']}, want {generic}")
    return problems


def check_gp(gens, report) -> list[str]:
    verdict = report["general_position"]
    if verdict:
        witness = next(oracle.singular_minors(gens), None)
        return [] if witness is None else [f"gp says generic, but minor {witness} is singular"]
    w = report.get("witness")
    if w is None:
        return ["gp says degenerate without a witness"]
    rows, cols = w["rows"], w["cols"]
    matrix = [[gens[i][j] for j in cols] for i in rows]
    if len(rows) != len(cols) or len(rows) < 2 or w["minor"] != matrix:
        return [f"gp witness {w} does not match the configuration"]
    if oracle.assignment_min_count(matrix)[1] < 2:
        return [f"gp witness minor {matrix} is not singular"]
    return []


def check_graph(gens, report) -> list[str]:
    vertices = [tuple(v) for v in report["vertices"]]
    problems = check_hull(gens, vertices)
    want = oracle.neighbour_pairs(vertices)
    got = set()
    full = (1,) * len(gens[0])
    for e in report["edges"]:
        u, v = tuple(e["u"]), tuple(e["v"])
        got.add((u, v))
        forward, backward = tuple(e["forward"]), tuple(e["backward"])
        if forward != oracle.argmin_indicator(u, v):
            problems.append(f"forward diagonal {forward} on {u} -> {v}")
        if tuple(a + b for a, b in zip(forward, backward)) != full:
            problems.append(f"diagonals {forward} / {backward} on {u} -- {v} are not complementary")
    if got != want or len(got) != len(report["edges"]):
        problems.append(f"edges differ: {len(want - got)} missing, {len(got - want)} extra")
    return problems


# Each entry makes a workload from a freshly imported program and a directory for its files.
WORKLOADS = {
    "classify-highdim": partial(
        ClassifyWorkload,
        name="classify-highdim",
        shapes=[(6, 3, 4), (6, 4, 4)],
        setup_rounds=100,
        warmup_rounds=3,
        trace_rounds_per_s=3.3,
    ),
    "classify-manygen": partial(
        ClassifyWorkload,
        name="classify-manygen",
        shapes=[(3, 10, 4), (3, 11, 4), (3, 12, 4), (4, 10, 2)],
        setup_rounds=20,
        warmup_rounds=1,
        trace_rounds_per_s=0.9,
    ),
    "cli-explore": partial(
        CliWorkload,
        name="cli-explore",
        d=4,
        n=5,
        lo=-3,
        hi=3,
        commands=("classify", "hull", "graph", "gp", "hilbert"),
        setup_rounds=10,
        warmup_rounds=4,
        trace_rounds_per_s=4.5,
    ),
}

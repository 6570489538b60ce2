"""Spans and counts around the program's public functions, recorded from outside.

`Tracer.install` replaces each traced function at every module attribute
that holds it (for example `hull.lattice_points`, `fiber.lattice_points`
and `linked.lattice_points` are one function), so calls the program makes
through any of its modules pass the wrapper; `uninstall` puts the
originals back. A span is (name, parent, start, end); spans stay in
memory until `write` saves them. Counts are derived from the arguments
and results of the wrapped calls, never from inside the program.
"""

from __future__ import annotations

import json
import sys
from array import array
from math import factorial
from time import perf_counter

import oracle

# (module, function, how): "span" records a span, "count" only counts calls.
# `tropical.normalize` is not wrapped: the box scan calls it once per candidate.
TRACED = (
    ("tropical", "is_general_position", "span"),
    ("tropical", "singular_square_minor", "span"),
    ("tropical", "tropical_determinant", "count"),
    ("hull", "contains", "span"),
    ("hull", "lattice_points", "span"),
    ("hull", "skeleton_signature", "span"),
    ("hull", "locate_by_multidegree", "span"),
    ("fiber", "reduction_profile", "span"),
    ("fiber", "describe_vertex", "span"),
    ("fiber", "classify", "span"),
    ("fiber", "component_counts", "span"),
    ("fiber", "multidegree_partition", "span"),
    ("multidegree", "intersection_dims", "span"),
    ("multidegree", "admissible_tuples", "span"),
    ("multidegree", "dimension_p", "span"),
    ("multidegree", "multidegree_set", "span"),
    ("multidegree", "hilbert_function", "span"),
    ("linked", "build_graph", "span"),
    ("apartment", "is_adjacent", "count"),
    ("cli", "load_document", "span"),
    ("cli", "classification_report", "span"),
    ("cli", "hull_report", "span"),
    ("cli", "main", "span"),
)


def tuples_below(caps, total: int) -> int:
    """Number of tuples 0 <= m_i <= caps_i with sum `total`."""
    ways = [1] + [0] * total
    for cap in caps:
        nxt = [0] * (total + 1)
        for s, w in enumerate(ways):
            if w:
                for v in range(min(cap, total - s) + 1):
                    nxt[s + v] += w
        ways = nxt
    return ways[total]


class Tracer:
    def __init__(self, prog):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.enumerated: dict[int, frozenset] = {}
        self.patches = []
        modules = [m for name, m in sys.modules.items() if name == "mustafin" or name.startswith("mustafin.")]
        for module_name, func_name, how in TRACED:
            module = getattr(prog, module_name)
            original = getattr(module, func_name)
            name = f"{module_name}.{func_name}"
            if how == "count":
                wrapper = self._counter(name, original)
            else:
                hook = getattr(self, "_after_" + func_name, None)
                wrapper = self._spanner(name, original, hook)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        self.patches.append((m, attr, original, wrapper))
        # The box scan calls `contains` once per candidate; those calls are
        # counted as box candidates, so the scan sees the unwrapped function.
        self.hull = prog.hull
        self.plain_contains = prog.hull.contains

    def install(self) -> None:
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def _spanner(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(idx, args, result)
            return result

        if name == "hull.lattice_points":
            def enumerate_plain(*args, **kwargs):
                wrapped = self.hull.contains
                self.hull.contains = self.plain_contains
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    self.hull.contains = wrapped

            return enumerate_plain
        return wrapper

    def _counter(self, name, fn):
        key = name + ".calls"
        if name == "tropical.tropical_determinant":
            def wrapper(matrix):
                self.add(key)
                self.add("tropical.permutations", factorial(len(matrix)))
                return fn(matrix)
        else:
            def wrapper(*args, **kwargs):
                self.add(key)
                return fn(*args, **kwargs)
        return wrapper

    def _open_classify(self) -> int | None:
        for idx in reversed(self.stack):
            if self.names[idx] == "fiber.classify":
                return idx
        return None

    def _after_lattice_points(self, idx, args, result) -> None:
        self.add("hull.box_candidates", oracle.box_volume([p.coords for p in args[0].points]))
        self.add("hull.points", len(result))
        owner = self._open_classify()
        if owner is not None:
            self.enumerated[owner] = result.points

    def _after_contains(self, idx, args, result) -> None:
        owner = self._open_classify()
        if owner is not None and args[1] in self.enumerated.get(owner, ()):
            self.add("fiber.redundant_contains")

    def _after_classify(self, idx, args, result) -> None:
        self.enumerated.pop(idx, None)
        self.add("fiber.classify.points", len(result))
        self.add("fiber.classify.types", len({desc.profile.argmins for desc in result}))

    def _after_admissible_tuples(self, idx, args, result) -> None:
        d, table, h = args
        caps = [d - 1 - table.by_mask[1 << i] for i in range(table.n)]
        if min(caps) >= 0:
            self.add("multidegree.candidate_tuples", tuples_below(caps, h))
        self.add("multidegree.returned_tuples", len(result))

    def _after_hilbert_function(self, idx, args, result) -> None:
        self.add("multidegree.hilbert_subsets", 2 ** len(args[0].tuples))

    def _after_build_graph(self, idx, args, result) -> None:
        v = len(result.vertices)
        self.add("linked.pairs_checked", v * (v - 1) // 2)
        self.add("linked.edges", len(result.edge_maps) // 2)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, list] = {}
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[idx]
        return out

    def write(self, path) -> None:
        """Save every span as one JSON line: [id, parent, name, start_s, end_s]."""
        base = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for idx, name in enumerate(self.names):
                handle.write(json.dumps([idx, self.parents[idx], name,
                                         round(self.starts[idx] - base, 7),
                                         round(self.ends[idx] - base, 7)]) + "\n")


def layer_metrics(tracer: Tracer, ops: int, stdout_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: every name maps to (value, unit)."""
    t = tracer.totals()
    c = tracer.counts

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def ms(name, part=1):
        return t.get(name, (0, 0.0, 0.0))[part] * 1000.0

    def ratio(a, b):
        return a / b if b else 0.0

    box = c.get("hull.box_candidates", 0)
    candidates = c.get("multidegree.candidate_tuples", 0)
    pairs = c.get("linked.pairs_checked", 0)
    m = {
        "trace.ops": (ops, "count"),
        "hull.lattice_points.ms": (ms("hull.lattice_points"), "ms"),
        "hull.box_candidates": (box, "count"),
        "hull.points": (c.get("hull.points", 0), "count"),
        "hull.accept_ratio": (ratio(c.get("hull.points", 0), box), "ratio"),
        "hull.enumerations_per_op": (ratio(calls("hull.lattice_points"), ops), "1/op"),
        "hull.contains.calls": (calls("hull.contains"), "count"),
        "hull.contains.ms": (ms("hull.contains"), "ms"),
        "fiber.classify.self_ms": (ms("fiber.classify", 2), "ms"),
        "fiber.describe_vertex.self_ms": (ms("fiber.describe_vertex", 2), "ms"),
        "fiber.reduction_profile.calls": (calls("fiber.reduction_profile"), "count"),
        "fiber.reduction_profile.ms": (ms("fiber.reduction_profile"), "ms"),
        "fiber.points_per_type": (
            ratio(c.get("fiber.classify.points", 0), c.get("fiber.classify.types", 0)), "ratio"),
        "fiber.redundant_contains": (c.get("fiber.redundant_contains", 0), "count"),
        "multidegree.intersection_dims.calls": (calls("multidegree.intersection_dims"), "count"),
        "multidegree.intersection_dims.ms": (ms("multidegree.intersection_dims"), "ms"),
        "multidegree.admissible_tuples.calls": (calls("multidegree.admissible_tuples"), "count"),
        "multidegree.admissible_tuples.ms": (ms("multidegree.admissible_tuples"), "ms"),
        "multidegree.dimension_p.ms": (ms("multidegree.dimension_p"), "ms"),
        "multidegree.candidate_tuples": (candidates, "count"),
        "multidegree.admissible_ratio": (
            ratio(c.get("multidegree.returned_tuples", 0), candidates), "ratio"),
        "multidegree.hilbert_function.calls": (calls("multidegree.hilbert_function"), "count"),
        "multidegree.hilbert_subsets": (c.get("multidegree.hilbert_subsets", 0), "count"),
        "tropical.is_general_position.calls": (calls("tropical.is_general_position"), "count"),
        "tropical.tropical_determinant.calls": (c.get("tropical.tropical_determinant.calls", 0), "count"),
        "tropical.permutations": (c.get("tropical.permutations", 0), "count"),
        "linked.pairs_checked": (pairs, "count"),
        "linked.edges": (c.get("linked.edges", 0), "count"),
        "linked.edge_ratio": (ratio(c.get("linked.edges", 0), pairs), "ratio"),
        "apartment.is_adjacent.calls": (c.get("apartment.is_adjacent.calls", 0), "count"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    }
    # Times of functions that only some workloads call: reported in the
    # traced report and summary file, not as metrics of every workload.
    extra = {
        "linked.build_graph.ms": (ms("linked.build_graph"), "ms"),
        "multidegree.hilbert_function.ms": (ms("multidegree.hilbert_function"), "ms"),
        "tropical.is_general_position.ms": (ms("tropical.is_general_position"), "ms"),
        "tropical.singular_square_minor.ms": (ms("tropical.singular_square_minor"), "ms"),
        "cli.load_document.ms": (ms("cli.load_document"), "ms"),
        "cli.report.ms": (ms("cli.classification_report") + ms("cli.hull_report"), "ms"),
        "cli.main.self_ms": (ms("cli.main", 2), "ms"),
    }
    for command in ("classify", "hull", "graph", "gp", "hilbert"):
        extra[f"cli.{command}.ms"] = (ms(f"cli.{command}"), "ms")
    return m, extra

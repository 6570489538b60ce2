"""Command-line front end.

Configurations are read from JSON documents {"d": int, "points": [[int, ...], ...]}
with an optional "label"; points are normalized on ingestion. All reports are
deterministic. Exit codes: 0 success, 2 parse error, 3 domain error,
4 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from functools import cache
from itertools import starmap
from json.encoder import encode_basestring_ascii
from operator import add, mod
from typing import NamedTuple

from . import fiber, hull, linked, oracles, tropical
from .apartment import local_model_chain
from .errors import ContractError, DimensionError, DomainError, InvariantViolationError, ParseError
from .multidegree import hilbert_function, intersection_dims, multidegree_set
from .tropical import Configuration, TorusPoint, normalize

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INVARIANT = 4


def load_document(path: str) -> tuple[Configuration, dict]:
    """Read and validate a configuration document; returns (config, echo dict)."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and over-long integer literals.
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if "d" not in doc or "points" not in doc:
        raise ParseError('document needs keys "d" and "points"')
    d = doc["d"]
    raw_points = doc["points"]
    # JSON true/false decode to bool, a subclass of int: test the exact type.
    if type(d) is not int or not isinstance(raw_points, list):
        raise ParseError('"d" must be an integer and "points" a list of integer vectors')
    for vec in raw_points:
        if not isinstance(vec, list) or not all(type(c) is int for c in vec):
            raise ParseError(f"point {vec!r} is not a list of integers")
    config = tropical.configuration(d, raw_points)
    echo = {"d": d, "points": [list(p.coords) for p in config.points]}
    label = doc.get("label")
    if label is not None:
        if not isinstance(label, str):
            raise ParseError('"label" must be a string')
        echo["label"] = label
    return config, echo


def parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"cannot parse integer vector from {text!r}") from exc


class Classification(NamedTuple):
    """What a classify report shows, computed and checked before its first byte is written."""

    echo: dict
    descriptors: list[fiber.ComponentDescriptor]
    counts: fiber.ComponentCounts
    partition: dict[tuple[int, ...], TorusPoint]
    monomial: bool


def classification_report(config: Configuration, echo: dict) -> Classification:
    descriptors = fiber.classify(config)
    counts = fiber.component_counts(config, descriptors)
    partition = fiber.multidegree_partition(config, descriptors)
    # is_monomial_type is general position, read from the types and checked against the secondary-count law.
    return Classification(echo, descriptors, counts, partition, fiber.is_monomial_type(config, descriptors, counts))


def hull_report(config: Configuration, echo: dict) -> tuple[dict, hull.HullLatticeSet]:
    return echo, hull.lattice_points(config)


def _dump(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with each line break written as ``newline``, to continue at a
    deeper indentation; an encoded string holds no raw newline, so only the encoder's line breaks change."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


def _object(fields: dict[str, str], newline: str) -> str:
    """A JSON object at ``newline`` whose values are rendered already, one level deeper; keys sorted."""
    inner = newline + "  "
    items = [encode_basestring_ascii(k) + ": " + fields[k] for k in sorted(fields)]
    return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"


def _array(items: list[str], newline: str) -> str:
    """A JSON list at ``newline`` of items rendered already, one level deeper."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"


def _ints(k: int, newline: str) -> str:
    """A %-template of ``_dump`` of k integers at ``newline``: ``template % values`` renders them."""
    return _array(["%d"] * k, newline)


# Each item a report repeats is a %-template made once per call, filled by one ``template % coords``; only
# integers and JSON structure go into a template. ITEM, FIELD and ENTRY are the newlines before the items of a
# report's top-level lists, before their fields and before the entries of those fields.
ITEM, FIELD, ENTRY = "\n    ", "\n      ", "\n        "
BOOLS = ("false", "true")


def _stream(report: dict) -> Iterator[str]:
    """``_dump(report)`` and a newline, in chunks; a field holding an iterator lists the items it yields."""
    sep = "{"
    for key in sorted(report):
        yield sep + "\n  " + encode_basestring_ascii(key) + ": "
        sep, value = ",", report[key]
        if not isinstance(value, Iterator):
            yield _dump(value, "\n  ")
            continue
        start = "["
        for item in value:
            yield start + ITEM + item
            start = ","
        yield "[]" if start == "[" else "\n  ]"
    yield "\n}\n"


def classification_chunks(report: Classification) -> Iterator[str]:
    """The classify JSON; a type's item fills one template per call from any descriptor of that type and keeps
    a slot for the vertex, and each distinct argmin set and multidegree tuple is rendered once per call."""
    descs, d, n = report.descriptors, report.echo["d"], len(report.echo["points"])
    keys = [desc.profile.argmins for desc in descs]
    types = dict(zip(keys, descs))
    sets = {J: _ints(len(J), ENTRY) % tuple(sorted(J)) for J in {J for key in types for J in key}}
    tuple_at, per_factor, vertex = _ints(n, ENTRY), _ints(n, FIELD), _ints(d, FIELD)
    tuples = {m: tuple_at % m for m in {m for desc in types.values() for m in desc.multidegrees.tuples}}
    # Slots in sorted key order; the vertex slots are escaped so that they survive the type's fill.
    item = _object({
        "argmins": "%s", "factor_dims": per_factor, "is_component": "%s", "is_primary": "%s",
        "kernel_dims": per_factor, "multidegrees": "%s", "p": "%d", "vertex": vertex.replace("%", "%%")}, ITEM)
    items = {key: item % (
        _array([sets[J] for J in key], FIELD), *desc.factor_dims, BOOLS[desc.is_component],
        BOOLS[desc.is_primary], *[d - 1 - f for f in desc.factor_dims],
        _array([tuples[m] for m in desc.multidegrees.sorted_tuples()], FIELD), desc.p) for key, desc in types.items()}
    points = [desc.vertex for desc in descs]
    entry = _object({"multidegree": per_factor, "vertex": vertex}, ITEM)
    return _stream({
        "config": report.echo,
        "counts": report.counts._asdict(),
        "general_position": report.monomial,
        "hull": map(_ints(d, ITEM).__mod__, points),
        "monomial_type": report.monomial,
        "partition": map(entry.__mod__, starmap(add, sorted(report.partition.items()))),
        "vertices": map(mod, map(items.__getitem__, keys), points),
    })


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(str(cell)) for cell in col) for col in zip(header, *rows)]
    lines = [header, ["-" * w for w in widths], *rows]
    return "\n".join("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)) for row in lines)


def _vec(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def render_classification_table(report: Classification) -> str:
    d = report.echo["d"]
    rows = [
        [_vec(desc.vertex.coords), _vec(desc.factor_dims), _vec(d - 1 - f for f in desc.factor_dims), str(desc.p),
         "yes" if desc.is_component else "no",
         "primary" if desc.is_primary else ("secondary" if desc.is_component else "-"),
         " ".join(_vec(m) for m in desc.multidegrees.sorted_tuples())]
        for desc in report.descriptors
    ]
    header = ["vertex", "factor_dims", "kernel_dims", "p", "component", "kind", "multidegrees"]
    counts, partition = report.counts, sorted(report.partition.items())
    return "\n".join([
        _table(rows, header),
        "",
        f"components: {counts.total} ({counts.primary} primary, {counts.secondary} secondary)",
        f"general position: {report.monomial}; monomial type: {report.monomial}",
        "partition: " + "; ".join(f"{_vec(m)} -> {_vec(v.coords)}" for m, v in partition),
    ])


def cmd_hull(args) -> int:
    echo, points = hull_report(*load_document(args.path))
    if args.format == "table":
        print(_table([[_vec(p.coords)] for p in points], ["hull lattice point"]))
    else:
        sys.stdout.writelines(_stream({"config": echo, "hull": map(_ints(echo["d"], ITEM).__mod__, points)}))
    return EXIT_OK


def cmd_classify(args) -> int:
    report = classification_report(*load_document(args.path))
    if args.format == "table":
        print(render_classification_table(report))
    else:
        sys.stdout.writelines(classification_chunks(report))
    return EXIT_OK


def cmd_hilbert(args) -> int:
    config, _ = load_document(args.path)
    vertex = normalize(parse_vector(args.vertex))
    u = parse_vector(args.u)
    desc = fiber.describe_vertex(config, vertex)
    print(hilbert_function(desc.multidegrees, u))
    return EXIT_OK


def cmd_graph(args) -> int:
    config, echo = load_document(args.path)
    points = hull.lattice_points(config)
    edges = linked.hull_edges(points)
    if args.dot:
        sys.stdout.writelines(line + "\n" for line in linked.dot_lines(config.d, points, edges))
        return EXIT_OK
    end = _ints(config.d, FIELD)

    def edge(forward: tuple[int, ...], backward: tuple[int, ...]) -> str:
        return _object({"backward": end % backward, "forward": end % forward, "u": end, "v": end}, ITEM)

    vertices = map(_ints(config.d, ITEM).__mod__, points)
    sys.stdout.writelines(_stream({"config": echo, "edges": linked.render_edges(edges, edge), "vertices": vertices}))
    return EXIT_OK


def cmd_gp(args) -> int:
    config, echo = load_document(args.path)
    witness = tropical.singular_square_minor(config)
    report: dict = {"config": echo, "general_position": witness is None}
    if witness is not None:
        rows, cols = witness
        report["witness"] = {
            "rows": list(rows),
            "cols": list(cols),
            "minor": [[config.points[i][j] for j in cols] for i in rows],
        }
    print(_dump(report))
    return EXIT_OK


def cmd_local_model(args) -> int:
    config = local_model_chain(args.d)
    print(_dump({"d": args.d, "points": [list(p.coords) for p in config.points]}))
    return EXIT_OK


def cmd_verify(args) -> int:
    config, echo = load_document(args.path)
    checks = []

    descriptors = fiber.classify(config)
    members = frozenset(desc.vertex for desc in descriptors)
    brute = oracles.brute_force_hull(config)
    probes = oracles.all_box_points(config)
    failures = sum(1 for p in probes if hull.contains(config, p) != (p in brute))
    if members != brute:
        failures += 1
    checks.append({"name": "membership_vs_brute_force", "cases": len(probes), "failures": failures})

    det = tropical._minor_determinants([p.coords for p in config.points])
    minors = list(tropical._square_minors(config.n, config.d))
    det_failures = sum(
        det(rs, cs) != oracles.assignment_min_count([[config.points[i][j] for j in cs] for i in rs])
        for rs, cs in minors
    )
    checks.append(
        {"name": "minor_determinants_vs_permutation_scan", "cases": len(minors), "failures": det_failures}
    )

    try:
        fiber.multidegree_partition(config, descriptors)
        checks.append({"name": "multidegree_partition_total", "cases": 1, "failures": 0})
    except InvariantViolationError:
        checks.append({"name": "multidegree_partition_total", "cases": 1, "failures": 1})

    root_failures = sum(
        tuple(oracles.root_maps_by_walk(config, desc.vertex)) != desc.profile.diagonals() for desc in descriptors
    )
    checks.append(
        {"name": "root_maps_vs_reduction_profile", "cases": len(descriptors), "failures": root_failures}
    )

    distinct = {desc.profile.argmins: desc for desc in descriptors}.values()
    scans = [(desc, multidegree_set(config.d, intersection_dims(desc.profile.kernels))) for desc in distinct]
    scan_failures = sum((desc.p, desc.multidegrees) != (scan.p, scan) for desc, scan in scans)
    checks.append({"name": "multidegrees_vs_subset_scan", "cases": len(scans), "failures": scan_failures})

    ok = all(c["failures"] == 0 for c in checks)
    print(_dump({"config": echo, "checks": checks, "ok": ok}))
    return EXIT_OK if ok else EXIT_INVARIANT


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; every ``parse_args`` call starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="mustafin",
        description="Classify special fibers of one-apartment Mustafin degenerations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = {}
    for name, func, help_text in (
        ("hull", cmd_hull, "hull lattice points of a configuration"),
        ("classify", cmd_classify, "full component classification report"),
        ("hilbert", cmd_hilbert, "Hilbert function value of one vertex's variety"),
        ("graph", cmd_graph, "linked graph with diagonal edge maps"),
        ("gp", cmd_gp, "tropical general position test with witness"),
        ("local-model", cmd_local_model, "standard local model chain configuration"),
        ("verify", cmd_verify, "cross-check fast paths against brute-force oracles"),
    ):
        command = p[name] = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        if name != "local-model":
            command.add_argument("path")
    for name in ("hull", "classify"):
        p[name].add_argument("--format", choices=("json", "table"), default="json")
    p["hilbert"].add_argument("--vertex", required=True, help="comma-separated integers, e.g. 0,-1,-4")
    p["hilbert"].add_argument("--u", required=True, help="comma-separated grading vector")
    p["graph"].add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p["local-model"].add_argument("--d", type=int, required=True)
    return parser


def _error_record(code: str, message: str) -> str:
    return json.dumps({"error": {"code": code, "message": message}}, sort_keys=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(_error_record("parse", str(exc)), file=sys.stderr)
        return EXIT_PARSE
    except (DimensionError, ContractError, DomainError) as exc:
        print(_error_record("domain", str(exc)), file=sys.stderr)
        return EXIT_DOMAIN
    except InvariantViolationError as exc:
        print(_error_record("invariant", str(exc)), file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

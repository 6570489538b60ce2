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
from functools import cache
from json.encoder import encode_basestring_ascii

from . import fiber, hull, linked, oracles, tropical
from .apartment import local_model_chain
from .errors import (
    ContractError,
    DimensionError,
    DomainError,
    InvariantViolationError,
    ParseError,
)
from .multidegree import hilbert_function
from .tropical import Configuration, normalize

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


def classification_report(config: Configuration, echo: dict) -> dict:
    descriptors = fiber.classify(config)
    counts = fiber.component_counts(config, descriptors)
    partition = fiber.multidegree_partition(config, descriptors)
    vertices = []
    for desc in descriptors:
        vertices.append(
            {
                "vertex": list(desc.vertex.coords),
                "argmins": [sorted(J) for J in desc.profile.argmins],
                "kernel_dims": [w.dim for w in desc.profile.kernels],
                "factor_dims": list(desc.factor_dims),
                "p": desc.p,
                "is_component": desc.is_component,
                "is_primary": desc.is_primary,
                "multidegrees": [list(m) for m in desc.multidegrees.sorted_tuples()],
            }
        )
    # is_monomial_type is general position, checked against the secondary-count law.
    monomial = fiber.is_monomial_type(config, descriptors)
    return {
        "config": echo,
        "general_position": monomial,
        "monomial_type": monomial,
        "counts": {
            "total": counts.total,
            "primary": counts.primary,
            "secondary": counts.secondary,
        },
        "hull": [list(desc.vertex.coords) for desc in descriptors],
        "vertices": vertices,
        "partition": [
            {"multidegree": list(m), "vertex": list(v.coords)}
            for m, v in sorted(partition.items())
        ],
    }


def hull_report(config: Configuration, echo: dict) -> dict:
    return {
        "config": echo,
        "hull": [list(p.coords) for p in hull.lattice_points(config)],
    }


def _dump(obj, newline: str = "\n") -> str:
    """Same bytes as ``json.dumps(obj, indent=2, sort_keys=True)``, whose ``indent`` runs pure Python."""
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(k) + ": " + _dump(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if obj else "{}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    # bool is a subclass of int but prints as true/false: test the exact type.
    items = map(str, obj) if all(type(v) is int for v in obj) else [_dump(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + newline + "]" if obj else "[]"


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(str(cell)) for cell in col) for col in zip(header, *rows)]
    lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _vec(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def render_classification_table(report: dict) -> str:
    rows = []
    for entry in report["vertices"]:
        rows.append(
            [
                _vec(entry["vertex"]),
                _vec(entry["factor_dims"]),
                _vec(entry["kernel_dims"]),
                str(entry["p"]),
                "yes" if entry["is_component"] else "no",
                "primary" if entry["is_primary"] else ("secondary" if entry["is_component"] else "-"),
                " ".join(_vec(m) for m in entry["multidegrees"]),
            ]
        )
    header = ["vertex", "factor_dims", "kernel_dims", "p", "component", "kind", "multidegrees"]
    counts = report["counts"]
    lines = [
        _table(rows, header),
        "",
        f"components: {counts['total']} ({counts['primary']} primary, {counts['secondary']} secondary)",
        f"general position: {report['general_position']}; monomial type: {report['monomial_type']}",
        "partition: "
        + "; ".join(
            f"{_vec(entry['multidegree'])} -> {_vec(entry['vertex'])}"
            for entry in report["partition"]
        ),
    ]
    return "\n".join(lines)


def cmd_hull(args) -> int:
    config, echo = load_document(args.path)
    report = hull_report(config, echo)
    if args.format == "table":
        rows = [[_vec(p)] for p in report["hull"]]
        print(_table(rows, ["hull lattice point"]))
    else:
        print(_dump(report))
    return EXIT_OK


def cmd_classify(args) -> int:
    config, echo = load_document(args.path)
    report = classification_report(config, echo)
    if args.format == "table":
        print(render_classification_table(report))
    else:
        print(_dump(report))
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
    graph = linked.build_graph(config)
    if args.dot:
        print(linked.graph_to_dot(graph))
        return EXIT_OK
    report = {
        "config": echo,
        "vertices": [list(v.coords) for v in graph.vertices],
        "edges": [
            {
                "u": list(u.coords),
                "v": list(v.coords),
                "forward": list(graph.diagonal(u, v)),
                "backward": list(graph.diagonal(v, u)),
            }
            for u, v in graph.edges
        ],
    }
    print(_dump(report))
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
        tuple(linked._root_maps(config, desc.vertex)) != desc.profile.diagonals() for desc in descriptors
    )
    checks.append(
        {"name": "root_maps_vs_reduction_profile", "cases": len(descriptors), "failures": root_failures}
    )

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

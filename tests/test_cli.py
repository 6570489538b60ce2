import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from mustafin import Configuration, MultidegreeSet, fiber, hull, linked, oracles, tropical
from mustafin.cli import _dump, load_document, main
from mustafin.errors import InvariantViolationError
from strategies import configurations, point_pairs

TRIPLE = {"d": 3, "points": [[0, -1, -2], [0, -2, -4], [0, -3, -6]], "label": "chain"}
PAIR = {"d": 3, "points": [[0, 0, 0], [0, 1, 1]]}
TEN = {
    "d": 4,
    "points": [
        [0, -1, -1, -1], [0, -1, -1, 1], [0, 1, -1, 0], [0, 1, 0, 1], [0, 1, 1, -1],
        [0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, -1], [0, -1, 1, -1], [0, 0, 0, 0],
    ],
}


@pytest.fixture
def triple_doc(tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(TRIPLE))
    return str(path)


@pytest.fixture
def pair_doc(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(PAIR))
    return str(path)


KEYS = st.one_of(st.sampled_from(["", "é", "\u2603", '"', "\\", "\n", "\x00\x1f", "a\tb"]), st.text())
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.text(),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.lists(inner).map(tuple),
        st.dictionaries(KEYS, inner),
    ),
    max_leaves=30,
)


@given(JSON_VALUES)
@example([True, False, None, 0, "x"])
@example({"b": 1, "a": [2, "\n"]})
@settings(max_examples=300, deadline=None)
def test_dump_equals_the_json_encoder(value):
    assert _dump(value) == json.dumps(value, indent=2, sort_keys=True)
    # At the newline "\n  " a value continues as the encoder writes it one level down, under a key.
    assert '{\n  "k": ' + _dump(value, "\n  ") + "\n}" == json.dumps({"k": value}, indent=2, sort_keys=True)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def failed_checks(capsys, doc):
    """Failures per check of a ``verify`` run that must exit 4 with ok false."""
    code, out, _ = run(capsys, ["verify", doc])
    assert code == 4
    report = json.loads(out)
    assert report["ok"] is False
    return {c["name"]: c["failures"] for c in report["checks"]}


class TestClassify:
    def test_json_report(self, capsys, triple_doc):
        code, out, _ = run(capsys, ["classify", triple_doc])
        assert code == 0
        report = json.loads(out)
        assert report["counts"] == {"total": 6, "primary": 3, "secondary": 3}
        assert report["general_position"] is True
        assert report["monomial_type"] is True
        assert len(report["hull"]) == 6
        assert len(report["partition"]) == 6
        assert report["config"]["label"] == "chain"

    def test_deterministic_output(self, capsys, triple_doc):
        _, first, _ = run(capsys, ["classify", triple_doc])
        _, second, _ = run(capsys, ["classify", triple_doc])
        assert first == second

    def test_json_round_trip(self, capsys, triple_doc):
        _, out, _ = run(capsys, ["classify", triple_doc])
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_table_format(self, capsys, pair_doc):
        code, out, _ = run(capsys, ["classify", pair_doc, "--format", "table"])
        assert code == 0
        assert "components: 2 (2 primary, 0 secondary)" in out
        assert "(0,1,1)" in out


class TestHull:
    def test_hull_fragment(self, capsys, pair_doc):
        code, out, _ = run(capsys, ["hull", pair_doc])
        assert code == 0
        report = json.loads(out)
        assert report["hull"] == [[0, 0, 0], [0, 1, 1]]

    def test_wide_pair_is_enumerated_without_the_box(self, tmp_path):
        # The box of this pair holds about 10^10 points and its hull 200,001.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"d": 3, "points": [[0, 0, 0], [0, 100000, -100000]]}))
        paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        result = subprocess.run(
            [sys.executable, "-m", "mustafin.cli", "hull", str(path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert result.returncode == 0, result.stderr
        points = json.loads(result.stdout)["hull"]
        assert len(points) == 200_001
        assert [0, 0, 0] in points and [0, 100000, -100000] in points
        assert points == sorted(points)


class TestHilbert:
    def test_normalization_at_origin(self, capsys, pair_doc):
        code, out, _ = run(capsys, ["hilbert", pair_doc, "--vertex", "0,1,1", "--u", "0,0"])
        assert code == 0
        assert out.strip() == "1"

    def test_worked_value(self, capsys, pair_doc):
        code, out, _ = run(capsys, ["hilbert", pair_doc, "--vertex", "0,1,1", "--u", "1,1"])
        assert code == 0
        assert out.strip() == "5"

    def test_vertex_outside_hull_is_domain_error(self, capsys, pair_doc):
        code, _, err = run(capsys, ["hilbert", pair_doc, "--vertex", "0,2,5", "--u", "0,0"])
        assert code == 3
        error = json.loads(err)["error"]
        assert error == {"code": "domain", "message": "(0, 2, 5) is not in the hull of the configuration"}

    def test_large_multidegree_set(self, capsys, tmp_path):
        # |M(p)| = 69 at the origin; inclusion-exclusion over M(p) restricted to supp(u) gives 75
        path = tmp_path / "ten.json"
        path.write_text(json.dumps(TEN))
        u = "1,0,2,1,0,0,1,0,0,3"
        code, out, _ = run(capsys, ["hilbert", str(path), "--vertex", "0,0,0,0", "--u", u])
        assert (code, out) == (0, "75\n")

    def test_unparsable_vertex(self, capsys, pair_doc):
        code, _, err = run(capsys, ["hilbert", pair_doc, "--vertex", "0,x,1", "--u", "0,0"])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "parse"


class TestGraph:
    def test_json_graph(self, capsys, pair_doc):
        code, out, _ = run(capsys, ["graph", pair_doc])
        assert code == 0
        report = json.loads(out)
        assert report["vertices"] == [[0, 0, 0], [0, 1, 1]]
        assert report["edges"] == [
            {"u": [0, 0, 0], "v": [0, 1, 1], "forward": [1, 0, 0], "backward": [0, 1, 1]}
        ]

    def test_dot_graph(self, capsys, pair_doc):
        code, out, _ = run(capsys, ["graph", pair_doc, "--dot"])
        assert code == 0
        assert out.startswith("graph hull {")
        assert "--" in out and "label=" in out


class TestGeneralPosition:
    def test_generic(self, capsys, triple_doc):
        code, out, _ = run(capsys, ["gp", triple_doc])
        assert code == 0
        assert json.loads(out) == {
            "config": {"d": 3, "points": TRIPLE["points"], "label": "chain"},
            "general_position": True,
        }

    def test_witness_on_failure(self, capsys, pair_doc):
        code, out, _ = run(capsys, ["gp", pair_doc])
        assert code == 0
        report = json.loads(out)
        assert report["general_position"] is False
        assert report["witness"] == {"rows": [0, 1], "cols": [1, 2], "minor": [[0, 0], [1, 1]]}


class TestLocalModel:
    def test_dimension_three_document(self, capsys):
        code, out, _ = run(capsys, ["local-model", "--d", "3"])
        assert code == 0
        assert json.loads(out) == {"d": 3, "points": [[0, 0, 0], [0, 1, 1], [0, 0, 1]]}

    def test_rejects_tiny_dimension(self, capsys):
        code, _, err = run(capsys, ["local-model", "--d", "1"])
        assert code == 3
        assert json.loads(err)["error"]["code"] == "domain"


class TestVerify:
    def test_all_checks_pass(self, capsys, triple_doc):
        code, out, _ = run(capsys, ["verify", triple_doc])
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert {c["name"] for c in report["checks"]} == {
            "membership_vs_brute_force",
            "minor_determinants_vs_permutation_scan",
            "multidegree_partition_total",
            "root_maps_vs_reduction_profile",
            "multidegrees_vs_subset_scan",
        }
        assert all(c["failures"] == 0 for c in report["checks"])

    def test_determinant_check_covers_every_minor_of_the_document(self, capsys, tmp_path):
        path = tmp_path / "ten.json"
        path.write_text(json.dumps(TEN))
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        # 10 x 4 matrix: C(10,r) * C(4,r) minors of each size r = 2, 3, 4
        assert checks["minor_determinants_vs_permutation_scan"]["cases"] == 45 * 6 + 120 * 4 + 210

    def test_seeded_determinant_defect_fails_the_check(self, capsys, triple_doc, monkeypatch):
        real = tropical._minor_determinants

        def defective(rows):
            det = real(rows)

            def wrong(rs, cs):
                value, count = det(rs, cs)
                return value, count + ((rs, cs) == ((0, 1), (0, 1)))

            return wrong

        monkeypatch.setattr(tropical, "_minor_determinants", defective)
        failures = failed_checks(capsys, triple_doc)
        assert failures["minor_determinants_vs_permutation_scan"] == 1
        assert sum(failures.values()) == 1

    def test_seeded_membership_defect_fails_the_check(self, capsys, triple_doc, monkeypatch):
        real, flipped = hull.contains, tropical.normalize(TRIPLE["points"][0])
        monkeypatch.setattr(hull, "contains", lambda config, x: real(config, x) != (x == flipped))
        failures = failed_checks(capsys, triple_doc)
        assert failures["membership_vs_brute_force"] == 1
        assert sum(failures.values()) == 1

    def test_seeded_partition_defect_fails_the_check(self, capsys, triple_doc, monkeypatch):
        real = fiber.classify

        def repeated(config):
            descriptors = real(config)
            return descriptors + [next(desc for desc in descriptors if desc.is_component)]

        monkeypatch.setattr(fiber, "classify", repeated)
        failures = failed_checks(capsys, triple_doc)
        assert failures["multidegree_partition_total"] == 1
        assert sum(failures.values()) == 1

    def test_seeded_root_map_defect_fails_the_check(self, capsys, triple_doc, monkeypatch):
        real = linked.step_diagonal

        def flipped(u, v):
            diagonal = real(u, v)
            return (1 - diagonal[0],) + diagonal[1:]

        monkeypatch.setattr(linked, "step_diagonal", flipped)
        failures = failed_checks(capsys, triple_doc)
        assert failures.pop("root_maps_vs_reduction_profile") > 0
        assert sum(failures.values()) == 0

    def test_seeded_closed_form_defect_fails_the_check(self, capsys, triple_doc, monkeypatch):
        real = fiber.type_multidegrees

        def off_by_one(profile):
            mset = real(profile)
            if mset.p != sum(mask.bit_count() - 1 for mask in profile.masks):  # a cycle: the subset scan
                return mset
            ((first, *rest),) = mset.tuples
            return MultidegreeSet(mset.p + 1, frozenset([(first + 1, *rest)]))

        monkeypatch.setattr(fiber, "type_multidegrees", off_by_one)
        code, out, _ = run(capsys, ["verify", triple_doc])
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        scan = checks.pop("multidegrees_vs_subset_scan")
        assert code == 4 and scan["failures"] == scan["cases"] > 0
        assert checks.pop("multidegree_partition_total")["failures"] == 1
        assert all(c["failures"] == 0 for c in checks.values())


# Each raised UnicodeDecodeError, RecursionError or ValueError out of ``json.load``.
UNDECODABLE = {
    "not_utf8": b'\xff\xfe{"d":2}',
    "deep_array": b"[" * 100_000 + b"]" * 100_000,
    "long_integer": b'{"d": 2, "points": [[0, ' + b"9" * 5001 + b"]]}",
}


class TestErrorHandling:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["classify", str(tmp_path / "nope.json")])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "parse"

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["classify", str(path)])
        assert code == 2

    def test_missing_keys(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"d": 3}))
        code, _, err = run(capsys, ["classify", str(path)])
        assert code == 2

    def test_duplicate_points_are_domain_error(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"d": 3, "points": [[0, 1, 1], [1, 2, 2]]}))
        code, _, err = run(capsys, ["classify", str(path)])
        assert code == 3
        assert json.loads(err)["error"]["code"] == "domain"

    def test_non_integer_points_are_parse_error(self, capsys, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text(json.dumps({"d": 3, "points": [[0, 0.5, 1]]}))
        code, _, _ = run(capsys, ["classify", str(path)])
        assert code == 2

    def test_boolean_coordinates_are_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bool_point.json"
        path.write_text(json.dumps({"d": 3, "points": [[True, 0, 1], [0, 2, 2]]}))
        code, out, err = run(capsys, ["hull", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["code"] == "parse"

    def test_boolean_dimension_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bool_d.json"
        path.write_text(json.dumps({"d": True, "points": [[0, 1], [0, 2]]}))
        code, out, err = run(capsys, ["hull", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["code"] == "parse"

    def test_invariant_violation_is_one_invariant_record(self, capsys, triple_doc, monkeypatch):
        # p one above the sum of the factor dimensions reads as a cycle in every type of the generic triple.
        classify = fiber.classify
        monkeypatch.setattr(fiber, "classify", lambda config: [replace(d, p=d.p + 1) for d in classify(config)])
        code, out, err = run(capsys, ["classify", triple_doc])
        assert (code, out) == (4, "")
        [record] = err.splitlines()
        assert json.loads(record)["error"]["code"] == "invariant"

    @pytest.mark.parametrize("extra", [[], ["--format", "table"]], ids=["json", "table"])
    def test_failed_partition_check_leaves_stdout_empty(self, capsys, triple_doc, monkeypatch, extra):
        def failing(config, descriptors=None):
            raise InvariantViolationError("multidegree partition is not total")

        monkeypatch.setattr(fiber, "multidegree_partition", failing)
        code, out, err = run(capsys, ["classify", triple_doc, *extra])
        assert (code, out) == (4, "")
        [record] = err.splitlines()
        assert json.loads(record)["error"]["code"] == "invariant"

    @pytest.mark.parametrize("name", sorted(UNDECODABLE))
    def test_undecodable_document_is_one_parse_record(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_bytes(UNDECODABLE[name])
        paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        result = subprocess.run(
            [sys.executable, "-m", "mustafin.cli", "hull", str(path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert (result.returncode, result.stdout) == (2, ""), result.stderr
        assert "Traceback" not in result.stderr
        [record] = result.stderr.splitlines()
        assert json.loads(record)["error"]["code"] == "parse"


COORDS = st.integers(min_value=-3, max_value=3)


@st.composite
def valid_documents(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    points = draw(st.lists(st.lists(COORDS, min_size=d, max_size=d), min_size=1, max_size=4))
    return {"d": d, "points": points}


MALFORMED_FIELDS = st.one_of(JSON_VALUES, st.lists(st.lists(st.one_of(COORDS, st.booleans(), st.floats()))))
DOCUMENTS = st.one_of(
    st.binary(max_size=40),
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    valid_documents().map(lambda doc: json.dumps(doc).encode()),
    st.fixed_dictionaries(
        {},
        optional={"d": st.one_of(st.integers(-2, 5), MALFORMED_FIELDS), "points": MALFORMED_FIELDS, "label": JSON_VALUES},
    ).map(lambda doc: json.dumps(doc).encode()),
    st.tuples(valid_documents(), st.sampled_from(["d", "points", "label"]), JSON_VALUES).map(
        lambda case: json.dumps({**case[0], case[1]: case[2]}).encode()
    ),
)


@given(DOCUMENTS)
@settings(max_examples=150, deadline=None)
def test_main_ends_every_document_in_an_exit_code(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(content)
    for command in ("hull", "classify", "graph", "gp", "verify"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        assert code in (0, 2, 3), (command, err.getvalue())
        records = err.getvalue().splitlines()
        assert len(records) <= 1 and (code == 0) == (records == []), (command, records)
        if records:
            assert set(json.loads(records[0])) == {"error"}


# Generic and degenerate configurations, single points (no edges, so empty lists), pairs of any distance and
# configurations with multi-digit negative coordinates.
REPORT_CONFIGS = st.one_of(
    configurations(min_d=2, max_d=4, min_n=1, max_n=1, lo=-3, hi=3),
    configurations(min_d=2, max_d=4, min_n=2, max_n=4, lo=-3, hi=3),
    point_pairs(min_d=2, max_d=4)
    .flatmap(lambda pair: st.sampled_from([pair[:1], pair]))
    .map(lambda points: Configuration(len(points[0]), points)),
    configurations(min_d=2, max_d=3, min_n=1, max_n=2, lo=-150, hi=-10),
)
LABELS = st.one_of(
    st.sampled_from(['say "hi"', "\u00e9t\u00e9 \u2603", '\\"\u00e9\n\t', "100% %d %s %(x)s %%"]), st.text()
)


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def vec(values):
    return "(" + ",".join(map(str, values)) + ")"


def layout(header, rows):
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines = [header, ["-" * w for w in widths], *rows]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in lines) + "\n"


def classification_table(tree):
    """What ``classify --format table`` shows, read from the oracle's tree."""
    rows = []
    for entry in tree["vertices"]:
        kind = "primary" if entry["is_primary"] else "secondary" if entry["is_component"] else "-"
        rows.append([vec(entry["vertex"]), vec(entry["factor_dims"]), vec(entry["kernel_dims"]), str(entry["p"]),
                     "yes" if entry["is_component"] else "no", kind, " ".join(map(vec, entry["multidegrees"]))])
    header = ["vertex", "factor_dims", "kernel_dims", "p", "component", "kind", "multidegrees"]
    counts, pairs = tree["counts"], [f"{vec(e['multidegree'])} -> {vec(e['vertex'])}" for e in tree["partition"]]
    return layout(header, rows) + (
        f"\ncomponents: {counts['total']} ({counts['primary']} primary, {counts['secondary']} secondary)\n"
        f"general position: {tree['general_position']}; monomial type: {tree['monomial_type']}\n"
        f"partition: {'; '.join(pairs)}\n"
    )


def assert_same_text(got, want, what):
    """``got == want``; a mismatch names its first differing line, where pytest's diff of two whole reports
    takes minutes on every failing example hypothesis tries."""
    if got != want:
        k, pair = next((k, pair) for k, pair in enumerate(zip_longest(got.splitlines(), want.splitlines()))
                       if pair[0] != pair[1])
        pytest.fail(f"{what}: line {k + 1} is {pair[0]!r}, expected {pair[1]!r}")


@given(REPORT_CONFIGS, LABELS)
@settings(max_examples=60, deadline=None)
def test_reports_are_the_oracle_trees_rendered(tmp_path_factory, config, label):
    path = tmp_path_factory.mktemp("report") / "doc.json"
    points = [list(p.coords) for p in config.points]
    path.write_text(json.dumps({"d": config.d, "points": points, "label": label}))
    doc = str(path)
    config, echo = load_document(doc)
    builders = {"classify": oracles.classification_tree, "hull": oracles.hull_tree, "graph": oracles.graph_tree}
    trees = {command: build(config, echo) for command, build in builders.items()}
    for command, tree in trees.items():
        assert_same_text(stdout_of([command, doc]), json.dumps(tree, indent=2, sort_keys=True) + "\n", command)
    assert_same_text(stdout_of(["classify", doc, "--format", "table"]), classification_table(trees["classify"]),
                     "classify table")
    scanned = linked.LinkedGraph(config.d, hull.lattice_points(config).ordered, oracles.edge_maps_by_pair_scan(config))
    assert_same_text(stdout_of(["graph", doc, "--dot"]), linked.graph_to_dot(scanned) + "\n", "graph --dot")
    hull_rows = [[vec(point)] for point in trees["hull"]["hull"]]
    assert_same_text(stdout_of(["hull", doc, "--format", "table"]), layout(["hull lattice point"], hull_rows),
                     "hull table")


def test_argmin_sets_print_sorted_where_a_set_iterates_out_of_order(tmp_path):
    # At (0,...,0) the second generator's argmin set is {1, 8}, which iterates as 8, 1: coordinate 8 takes
    # slot 0 of an 8-slot hash table. Below d = 8 small argmin sets iterate in sorted order.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"d": 8, "points": [[0] * 8, [0, 1, 1, 1, 1, 1, 1, 0]]}))
    config, echo = load_document(str(path))
    assert list(fiber.classify(config)[0].profile.argmins[1]) == [8, 1]
    tree = oracles.classification_tree(config, echo)
    assert stdout_of(["classify", str(path)]) == json.dumps(tree, indent=2, sort_keys=True) + "\n"

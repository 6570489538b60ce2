"""Each value is computed once per call.

``lattice_points`` makes no membership test, points it has just enumerated are not tested for hull
membership again, a CLI classification report enumerates the hull once and reads general position from the
argmin types without evaluating a minor, ``graph`` and ``graph --dot`` stream their edges from the hull walk
and build no edge maps, a CLI ``classify`` counts components once, and ``verify`` classifies once.
``classify`` and ``locate_by_multidegree`` read the argmin sets the enumeration carries, and ``classify``
builds each distinct argmin set's frozenset once, no kernel, and one reduction profile and one M(p) per argmin
type, shared by the type's descriptors; on a generic configuration it scans no subsets and builds a type's d_I
table only when a descriptor reads it, once per type. ``classify``, ``graph`` and ``hull`` never build the hull's point
set. ``reduction_profile``, ``describe_vertex`` and ``skeleton_signature`` compute a point's argmin masks
once and make no separate membership test, and a ``MultidegreeSet`` builds its down-closure once. The counts
come from wrapping the functions at every ``mustafin`` module attribute that holds them. ``main`` builds its
parser once per process, and a call's options do not leak into the next call.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path
from random import Random

import mustafin.cli as cli
import mustafin.fiber as fiber
import mustafin.hull as hull
import mustafin.linked as linked
import mustafin.multidegree as multidegree
import mustafin.oracles as oracles
import mustafin.tropical as tropical
from mustafin.sampling import random_configuration, random_general_position_configuration
from test_golden import COMMANDS, DOCS, cli_stdout, recording

CONFIG = random_configuration(Random(1), 4, 4, -6, 6)
GENERIC = random_general_position_configuration(Random(1), 4, 5, -6, 6)
WIDE_PAIR = tropical.configuration(3, [(0, 0, 0), (0, 100000, -100000)])


def patch_everywhere(monkeypatch, original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "mustafin" or name.startswith("mustafin."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def record_calls(monkeypatch, func):
    log = []

    def wrapper(*args, **kwargs):
        log.append(args)
        return func(*args, **kwargs)

    patch_everywhere(monkeypatch, func, wrapper)
    return log


def membership_tests_outside_scan(monkeypatch):
    """Log of the points passed to ``contains`` anywhere but inside ``lattice_points``."""
    contains, lattice_points = hull.contains, hull.lattice_points
    depth = [0]
    log = []

    def counted(config, x):
        if not depth[0]:
            log.append(x)
        return contains(config, x)

    def scan(config):
        depth[0] += 1
        try:
            return lattice_points(config)
        finally:
            depth[0] -= 1

    patch_everywhere(monkeypatch, contains, counted)
    patch_everywhere(monkeypatch, lattice_points, scan)
    return log


def test_enumeration_makes_no_membership_test(monkeypatch):
    membership_tests = record_calls(monkeypatch, hull.contains)
    for config in (CONFIG, WIDE_PAIR):
        hull.lattice_points(config)
        assert membership_tests == []


def test_classify_tests_no_enumerated_point_again(monkeypatch):
    log = membership_tests_outside_scan(monkeypatch)
    descriptors = fiber.classify(CONFIG)
    assert len(descriptors) == len(hull.lattice_points(CONFIG))
    assert log == []


def test_locate_by_multidegree_tests_membership_only_in_the_scan(monkeypatch):
    log = membership_tests_outside_scan(monkeypatch)
    for m in ((3, 0, 0, 0), (1, 1, 1, 0), (0, 1, 0, 2)):
        hull.locate_by_multidegree(CONFIG, m)
    assert log == []


def test_classify_and_locate_read_the_carried_argmin_sets(monkeypatch):
    argmin_scans = record_calls(monkeypatch, hull._argmin_masks)
    fiber.classify(CONFIG)
    for m in ((3, 0, 0, 0), (1, 1, 1, 0), (0, 1, 0, 2)):
        hull.locate_by_multidegree(CONFIG, m)
    assert argmin_scans == []


def test_single_points_compute_their_argmin_masks_once(monkeypatch):
    argmin_scans = record_calls(monkeypatch, hull._argmin_masks)
    membership_tests = record_calls(monkeypatch, hull.contains)
    v = hull.lattice_points(CONFIG).ordered[7]
    for single_point in (fiber.reduction_profile, fiber.describe_vertex, hull.skeleton_signature):
        argmin_scans.clear()
        single_point(CONFIG, v)
        assert argmin_scans == [(CONFIG, v)], single_point
    assert membership_tests == []


def test_hilbert_builds_the_down_closure_once_per_set(monkeypatch):
    closure = vars(multidegree.MultidegreeSet)["_down_closure"]
    build, builds = closure.func, []

    def counted(mset):
        builds.append(mset)
        return build(mset)

    monkeypatch.setattr(closure, "func", counted)
    mset = fiber.describe_vertex(CONFIG, hull.lattice_points(CONFIG).ordered[7]).multidegrees
    copy = multidegree.MultidegreeSet(mset.p, mset.tuples)
    for u in ((0,) * CONFIG.n, (1, 2, 0, 3), (4, 0, 1, 1)):
        assert multidegree.hilbert_function(mset, u) == multidegree.hilbert_function(copy, u)
    assert len(builds) == 2 and builds[0] is mset and builds[1] is copy
    assert mset == copy and hash(mset) == hash(copy) and repr(mset) == repr(copy)


def test_classify_builds_each_argmin_set_and_each_type_once(monkeypatch):
    points = hull.lattice_points(CONFIG)
    types = {hull._argmin_masks(CONFIG, v) for v in points}
    sets = {mask for masks in types for mask in masks}
    kernels = []
    post_init = multidegree.CoordinateSubspace.__post_init__

    def counted(self):
        kernels.append(self)
        post_init(self)

    monkeypatch.setattr(multidegree.CoordinateSubspace, "__post_init__", counted)
    profiles = record_calls(monkeypatch, fiber.ReductionProfile)
    merge_passes = record_calls(monkeypatch, fiber.type_multidegrees)
    descriptors = fiber.classify(CONFIG)
    assert kernels == []
    assert len({id(J) for desc in descriptors for J in desc.profile.argmins}) == len(sets) < len(points) * CONFIG.n
    assert len(profiles) == len(merge_passes) == len(types) < len(points)
    first_of_type = {}
    for desc in descriptors:
        first = first_of_type.setdefault(desc.profile.argmins, desc)
        assert desc.profile is first.profile and desc.table is first.table


def test_generic_classify_scans_no_subsets_and_reads_each_table_once_per_type(monkeypatch):
    tables = record_calls(monkeypatch, multidegree._kernel_table)
    scans = record_calls(monkeypatch, multidegree.admissible_tuples)
    descriptors = fiber.classify(GENERIC)
    assert tables == [] and scans == []
    first_of_type = {}
    for desc in descriptors:
        assert desc.table is first_of_type.setdefault(desc.profile.argmins, desc).table
    assert len(tables) == len(first_of_type) < len(descriptors)
    assert all(desc.table == multidegree.intersection_dims(desc.profile.kernels) for desc in descriptors)
    assert scans == []


def test_points_of_one_type_share_their_table_and_multidegrees():
    descriptors = fiber.classify(CONFIG)
    first_of_type = {}
    for desc in descriptors:
        assert desc == fiber.describe_vertex(CONFIG, desc.vertex)
        first = first_of_type.setdefault(desc.profile.argmins, desc)
        assert (desc.table, desc.p, desc.multidegrees) == (first.table, first.p, first.multidegrees)
        assert desc.table is first.table and desc.multidegrees is first.multidegrees
    assert len(first_of_type) < len(descriptors)


def test_classify_graph_and_hull_never_build_the_point_set(monkeypatch):
    enumerate_hull, hulls = hull.lattice_points, []

    def kept(config):
        hulls.append(enumerate_hull(config))
        return hulls[-1]

    patch_everywhere(monkeypatch, enumerate_hull, kept)
    for doc in DOCS:
        for name, (command, _) in COMMANDS.items():
            if command in ("classify", "graph", "hull"):
                assert cli_stdout(doc, name) == recording(doc, name).read_bytes(), (doc, name)
    assert len(hulls) == 6 * len(DOCS)
    assert not any("points" in vars(found) for found in hulls)


def test_classification_report_enumerates_once_and_evaluates_no_minor(monkeypatch):
    generic = {config: tropical.is_general_position(config) for config in (CONFIG, GENERIC)}
    enumerations = record_calls(monkeypatch, hull.lattice_points)
    position_tests = record_calls(monkeypatch, tropical.is_general_position)
    minor_scans = record_calls(monkeypatch, tropical._minor_determinants)
    for config in (CONFIG, GENERIC):
        enumerations.clear()
        assert cli.classification_report(config, {"d": config.d}).monomial == generic[config] == (config is GENERIC)
        assert len(enumerations) == 1
    assert position_tests == [] and minor_scans == []


def test_graph_streams_its_edges_and_builds_no_edge_maps(monkeypatch):
    builds = record_calls(monkeypatch, linked.build_graph)
    graphs = record_calls(monkeypatch, linked.LinkedGraph)
    for doc in DOCS:
        for name in ("graph", "graph-dot"):
            assert cli_stdout(doc, name) == recording(doc, name).read_bytes(), (doc, name)
    assert builds == [] and graphs == []


def test_classify_counts_components_once(monkeypatch):
    doc = str(Path(__file__).parent / "golden" / "random_generic.json")
    passes = record_calls(monkeypatch, fiber.component_counts)
    for extra in ([], ["--format", "table"]):
        passes.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["classify", doc, *extra]) == 0
        assert len(passes) == 1


def test_verify_enumerates_once_and_tests_only_the_box(monkeypatch):
    doc = Path(__file__).parent / "golden" / "random_generic.json"
    config, _ = cli.load_document(str(doc))
    membership_tests = membership_tests_outside_scan(monkeypatch)
    enumerations = record_calls(monkeypatch, hull.lattice_points)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", str(doc)]) == 0
    assert len(enumerations) == 1
    assert len(membership_tests) == len(oracles.all_box_points(config)) == 294


def test_main_builds_the_parser_once_per_process(monkeypatch):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "mustafin":
            builds.append(kwargs)
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    doc = str(DOCS["unit_step_pair"])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["hull", doc], ["classify", doc, "--format", "table"], ["gp", doc], ["hull", doc]):
            assert cli.main(argv) == 0
    assert len(builds) == 1


def test_shared_parser_carries_no_option_into_the_next_call():
    for doc in DOCS:
        for command in ("classify-table", "classify", "graph-dot", "graph", "hull-table", "hull", "classify-table"):
            assert cli_stdout(doc, command) == recording(doc, command).read_bytes(), (doc, command)

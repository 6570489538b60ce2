#!/usr/bin/env python3
"""Committed mutation checks: every mutant in the table must fail its tests.

Each row of MUTANTS holds a file, an old text that occurs exactly once in it,
the new text that replaces it, and a pytest selector. For each row the script
copies ``src/`` and ``tests/`` to a temporary directory, applies the mutant
there and runs the selector in a subprocess. The mutant is killed when pytest
reports failing tests. The script exits 1 if a mutant survives, if its selector
does not run (a collection or usage error), or if an old text is missing or
occurs more than once, so a refactor has to update the table rather than drop
a row silently.

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
]


def run_mutant(file: str, old: str, new: str, selector: str) -> str:
    """'killed', 'survived', or the reason the row could not be run."""
    text = (ROOT / file).read_text()
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times"
    with tempfile.TemporaryDirectory() as tmp:
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, Path(tmp, tree), ignore=shutil.ignore_patterns("__pycache__"))
        Path(tmp, file).write_text(text.replace(old, new))
        paths = [str(Path(tmp, "src")), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", selector],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    # pytest exits 0 when every test passed and 1 when some failed; anything else did not run.
    return {0: "survived", 1: "killed"}.get(result.returncode, f"pytest exited {result.returncode}")


def main() -> int:
    failed = 0
    for file, old, new, selector in MUTANTS:
        outcome = run_mutant(file, old, new, selector)
        failed += outcome != "killed"
        print(f"{outcome}: {file}: {old.strip()!r} -> {new.strip()!r} [{selector}]", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

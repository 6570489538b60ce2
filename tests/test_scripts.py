"""The experiment scripts run to completion and report their checks."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=120
    )


def test_survey_counts():
    result = run_script("survey_counts.py", "--trials", "20")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "count-law violations among generic samples: 0" in lines
    assert "multidegree partition: total and disjoint on every sample" in lines


def test_worked_examples():
    result = run_script("worked_examples.py")
    assert result.returncode == 0, result.stderr


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_mutants_runs_one_row_end_to_end():
    mutants = load_mutants()
    assert mutants.run_mutant(*mutants.MUTANTS[2]) == "killed"


def test_every_mutant_old_text_occurs_once():
    mutants = load_mutants()
    for file, old, new, _ in mutants.MUTANTS:
        assert old != new
        assert (mutants.ROOT / file).read_text().count(old) == 1, (file, old)

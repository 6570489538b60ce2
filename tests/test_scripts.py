"""The experiment scripts run to completion and report their checks."""

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

"""Byte-for-byte CLI stdout on fixed documents against recorded outputs.

The documents are the two files in ``sample_configs/`` and two seeded
``random_configuration`` documents in ``tests/golden/`` (their labels name
the draw), one in tropical general position and one not. The recordings
guard refactors that must leave every report unchanged. After an intended
change of output, rewrite them with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from mustafin.cli import main

GOLDEN = Path(__file__).parent / "golden"
SAMPLES = Path(__file__).parent.parent / "sample_configs"

DOCS = {
    "collinear_triple": SAMPLES / "collinear_triple.json",
    "unit_step_pair": SAMPLES / "unit_step_pair.json",
    "random_generic": GOLDEN / "random_generic.json",
    "random_degenerate": GOLDEN / "random_degenerate.json",
}

# recording name -> (command, extra arguments after the document path)
COMMANDS = {
    "classify": ("classify", []),
    "classify-table": ("classify", ["--format", "table"]),
    "hull": ("hull", []),
    "hull-table": ("hull", ["--format", "table"]),
    "graph": ("graph", []),
    "graph-dot": ("graph", ["--dot"]),
    "gp": ("gp", []),
    "verify": ("verify", []),
}


def cli_stdout(doc: str, command: str) -> bytes:
    name, extra = COMMANDS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([name, str(DOCS[doc]), *extra])
    assert code == 0
    return out.getvalue().encode("utf-8")


def recording(doc: str, command: str) -> Path:
    return GOLDEN / doc / f"{command}.out"


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("doc", sorted(DOCS))
def test_stdout_matches_recording(doc, command):
    assert cli_stdout(doc, command) == recording(doc, command).read_bytes()


if __name__ == "__main__":
    for doc in DOCS:
        for command in COMMANDS:
            path = recording(doc, command)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(cli_stdout(doc, command))

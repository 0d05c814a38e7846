"""Byte-for-byte replay of the CLI over every data file.

Each entry of golden/cli_matrix.json holds an argv (file names relative to
tests/data), the exit code, stdout and stderr that cli.main produced for it.
The matrix covers jacobian, check, tame, decompose, invert, abelianize and
stabilize, each plain, with --json, with --linear-part and with
--field fp:7, plus compose over every ordered pair of files, plain and with
--json.
"""

import json
from pathlib import Path

import pytest

from freeaut.cli import main

DATA = Path(__file__).parent / "data"
RUNS = json.loads((DATA / "golden" / "cli_matrix.json").read_text())


@pytest.mark.parametrize("run", RUNS, ids=[" ".join(r["argv"]) for r in RUNS])
def test_cli_replay(capsys, monkeypatch, run):
    monkeypatch.chdir(DATA)
    code = main(list(run["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        run["exit"],
        run["stdout"],
        run["stderr"],
    )

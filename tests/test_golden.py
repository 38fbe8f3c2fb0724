"""Golden CLI outputs: a fixed argv list must print the recorded bytes.

The inputs and expected outputs under ``tests/golden/`` were written by
``tests/golden/record.py``; each case runs ``nudfa.cli.main`` in-process
from that directory and compares stdout and the exit code exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from nudfa.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_the_recorded_bytes(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("NUDFA_BUDGET", raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(case["argv"])
    expected = (GOLDEN / "expected" / f"{case['name']}.out").read_text()
    assert buf.getvalue() == expected
    assert code == case["exit"]

"""Golden CLI outputs: a fixed argv list must print the recorded bytes.

The inputs and expected outputs under ``tests/golden/`` were written by
``tests/golden/record.py``; each case runs ``nudfa.cli.main`` in-process
from that directory and compares stdout and the exit code exactly.  The
input files that ``record.py`` saved, through ``.dump`` or ``--out``, are
written again into a temporary directory and compared byte for byte.
"""

from __future__ import annotations

import contextlib
import importlib.util
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


def _record_module():
    spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORD = _record_module()
# ``fixtures --demo`` saves the file that ``record.py`` dumps.
OUT_FILES = {
    **RECORD.OUT_INPUTS,
    "demo_and2_z6%2.json": ["fixtures", "--demo", "and2_z6%2", "--out"],
}


@pytest.mark.parametrize("name", sorted(OUT_FILES))
def test_out_writes_the_recorded_file_bytes(name, tmp_path, monkeypatch):
    """``--out`` saves the bytes ``record.py`` committed and prints the
    path under ``"out"``."""
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("NUDFA_BUDGET", raising=False)
    path = str(tmp_path / name)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(OUT_FILES[name] + [path])
    assert code == 0
    assert json.loads(buf.getvalue())["out"] == path
    assert (tmp_path / name).read_bytes() == (GOLDEN / "inputs" / name).read_bytes()


DUMPED = RECORD.dumped_inputs()


@pytest.mark.parametrize("name", sorted(DUMPED))
def test_dump_writes_the_recorded_file_bytes(name, tmp_path):
    DUMPED[name].dump(str(tmp_path / name))
    assert (tmp_path / name).read_bytes() == (GOLDEN / "inputs" / name).read_bytes()

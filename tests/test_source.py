"""Source-level invariants of the package."""

from __future__ import annotations

import ast
from pathlib import Path

import nudfa

SOURCES = sorted(Path(nudfa.__file__).parent.glob("*.py"))


def test_no_assert_statements_guard_the_package():
    """Guards must raise real exceptions: ``python -O`` strips asserts."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

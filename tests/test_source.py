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


def test_structure_is_not_threaded_through_optional_parameters():
    """An algebra's lattice and clone come from its ``Structure``; no
    function takes them as optional parameters with a rebuild fallback."""
    threaded = {
        f"{wrap}[{name}]" if wrap else f"{name} | None"
        for name in ("CongruenceLattice", "UnaryClone")
        for wrap in ("Optional", "")
    }
    found = [
        f"{path.name}:{arg.lineno} {arg.arg}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.arguments)
        for arg in node.posonlyargs + node.args + node.kwonlyargs
        if arg.annotation is not None and ast.unparse(arg.annotation) in threaded
    ]
    assert found == []

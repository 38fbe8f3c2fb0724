"""Source-level invariants of the package."""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import nudfa

SOURCES = sorted(Path(nudfa.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.rglob("*.py"))


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


def test_every_definition_is_named_elsewhere():
    """Each function, method and class of the package is mentioned (as a
    name, an attribute or an import) on some other line of the package or
    its tests; the re-exports in ``__init__.py`` do not count."""
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    defined = []
    mentions: dict[str, set] = defaultdict(set)
    for path in modules + TESTS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                mentions[node.id].add((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                mentions[node.attr].add((path, node.lineno))
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
                mentions[name].add((path, node.lineno))
            elif path in modules and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined.append((node.name, path, node.lineno))
    unused = [
        f"{path.name}:{line} {name}"
        for name, path, line in defined
        if not (name.startswith("__") and name.endswith("__"))
        and not mentions[name] - {(path, line)}
    ]
    assert unused == []

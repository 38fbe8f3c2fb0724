"""Which statements of ``src/nudfa`` the Tier-1 suite never runs.

    PYTHONPATH=src python3 tests/statement_census.py [pytest arguments]

Runs pytest on ``tests/`` in this process under a line recorder,
``sys.settrace`` and ``threading.settrace``, that keeps the line events of
frames whose code lives in ``src/nudfa``.  A statement is an AST statement
node other than a docstring; each line of the source belongs to the
innermost statement that spans it, decorators included, and a statement
has run when a line event fires at one of its lines.  ``global`` and
``nonlocal`` statements and bare annotations inside functions compile to
no code, so they are not counted.  Code that tests run in a child process
is not seen.

Prints pytest's exit status, the totals, and for each module its count of
statements and the first lines of those never run.  The package must not
be imported before the recorder starts, so this is a script and not a
test; pytest does not collect it.  The run takes a few times as long as
the plain suite.
"""

from __future__ import annotations

import ast
import sys
import threading
from importlib.util import find_spec
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _docstring(node: ast.AST) -> ast.AST | None:
    """The docstring node of a module, class or function body, if any."""
    body = getattr(node, "body", None)
    if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) or not body:
        return None
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
            and isinstance(first.value.value, str):
        return first
    return None


def statement_lines(source: str) -> dict[int, int]:
    """Each line of the module's counted statements -> the first line of the
    innermost counted statement that spans it."""
    tree = ast.parse(source)
    skip = {id(d) for node in ast.walk(tree) if (d := _docstring(node)) is not None}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skip.update(
                id(n) for n in ast.walk(fn)
                if isinstance(n, ast.AnnAssign) and n.value is None
            )
    owner: dict[int, int] = {}
    # ast.walk visits a node before its descendants, so inner statements
    # overwrite the lines of the statements that hold them.
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in skip:
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        decorators = getattr(node, "decorator_list", [])
        start = min([node.lineno, *(d.lineno for d in decorators)])
        for line in range(start, node.end_lineno + 1):
            owner[line] = start
    return owner


def record(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit status and the (file, line) events of the package."""
    root = str(Path(find_spec("nudfa").origin).parent)
    hits: set[tuple[str, int]] = set()
    add = hits.add

    def lines(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(root):
            add((frame.f_code.co_filename, frame.f_lineno))
            return lines
        return None

    import pytest

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> None:
    if "nudfa" in sys.modules:
        raise SystemExit("nudfa was imported before the recorder started")
    status, hits = record(argv)
    package = Path(find_spec("nudfa").origin).parent
    report, total, unrun = [], 0, 0
    for path in sorted(package.glob("*.py")):
        owner = statement_lines(path.read_text())
        starts = set(owner.values())
        ran = {owner[line] for name, line in hits if name == str(path) and line in owner}
        missed = sorted(starts - ran)
        total += len(starts)
        unrun += len(missed)
        report.append(f"{path.name}: {len(missed)} of {len(starts)} never run"
                      + (": " + " ".join(map(str, missed)) if missed else ""))
    print(f"pytest exit status {status}")
    print(f"{total} statements in src/nudfa, {unrun} never run")
    print("\n".join(report))


if __name__ == "__main__":
    main(sys.argv[1:])

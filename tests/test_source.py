"""Source-level invariants of the package."""

from __future__ import annotations

import ast
import importlib
from collections import defaultdict
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
    """An algebra's lattice, clone and Malcev term come from its
    ``Structure``; no function takes them as optional parameters with a
    rebuild fallback."""
    threaded = {
        f"{wrap}[{name}]" if wrap else f"{name} | None"
        for name in ("CongruenceLattice", "UnaryClone", "AlgCircuit")
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


def _default_budget_lookups(tree: ast.AST) -> list[int]:
    """Lines of ``structure(...)`` calls that pass no budget."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "structure"
        and len(node.args) + len(node.keywords) < 2
    ]


def test_structure_lookups_carry_the_callers_budget():
    """Below the entry points an algebra's questions go to the caller's
    ``Structure``; where ``congruence.py`` and ``compile.py`` look one up,
    they pass the caller's budget, so none falls back to a second
    Structure under the default one."""
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name in ("congruence.py", "compile.py")
        for line in _default_budget_lookups(_parse(path))
    ]
    assert found == []
    for source, lines in [
        ("structure(a).lattice\n", [1]),
        ("structure(a, budget=b)\n", []),
        ("s = structure(a, b)\nstructure(c)\n", [2]),
    ]:
        assert _default_budget_lookups(ast.parse(source)) == lines, source


MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _definitions(tree: ast.Module) -> set[str]:
    """The functions, classes and assigned names at a module's top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_the_package_module_binds_only_its_submodules():
    """``__init__.py`` defines nothing and imports only submodules, so each
    name is reached through the module that defines it."""
    tree = _parse(Path(nudfa.__file__))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert _definitions(tree) == set()
    assert imported <= {path.stem for path in MODULES}


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """The line and name of every import binding that no other node of
    the module reads; ``import a.b`` binds ``a``, and a ``__future__``
    import binds nothing."""
    bound = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name != "*"
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


# Imports that nothing in their module reads, each with the reason it stays.
UNREAD_IMPORTS = {
    ("cli.py", "all_congruences"): "bench/tests/test_bench_tracer.py checks "
    "that tracing rebinds this module's name for it",
}


def test_no_imported_name_is_unused():
    """Every name a module imports is read in it, or UNREAD_IMPORTS gives
    the reason it stays; ``__init__.py`` imports its submodules to bind
    them, which ``test_the_package_module_binds_only_its_submodules``
    checks."""
    found = {
        (path.name, name): f"{path.name}:{line}"
        for path in MODULES
        for line, name in _unused_imports(_parse(path))
    }
    assert sorted(found) == sorted(UNREAD_IMPORTS), found


def test_the_import_check_sees_unused_names():
    unused = {
        "import math\n": [(1, "math")],
        "import os.path\n": [(1, "os")],
        "from functools import cache, lru_cache\n@cache\ndef f():\n    pass\n":
            [(1, "lru_cache")],
        "import numpy as np\nnumpy = 1\n": [(1, "np")],
    }
    read = [
        "import math\nx = math.pi\n",
        "import os.path\nos.path.join('a')\n",
        "from typing import Sequence\ndef f(x: Sequence[int]):\n    pass\n",
        "from a import *\n",
        "from __future__ import annotations\n",
    ]
    for source, names in unused.items():
        assert _unused_imports(ast.parse(source)) == names, source
    for source in read:
        assert _unused_imports(ast.parse(source)) == [], source


def test_no_top_level_name_is_defined_in_two_modules():
    """A function, class or constant has one definition in the package."""
    homes: dict[str, list[str]] = defaultdict(list)
    for path in MODULES:
        for name in _definitions(_parse(path)):
            homes[name].append(path.name)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}


# Definitions that no other line of the package names, each with the
# reason it stays.
KEPT = {
    "truth_table": "bench/tracer.py wraps it",
    "cc_truth_table": "bench/tracer.py wraps it",
    "from_blocks": "the tests' constructor of partitions",
    "from_pairs": "the tests' constructor from generating pairs, on which "
    "the lattice oracle's join is built",
    "total": "Partition.total, read only by tests, tests/lattice_reference.py "
    "and tests/compile_timings.py",
    "unsat_count": "the pseudo-AND test's oracle",
}


def _unnamed_definitions(modules: dict[str, ast.Module]) -> dict[str, str]:
    """The name and place of each function, method and class that no other
    line of the modules mentions.  A function or class is mentioned where
    its name is read, imported or used as an attribute; a method only where
    it is used as an attribute.  So neither an assignment to a function's
    name nor a local variable named like a method counts as a mention."""
    defined = []
    mentions: dict[str, set] = defaultdict(set)
    attributes: dict[str, set] = defaultdict(set)
    for name, tree in modules.items():
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                mentions[node.id].add((name, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes[node.attr].add((name, node.lineno))
                mentions[node.attr].add((name, node.lineno))
            elif isinstance(node, ast.alias):
                mentions[node.name.rsplit(".", 1)[-1]].add((name, node.lineno))
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                seen = attributes if id(node) in methods else mentions
                defined.append((node.name, name, node.lineno, seen))
    return {
        def_name: f"{name}:{line}"
        for def_name, name, line, seen in defined
        if not (def_name.startswith("__") and def_name.endswith("__"))
        and not seen[def_name] - {(name, line)}
    }


def test_every_definition_is_named_elsewhere():
    """Each function, method and class of the package is mentioned
    (``_unnamed_definitions``) on some other line of the package, or KEPT
    gives the reason it stays; a kept name that gains a caller leaves
    KEPT."""
    unused = _unnamed_definitions({path.name: _parse(path) for path in MODULES})
    assert sorted(unused) == sorted(KEPT), unused


def test_the_definition_check_sees_unnamed_definitions():
    unnamed = {
        "def f():\n    pass\n": {"f"},
        "def f():\n    pass\nf = 1\n": {"f"},
        "class P:\n    def total(self):\n        pass\n"
        "def g(total):\n    return total\ng(P)\n": {"total"},
    }
    named = [
        "def f():\n    pass\ng = f\n",
        "class P:\n    def total(self):\n        pass\nP().total()\n",
        "def f():\n    pass\nmap(f, [])\n",
        "def __eq__(a, b):\n    pass\n",
    ]
    for source, names in unnamed.items():
        assert set(_unnamed_definitions({"m.py": ast.parse(source)})) == names, source
    for source in named:
        assert _unnamed_definitions({"m.py": ast.parse(source)}) == {}, source
    imported = {"a.py": ast.parse("def f():\n    pass\n"),
                "b.py": ast.parse("from a import f\n")}
    assert _unnamed_definitions(imported) == {}


def _cache_decorator(node) -> tuple[str, bool] | None:
    """The name of a ``functools.cache``/``lru_cache`` decorator and whether
    it sets an integer ``maxsize``; None for any other decorator."""
    call = node if isinstance(node, ast.Call) else None
    target = call.func if call else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name not in ("cache", "lru_cache"):
        return None
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] if call else []
    sizes += call.args[:1] if call else []
    bounded = name == "lru_cache" and any(
        isinstance(v, ast.Constant) and type(v.value) is int for v in sizes
    )
    return name, bounded


def test_caches_with_arguments_are_bounded():
    """A memo of a function with arguments grows with the arguments it
    sees, so every ``functools`` cache on one names an integer ``maxsize``;
    an argument-free function caches one value and may use ``cache``."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            takes = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            for deco in map(_cache_decorator, node.decorator_list):
                if deco and any(takes) and not deco[1]:
                    found.append(f"{path.name}:{node.lineno} {node.name} @{deco[0]}")
    assert found == []


def test_the_cache_check_sees_unbounded_caches():
    decorators = {
        "functools.cache": (False, "cache"),
        "cache": (False, "cache"),
        "functools.lru_cache": (False, "lru_cache"),
        "lru_cache(maxsize=None)": (False, "lru_cache"),
        "lru_cache(None)": (False, "lru_cache"),
        "lru_cache(maxsize=16)": (True, "lru_cache"),
        "functools.lru_cache(8)": (True, "lru_cache"),
    }
    for source, (bounded, name) in decorators.items():
        tree = ast.parse(f"@{source}\ndef f(x):\n    return x\n")
        assert _cache_decorator(tree.body[0].decorator_list[0]) == (name, bounded)
    tree = ast.parse("@staticmethod\ndef f(x):\n    return x\n")
    assert _cache_decorator(tree.body[0].decorator_list[0]) is None


ONE_ROW_VIEWS = {"eval_cc", "eval_circuit", "accepts"}
_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Module)


def _repeated_one_row_calls(tree: ast.AST) -> list[int]:
    """Lines of calls to a one-row view that run once per pass of a loop
    or comprehension around them.  A call in a statement list that ends
    in ``return`` or ``raise`` runs at most once per loop, as a re-check of
    a single witness does."""
    parent = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    found = []
    for call in ast.walk(tree):
        func = getattr(call, "func", None)
        if getattr(func, "attr", getattr(func, "id", None)) not in ONE_ROW_VIEWS:
            continue
        child, up = call, parent[call]
        while not isinstance(up, _SCOPES):
            if isinstance(up, _COMPREHENSIONS) or (
                isinstance(up, ast.While) and child is up.test
            ):
                found.append(call.lineno)
                break
            if isinstance(child, ast.stmt):
                field, block = next(
                    (f, v) for f, v in ast.iter_fields(up)
                    if isinstance(v, list) and any(s is child for s in v)
                )
                if isinstance(block[-1], (ast.Return, ast.Raise)):
                    break
                if isinstance(up, _LOOPS) and field == "body":
                    found.append(call.lineno)
                    break
            child, up = up, parent[up]
    return found


def test_one_row_views_are_not_called_in_loops():
    """``eval_cc``, ``eval_circuit`` and ``AlgProgram.accepts`` are one-row
    views of the column evaluators; many points go through one column call
    instead of one view call each."""
    found = [
        f"{path.name}:{line}"
        for path in MODULES
        for line in _repeated_one_row_calls(_parse(path))
    ]
    assert found == []


def test_the_loop_check_sees_repeated_calls():
    repeated = [
        "for x in xs:\n    if p.accepts(x):\n        return x\n",
        "for x in xs:\n    v = eval_cc(c, x)\n    out.append(v)\n",
        "while eval_circuit(a, c, x) != y:\n    x = step(x)\n",
        "t = [eval_circuit(a, c, (x, y)) for x in xs]\n",
        "for x in xs:\n    if x:\n        if eval_cc(c, x):\n            raise E\n",
    ]
    once = [
        "v = eval_cc(c, w)\n",
        "for b in blocks:\n    if hit:\n        if not p.accepts(w):\n"
        "            raise E\n        return w\n",
        "for t in ts:\n    got = eval_circuit(a, c, x)\n    return got\n",
        "for x in eval_cc(c, w):\n    use(x)\n",
    ]
    for source in repeated:
        assert len(_repeated_one_row_calls(ast.parse(source))) == 1, source
    for source in once:
        assert _repeated_one_row_calls(ast.parse(source)) == [], source


def _outside(tree: ast.AST, owner: str, hit) -> list[int]:
    """Lines of the nodes of ``tree`` that ``hit`` accepts, outside any
    function named ``owner``."""
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == owner
        for node in ast.walk(fn)
    }
    return [
        node.lineno for node in ast.walk(tree) if id(node) not in inside and hit(node)
    ]


def _is_monomial_order(node: ast.AST) -> bool:
    """A tuple holding ``len(x), sorted(x)`` side by side."""
    if not isinstance(node, ast.Tuple):
        return False
    calls = [
        (e.func.id, ast.dump(e.args[0]))
        if isinstance(e, ast.Call) and isinstance(e.func, ast.Name) and len(e.args) == 1
        else None
        for e in node.elts
    ]
    return any(
        a and b and (a[0], b[0]) == ("len", "sorted") and a[1] == b[1]
        for a, b in zip(calls, calls[1:])
    )


def _is_layer_one_and(node: ast.AST) -> bool:
    """A ``Gate`` call with kind ``AND`` and layer 1, by position or keyword."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Gate"):
        return False
    args = dict(zip(("kind", "layer"), node.args))
    args.update((kw.arg, kw.value) for kw in node.keywords)
    layer = args.get("layer")
    return (
        getattr(args.get("kind"), "id", None) == "AND"
        and isinstance(layer, ast.Constant)
        and layer.value == 1
    )


OWNERS = {"monomial_key": _is_monomial_order, "monomial_gates": _is_layer_one_and}


def test_the_monomial_order_and_the_and_layer_have_one_owner():
    """Only ``fieldpoly.monomial_key`` spells the monomial order
    ``(len(k), sorted(k))``, and only ``lowering.monomial_gates`` builds
    layer-1 AND gates, so every circuit lists its monomials alike."""
    found = [
        f"{path.name}:{line} {owner}"
        for path in MODULES
        for owner, hit in OWNERS.items()
        for line in _outside(_parse(path), owner, hit)
    ]
    assert found == []


def test_the_owner_checks_see_copies():
    copies = {
        "sorted(ks, key=lambda k: (len(k), sorted(k)))\n": "monomial_key",
        "xs.sort(key=lambda kc: (len(kc[0]), sorted(kc[0]), kc[1]))\n": "monomial_key",
        "g = Gate(kind=AND, layer=1, wires=w)\n": "monomial_gates",
        "g = Gate(AND, 1, w)\n": "monomial_gates",
        "def f(k):\n    return Gate(AND, layer=1, wires=k)\n": "monomial_gates",
    }
    owned = {
        "def monomial_key(k):\n    return len(k), sorted(k)\n": "monomial_key",
        "x = (len(a), sorted(b))\n": "monomial_key",
        "x = (sorted(k), len(k))\n": "monomial_key",
        "def monomial_gates(n, ks):\n    return [Gate(AND, 1, k) for k in ks]\n":
            "monomial_gates",
        "g = Gate(kind=AND, layer=4, wires=w)\n": "monomial_gates",
        "g = Gate(MOD, 1, w, m=2)\n": "monomial_gates",
    }
    for source, owner in copies.items():
        assert len(_outside(ast.parse(source), owner, OWNERS[owner])) == 1, source
    for source, owner in owned.items():
        assert _outside(ast.parse(source), owner, OWNERS[owner]) == [], source


def _stdlib_json_writes(tree: ast.AST) -> list[int]:
    """Lines that call the stdlib's ``json.dump``/``json.dumps``, under any
    name the module binds to ``json``, or import either from it."""
    writers = {"dump", "dumps"}
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in writers
        and getattr(node.func.value, "id", None) in names
        or isinstance(node, ast.ImportFrom)
        and node.module == "json"
        and any(alias.name in writers for alias in node.names)
    ]


def test_one_json_writer():
    """Every JSON document the package prints or saves goes through
    ``circuits.format_json``, so none is written by the stdlib's
    indenting encoder, whose text it reproduces."""
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _stdlib_json_writes(_parse(path))
    ]
    assert found == []


def test_the_json_writer_check_sees_stdlib_writes():
    writes = [
        "import json\nprint(json.dumps(doc, indent=2))\n",
        "import json\nwith open(p, 'w') as fh:\n    json.dump(doc, fh)\n",
        "import json as j\ns = j.dumps(doc)\n",
        "from json import dumps\n",
    ]
    clean = [
        "import json\ndoc = json.loads(s)\n",
        "import json\ndoc = json.load(fh)\n",
        "s = format_json(doc)\n",
        "s = pickle.dumps(doc)\n",
        "from json.encoder import encode_basestring_ascii\n",
    ]
    for source in writes:
        assert len(_stdlib_json_writes(ast.parse(source))) == 1, source
    for source in clean:
        assert _stdlib_json_writes(ast.parse(source)) == [], source


TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets(source: str) -> list[tuple[str, str]]:
    """The (module, attribute path) pairs that ``SPANS`` and ``LEAVES``
    are assigned, read from the source without running it."""
    return [
        pair
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) in ("SPANS", "LEAVES") for t in node.targets)
        for pair in ast.literal_eval(node.value)
    ]


def _unresolved(targets: list[tuple[str, str]]) -> list[str]:
    """The targets that name nothing in the loaded package: the tracer
    reads a function from its module and a method from its class's own
    namespace."""
    missing = []
    for module, path in targets:
        namespace = vars(importlib.import_module(f"nudfa.{module}"))
        *classes, name = path.split(".")
        for cls in classes:
            namespace = vars(namespace[cls]) if cls in namespace else {}
        if name not in namespace:
            missing.append(f"{module}.{path}")
    return missing


def test_every_traced_name_resolves():
    """bench/tracer.py wraps the package's functions by name, and the
    benchmark's own tests are not part of this suite, so this one notices
    a wrapped name that was renamed or deleted."""
    targets = _tracer_targets(TRACER.read_text())
    assert ("solvers", "csat_exhaustive") in targets
    assert ("programs", "AlgProgram.accepts") in targets
    assert _unresolved(targets) == []


def test_the_tracer_check_sees_missing_names():
    source = (
        'SPANS = (("cli", "main"), ("solvers", "gone"),'
        ' ("algebra", "UnaryClone.__init__"))\n'
        'LEAVES = (("programs", "AlgProgram.gone"), ("programs", "Gone.accepts"))\n'
        'SIZES = (("nowhere", "nothing"),)\n'
    )
    targets = _tracer_targets(source)
    assert targets == [
        ("cli", "main"), ("solvers", "gone"), ("algebra", "UnaryClone.__init__"),
        ("programs", "AlgProgram.gone"), ("programs", "Gone.accepts"),
    ]
    assert _unresolved(targets) == [
        "solvers.gone", "programs.AlgProgram.gone", "programs.Gone.accepts",
    ]

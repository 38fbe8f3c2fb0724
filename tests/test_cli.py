"""The command-line front end: the program-versus-circuit harness."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from test_source import _cache_decorator

from nudfa import cli, congruence, lowering
from nudfa.algebra import FiniteAlgebra, Operation, quasigroup_malcev, verify_malcev
from nudfa.circuits import CircuitBuilder
from nudfa.cli import main, verify_harness
from nudfa.compile import compile_supernilpotent
from nudfa.fixtures import demo_program, get_fixture
from nudfa.limits import Budget, default_budget
from nudfa.modcircuit import SUMP, CCircuit, Gate
from nudfa.programs import AlgProgram, Instruction

# About 1.6 times the measured peak (712 KiB) of the n = 16 harness run below.
PEAK_HARNESS_BYTES = 1152 * 1024


def sump_circuit() -> CCircuit:
    """One SUMP(2) gate over two inputs: its output is a vector."""
    gate = Gate(SUMP, 1, ((0, 1), (1, 1)), p=2, nu=1,
                coeffs=((1,), (1,)), offset=(0,))
    return CCircuit(2, (gate,), 2, "SUMP(2)")


def count_ones(n: int) -> AlgProgram:
    """Z6: x_0 + ... + x_{n-1} on 0/1 inputs, accepting {2}."""
    b = CircuitBuilder(n)
    acc = b.var(0)
    for i in range(1, n):
        acc = b.gate("+", acc, b.var(i))
    return AlgProgram(
        get_fixture("Z6").algebra, b.finish(acc), n,
        tuple(Instruction(i, i, 0, 1) for i in range(n)), frozenset({2}),
    )


def test_vector_valued_circuits_never_match():
    prog = demo_program("and2_z6")
    everything = replace(prog, accepting=frozenset(range(prog.algebra.size)))
    for program in (prog, everything):
        doc = verify_harness(program, sump_circuit())
        assert doc["match"] is False
        assert "SUMP" in doc["reason"]


def test_verify_command_exits_1_on_a_vector_valued_circuit(tmp_path):
    prog_path, circ_path = tmp_path / "prog.json", tmp_path / "circ.json"
    demo_program("and2_z6").dump(str(prog_path))
    sump_circuit().dump(str(circ_path))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--program", str(prog_path),
                     "--circuit", str(circ_path)])
    assert code == 1
    assert json.loads(buf.getvalue())["match"] is False


def test_harness_memory_stays_bounded():
    """Above ``VERIFY_INPUT_BOUND`` both truth tables go a block of words
    at a time."""
    prog = count_ones(16)
    circuit, _ = compile_supernilpotent(prog)
    tracemalloc.start()
    try:
        doc = verify_harness(prog, circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc == {"match": True, "words": 1 << 16}
    assert peak < PEAK_HARNESS_BYTES, peak


@pytest.mark.parametrize("name", ["parity_sum_z6m2_10", "count_ones_z6_14"])
def test_without_the_compilers_checks_the_harness_goes_by_blocks(
    name, monkeypatch
):
    """With the compiler's bound at 0 no pass checks its output, so the
    harness evaluates both sides a block at a time; the output differs
    from the golden one only in the passes' ``verified``, now null."""
    monkeypatch.chdir(Path(__file__).resolve().parent / "golden")
    monkeypatch.setattr(lowering, "VERIFY_INPUT_BOUND", 0)
    harness_rows = []
    table = cli.cc_table
    monkeypatch.setattr(
        cli, "cc_table", lambda c, rows: harness_rows.append(rows) or table(c, rows)
    )
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["compile", "--program", f"inputs/{name}.json",
                     "--verify-n", "20"]) == 0
    expected = json.loads(
        (Path("expected") / f"compile_{name}.out").read_text()
    )
    for report in expected["passes"]:
        report["verified"] = None
    assert buf.getvalue() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    words = np.concatenate(harness_rows)
    assert len(harness_rows) >= 1 and words.tolist() == list(range(1 << expected["n"]))


@pytest.mark.parametrize(
    "argv",
    (
        ["compile", "--program", "inputs/demo_and2_z6%2.json", "--verify-n", "-1"],
        ["lower", "--pass", "unmod", "--in", "inputs/modmod.json", "--verify-n", "-1"],
        ["solve", "progcsat", "--program", "inputs/lattice_sat.json", "--sample", "-3"],
        ["verify", "--program", "inputs/demo_and2_z6%2.json",
         "--circuit", "inputs/and2_z6m2_circuit.json", "--n-bound", "-1"],
    ),
)
def test_negative_counts_are_usage_errors(argv, monkeypatch):
    """A negative bound or trial count exits 2 with a usage error, as
    ``verify --n-bound -1`` does, instead of skipping the check or taking
    the default."""
    monkeypatch.chdir(Path(__file__).resolve().parent / "golden")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 2
    assert json.loads(buf.getvalue())["kind"] == "usage"


@pytest.mark.parametrize(
    "problem, e, strategy",
    (("csat", "9", "scan"), ("csat", "9", "reduce"), ("ceqv", "-1", "meet")),
)
def test_elements_outside_the_universe_are_usage_errors(problem, e, strategy, monkeypatch):
    """Z6%2 has six elements.  Every strategy refuses an ``--e`` outside
    them with one usage error, where ``scan`` printed "unsat", ``reduce``
    exited 1 with a domain error and ``meet`` printed "fails"."""
    monkeypatch.chdir(Path(__file__).resolve().parent / "golden")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([
            "solve", problem, "--algebra", "fixtures:Z6%2",
            "--circuit", "inputs/eq_mixed.json", "--e", e, "--strategy", strategy,
        ])
    assert code == 2
    assert json.loads(buf.getvalue()) == {
        "error": f"--e must lie in 0..5, got {e}", "kind": "usage",
    }


def circuits_off_the_algebra():
    """Circuits in one variable that do not live over Z6%2, with the
    error each is refused with: t(x) = %2(x) + 7, whose constant lies
    outside 0..5, and gates of a wrong arity or of no operation."""
    b = CircuitBuilder(1)
    x = b.var(0)
    seven = b.finish(b.gate("+", b.gate("%2", x), b.const(7)))
    unary_sum = b.finish(b.gate("+", x))
    product = b.finish(b.gate("*", x, x))
    return [
        (seven, "circuit constant 7 outside the universe 0..5"),
        (unary_sum, "no operation '+' of arity 1 in Z6%2"),
        (product, "no operation '*' of arity 2 in Z6%2"),
    ]


@pytest.mark.parametrize(
    "problem, strategy",
    [("csat", "scan"), ("csat", "reduce"), ("ceqv", "scan"), ("ceqv", "meet"),
     ("ceqv", "reduce")],
)
def test_circuits_off_the_algebra_are_usage_errors(tmp_path, problem, strategy):
    """Every solve route refuses the circuit on load, where with
    t(x) = %2(x) + 7 and ``--e 2`` csat printed "sat", ceqv ``scan``
    printed "fails" and ``meet`` died with an IndexError."""
    for circuit, error in circuits_off_the_algebra():
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(circuit.to_json()))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([
                "solve", problem, "--algebra", "fixtures:Z6%2", "--circuit",
                str(path), "--e", "2", "--strategy", strategy,
            ])
        assert (code, json.loads(buf.getvalue())) == (
            2, {"error": error, "kind": "usage"}
        )


@pytest.mark.parametrize(
    "command", [["solve", "progcsat"], ["solve", "progcsat", "--sample", "5"],
                ["compile"]]
)
def test_programs_refuse_circuits_off_the_algebra(tmp_path, command):
    """A program's circuit must live over its algebra, as its instruction
    values must; ``solve progcsat`` answered "sat" with t(x) = %2(x) + 7
    and ``compile`` died with an IndexError."""
    algebra = get_fixture("Z6%2").algebra
    for circuit, error in circuits_off_the_algebra():
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            AlgProgram(
                algebra, circuit, 1, (Instruction(0, 0, 0, 1),), frozenset({2})
            )
        path = tmp_path / "prog.json"
        path.write_text(json.dumps({
            "algebra": algebra.to_json(), "circuit": circuit.to_json(), "n": 1,
            "instructions": [{"var": 0, "bit": 0, "a0": 0, "a1": 1}],
            "accepting": [2],
        }))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([*command, "--program", str(path)])
        assert (code, json.loads(buf.getvalue())) == (
            1, {"error": error, "kind": "domain"}
        )


def test_compile_refuses_a_one_element_algebra(tmp_path):
    """No prime divides the size of a one-element algebra, so there is no
    modulus to count in: ``compile`` prints a JSON error and exits 1.  The
    refusal does not rest on a missing Malcev term: its one table is a
    Latin square, so the quasigroup term is built."""
    trivial = FiniteAlgebra("T1", 1, (Operation("+", 2, (0,)),))
    assert verify_malcev(trivial, quasigroup_malcev(trivial))
    b = CircuitBuilder(2)
    prog = AlgProgram(
        trivial, b.finish(b.gate("+", b.var(0), b.var(1))), 2,
        (Instruction(0, 0, 0, 0), Instruction(1, 1, 0, 0)), frozenset({0}),
    )
    path = tmp_path / "prog.json"
    prog.dump(str(path))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["compile", "--program", str(path), "--verify-n", "20"])
    assert code == 1
    assert json.loads(buf.getvalue()) == {
        "error": "T1 has one element, so no prime divides its size",
        "kind": "HypothesisViolation",
    }


@pytest.mark.parametrize("raw", ("0", "-3", "abc", "", "2.5"))
def test_only_a_positive_integer_budget_is_read(raw, monkeypatch):
    """``NUDFA_BUDGET`` sets the clone and monomial caps; any other value
    than a positive integer is refused with one message."""
    monkeypatch.setenv("NUDFA_BUDGET", "300")
    assert (default_budget().clone_functions, default_budget().monomials) == (300, 300)
    assert default_budget().lattice_universe == Budget().lattice_universe
    monkeypatch.setenv("NUDFA_BUDGET", raw)
    with pytest.raises(ValueError, match="^NUDFA_BUDGET must be a positive integer$"):
        default_budget()
    monkeypatch.delenv("NUDFA_BUDGET")
    assert default_budget() == Budget()


def test_the_budget_variable_caps_the_unary_clone(monkeypatch):
    """The S3 clone has 324 functions; under ``NUDFA_BUDGET=300`` the
    ``localize`` of its first cover stops at the 301st and exits 1."""
    monkeypatch.chdir(Path(__file__).resolve().parent / "golden")
    monkeypatch.setenv("NUDFA_BUDGET", "300")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["localize", "--algebra", "fixtures:S3", "--lower", "1", "--upper", "0"])
    assert code == 1
    assert json.loads(buf.getvalue()) == {
        "error": "unary clone: 301 exceeds cap 300",
        "kind": "BudgetExceeded",
    }


def test_reused_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    """The parsers are built once per process.  A usage error, a ``con``
    run and a ``solve`` run in a row each print their recorded bytes, and
    an option left out after a run that gave it takes its default again.
    Each command path's own parser, given every golden argv of its path in
    order and then in reverse, parses each as a freshly built one does."""
    golden = Path(__file__).resolve().parent / "golden"
    recorded = json.loads((golden / "cases.json").read_text())
    cases = {case["name"]: case["argv"] for case in recorded}
    monkeypatch.chdir(golden)
    monkeypatch.delenv("NUDFA_BUDGET", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["con", "--format", "json"])
    assert exc.value.code == 2
    assert "--algebra" in capsys.readouterr().err
    scan = cases["ceqv_scan_eq_mixed_e3"]
    runs = [
        ("con_S3", cases["con_S3"]),
        ("ceqv_meet_eq_mixed_e3", cases["ceqv_meet_eq_mixed_e3"]),
        ("ceqv_scan_eq_mixed_e3", scan[: scan.index("--strategy")]),
    ]
    for name, argv in runs:
        assert main(argv) == 0
        expected = (golden / "expected" / f"{name}.out").read_text()
        assert capsys.readouterr().out == expected, name
    by_path: dict[tuple[str, ...], list[list[str]]] = {}
    for argv in cases.values():
        n = 2 if argv[0] in ("solve", "gadget") else 1
        by_path.setdefault(tuple(argv[:n]), []).append(argv[n:])
    assert set(by_path) == set(cli._COMMANDS)
    for path, argvs in by_path.items():
        fresh = cli._command_parser.__wrapped__(path)
        for rest in argvs + argvs[::-1]:
            assert cli._command_parser(path).parse_args(rest) == fresh.parse_args(rest)
    assert cli._command_parser.cache_info().maxsize >= len(cli._COMMANDS)


GOLDEN_ARGVS = [
    case["argv"]
    for case in json.loads(
        (Path(__file__).resolve().parent / "golden" / "cases.json").read_text()
    )
]
EQUATION = ["--algebra", "fixtures:Z6%2", "--circuit", "inputs/eq_mixed.json"]
# Help, usage errors and argvs that name no command path.
USAGE_ARGVS = [
    [], ["-h"], ["--help"], ["con", "-h"], ["con", "--he"], ["solve", "csat", "-h"],
    ["solve"], ["solve", "-h"], ["solve", "nope"], ["gadget"], ["nope"],
    ["con", "--bogus", "1"], ["con", "--algebra"],
    ["con", "--algebra", "fixtures:S3", "extra"],
    ["con", "--", "--algebra", "fixtures:S3"], ["--", "con", "--algebra", "fixtures:S3"],
    ["solve", "ceqv", *EQUATION, "--strategy", "bogus"],
    ["solve", "csat", *EQUATION, "--strategy", "meet"],
    ["cceval", "--circuit", "inputs/boolean.json", "--word", "1011", "--table"],
    ["cceval", "--circuit", "inputs/boolean.json"],
    ["con", "--alg", "fixtures:S3"], ["con", "--algebra", "fixtures:S3", "--f", "dot"],
    ["solve", "csat", *EQUATION, "--e=3"], ["solve", "progcsat", "--program"],
]


def _outcome(argv: list[str], capsys) -> tuple[str, str, object]:
    """What ``main(argv)`` prints on stdout and stderr, and its exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return out.out, out.err, code


@pytest.mark.parametrize(
    "argv", GOLDEN_ARGVS + USAGE_ARGVS, ids=lambda argv: " ".join(argv) or "(none)"
)
def test_each_path_parses_as_the_whole_tree(argv, monkeypatch, capsys):
    """``main`` prints the same stdout, stderr and exit code as when every
    call is parsed by the whole tree, and parses the same Namespace."""
    monkeypatch.chdir(Path(__file__).resolve().parent / "golden")
    monkeypatch.delenv("NUDFA_BUDGET", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    got = _outcome(argv, capsys)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
        assert got == _outcome(argv, capsys)
    try:
        whole = cli._build_parser().parse_args(argv)
    except SystemExit:
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli._parse(list(argv))
    else:
        assert cli._parse(list(argv)) == whole


def test_parsers_are_built_on_first_need_only():
    """Importing the CLI builds no parser, and a ``con`` call builds the
    parser of ``con`` alone."""
    code = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from nudfa.cli import main\n"
        "print(built)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['con', '--algebra', 'fixtures:S3'])\n"
        "print(built)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n['nudfa con']\n"


def run_memos() -> list[tuple[object, str]]:
    """(module, name) of every run memo in the package's source: each
    module-level dict bound to an empty ``{}``, and each ``functools``
    cache on a module-level function that takes arguments.  An
    argument-free one, like ``cli._build_parser``, caches one value for the
    process, and so does a cache of ``argparse.ArgumentParser``s, like
    ``cli._command_parser``: a parser keeps no state between calls."""
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"nudfa.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                if isinstance(node.value, ast.Dict) and not node.value.keys:
                    found += [(module, t.id) for t in node.targets]
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.value, ast.Dict) and not node.value.keys:
                    found.append((module, node.target.id))
            elif isinstance(node, ast.FunctionDef):
                returns = node.returns and ast.unparse(node.returns)
                if returns == "argparse.ArgumentParser":
                    continue
                a = node.args
                takes = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(takes) and any(map(_cache_decorator, node.decorator_list)):
                    found.append((module, node.name))
    return found


# One call that fills each cached function with arguments.
CACHE_FILLERS = {
    "_conj_normal_form": lambda f: f(3, 2, (frozenset({0}),), Budget()),
}


def test_each_call_starts_with_empty_run_memos(monkeypatch, tmp_path):
    """Every run memo the source holds, found by ``run_memos``, is empty
    when the next ``main`` call starts work, whatever the last one left."""
    memos = run_memos()
    assert {(m.__name__, name) for m, name in memos} >= {
        ("nudfa.congruence", "_STRUCTURES"),
        ("nudfa.lowering", "_INGEST_CACHE"),
        ("nudfa.lowering", "_conj_normal_form"),
        ("nudfa.modcircuit", "_TABLES"),
    }
    program = tmp_path / "program.json"
    demo_program("and2_z6%2").dump(str(program))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compile", "--program", str(program)]) == 0
    sizes = []
    for module, name in memos:
        memo = getattr(module, name)
        if isinstance(memo, dict):
            memo.setdefault(("left by an earlier call",), None)
            sizes.append(lambda memo=memo: len(memo))
        else:
            CACHE_FILLERS[name](memo)
            sizes.append(lambda memo=memo: memo.cache_info().currsize)
    assert all(size() for size in sizes)
    seen = []
    resolve = cli.resolve_algebra

    def resolving(spec):
        seen.append([size() for size in sizes])
        return resolve(spec)

    monkeypatch.setattr(cli, "resolve_algebra", resolving)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["algebra", "--algebra", "fixtures:Z2"]) == 0
    assert seen == [[0] * len(memos)]


def test_a_con_call_never_imports_numpy_ma():
    """``numpy.ma`` is a sizeable import for one short CLI process, and
    ``np.unique`` imports it on first use in numpy 2.4, so the commutator
    counts codes with ``np.bincount`` instead."""
    code = (
        "import contextlib, io, sys\n"
        "from nudfa.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['con', '--algebra', 'fixtures:Z6%2'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"


@pytest.mark.parametrize(
    "make",
    [
        lambda: get_fixture("S3").algebra,
        sump_circuit,
        lambda: demo_program("and2_z6%2"),
    ],
)
def test_json_files_match_the_streaming_writer(tmp_path, make):
    """Each ``dump`` writes the bytes of ``json.dump(..., indent=2,
    sort_keys=True)`` plus a final newline."""
    obj = make()
    path = tmp_path / "obj.json"
    obj.dump(str(path))
    expected = io.StringIO()
    json.dump(obj.to_json(), expected, indent=2, sort_keys=True)
    assert path.read_text() == expected.getvalue() + "\n"


def cli_doc(argv: list[str]) -> tuple[int, dict]:
    """The exit code and the printed JSON document of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize(
    "text, kind, code",
    [
        (None, "io", 2),
        ('{"name": "x", "size": 2', "io", 2),
        ('{"name": "x", "size": 0, "ops": []}', "domain", 1),
    ],
)
def test_algebra_files_are_io_errors_only_when_unreadable(tmp_path, text, kind, code):
    """A missing file and one that is not JSON exit 2 with an "io" error;
    a JSON algebra that breaks a rule of algebras is a "domain" error.  Not
    JSON was a domain error, since ``json.JSONDecodeError`` is a
    ``ValueError``."""
    path = tmp_path / "algebra.json"
    if text is not None:
        path.write_text(text)
    got, doc = cli_doc(["con", "--algebra", str(path)])
    assert (got, doc["kind"]) == (code, kind)


def test_an_unknown_fixture_is_a_usage_error():
    assert cli_doc(["con", "--algebra", "fixtures:NOPE"]) == (2, {
        "error": "unknown fixture 'NOPE'; available: LAT2, S3, Z2, Z3, Z4, Z6, Z6%2",
        "kind": "usage",
    })


def test_con_reports_why_there_are_no_distinguished_congruences(tmp_path):
    """The unary algebra f = (0, 0, 2) on three elements has a cover whose
    hi-blocks split into one and two lo-blocks, so the distinguished
    congruences are undefined; ``con`` says why and exits 0."""
    path = tmp_path / "u3.json"
    path.write_text(json.dumps({
        "name": "U3", "size": 3, "ops": [{"name": "f", "arity": 1, "table": [0, 0, 2]}],
    }))
    code, doc = cli_doc(["con", "--algebra", str(path)])
    assert code == 0
    assert doc["distinguished"] is None
    assert doc["distinguished_error"] == (
        "hi-blocks split into unequal lo-block counts {1, 2}"
    )


def test_compile_skips_the_check_above_verify_n():
    """``and2`` over Z6 reads two bits, more than ``--verify-n 1``, so
    the check is skipped: a top-level ``"verified": null``."""
    program = Path(__file__).resolve().parent / "golden" / "inputs" / "demo_and2_z6.json"
    code, doc = cli_doc(["compile", "--program", str(program), "--verify-n", "1"])
    assert code == 0
    assert doc["verified"] is None


@pytest.mark.parametrize(
    "argv, data, key",
    [
        (["con", "--algebra"], {"name": "x", "size": 2}, "ops"),
        (["cceval", "--table", "--circuit"],
         {"inputs": 1, "output": 0, "shape": ""}, "gates"),
        (["compile", "--program"],
         {"algebra": get_fixture("Z6").algebra.to_json(), "n": 1,
          "instructions": [], "accepting": [2]}, "circuit"),
        (["solve", "csat", "--algebra", "fixtures:Z6", "--circuit"],
         {"k": 1, "output": 0}, "nodes"),
    ],
)
def test_a_file_without_a_key_is_an_io_error(tmp_path, argv, data, key):
    """A JSON file that lacks a key its format reads exits 2 with an "io"
    error naming the file and the key.  It was a usage error named only by
    the key, as if the key were an unknown fixture."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    assert cli_doc([*argv, str(path)]) == (
        2, {"error": f"{path}: missing key {key!r}", "kind": "io"}
    )


@pytest.mark.parametrize(
    "text, error",
    [
        ("p cnf x 1\n1 0\n", "invalid literal for int() with base 10: 'x'"),
        ("p cnf 2 1\n1 a 0\n", "invalid literal for int() with base 10: 'a'"),
        ("p cnf 2 1\n1 3 0\n", "bad literal 3"),
        ("p cnf 2 1\n1 2\n", "trailing clause without terminating 0"),
    ],
    ids=["problem-line", "token", "literal-range", "no-final-zero"],
)
def test_a_malformed_dimacs_file_is_an_io_error(tmp_path, text, error):
    """A DIMACS file the reader cannot read is an "io" error naming the
    file, exit 2.  It was a "domain" error, exit 1, without the path."""
    path = tmp_path / "f.cnf"
    path.write_text(text)
    assert cli_doc(["gadget", "lattice", "--cnf", str(path)]) == (
        2, {"error": f"{path}: {error}", "kind": "io"}
    )


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.mark.parametrize(
    "circuit, shape, problems",
    [
        ("modmod.json", "MOD(2)",
         ["gate 7: layer 2 outside shape", "output sits in layer 2, shape has 1"]),
        ("sump.json", "MOD(2)∘SUMP(5)", ["gate 5: prime 3 != 5"]),
        (CCircuit(2, (), 0, ""), "MOD(2)",
         ["output is an input node but the shape has layers"]),
    ],
)
def test_ccshape_names_each_break_of_a_given_shape(tmp_path, circuit, shape, problems):
    """A gate above the shape's last layer, a SUMP gate over another prime,
    and an output that is an input under a shape with layers."""
    if isinstance(circuit, CCircuit):
        path = tmp_path / "circuit.json"
        circuit.dump(str(path))
    else:
        path = GOLDEN_INPUTS / circuit
    code, doc = cli_doc(["ccshape", "--circuit", str(path), "--shape", shape])
    assert code == 0
    assert (doc["valid"], doc["problems"]) == (False, problems)


def test_compile_reports_a_circuit_the_harness_refutes(monkeypatch):
    """``and2`` over Z6 compiles to a one-wire OR over a MOD gate; with that
    gate's accepting set complemented, ``--verify-n`` finds the tables
    differ at the first word and ``compile`` exits 1 with the mismatch."""
    compile_ = cli.compile_supernilpotent

    def changed(program, budget):
        circuit, report = compile_(program, budget)
        out = circuit.gate_of(circuit.output)
        (src, _), = out.wires
        gate = circuit.gate_of(src)
        gates = list(circuit.gates)
        gates[src - circuit.inputs] = replace(
            gate, accepting=frozenset(range(gate.m)) - gate.accepting
        )
        return replace(circuit, gates=tuple(gates)), report

    monkeypatch.setattr(cli, "compile_supernilpotent", changed)
    code, doc = cli_doc(["compile", "--program", str(GOLDEN_INPUTS / "demo_and2_z6.json"),
                         "--verify-n", "20"])
    assert code == 1
    assert doc["verified"] is False
    assert doc["mismatch"] == {
        "match": False, "reason": "truth tables differ", "word": [0, 0],
        "program": False, "circuit": 1,
    }
    assert "circuit" in doc


def test_lower_writes_nothing_when_the_pass_changes_the_table(monkeypatch, tmp_path):
    """``unmod`` of the MOD∘MOD circuit ends in one SUMP(3) output gate; with
    its offset moved by one, ``--verify-n`` sees the tables differ, and
    ``lower`` exits 1 with ``reverified: false`` and writes no ``--out``."""
    unmod = cli._PASSES["unmod"]

    def changed(circuit, budget):
        lowered, report = unmod(circuit, budget)
        out = lowered.gate_of(lowered.output)
        gates = list(lowered.gates)
        gates[lowered.output - lowered.inputs] = replace(
            out, offset=tuple((v + 1) % out.p for v in out.offset)
        )
        return replace(lowered, gates=tuple(gates)), report

    monkeypatch.setitem(cli._PASSES, "unmod", changed)
    out = tmp_path / "lowered.json"
    code, doc = cli_doc(["lower", "--pass", "unmod", "--in",
                         str(GOLDEN_INPUTS / "modmod.json"), "--verify-n", "20",
                         "--out", str(out)])
    assert code == 1
    assert doc["reverified"] is False
    assert "out" not in doc and "circuit" not in doc
    assert not out.exists()

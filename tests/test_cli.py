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


def test_reused_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    """The parser is built once per process.  A usage error, a ``con`` run
    and a ``solve`` run in a row each print their recorded bytes, and an
    option left out after a run that gave it takes its default again."""
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


def run_memos() -> list[tuple[object, str]]:
    """(module, name) of every run memo in the package's source: each
    module-level dict bound to an empty ``{}``, and each ``functools``
    cache on a module-level function that takes arguments (an argument-free
    one, like ``cli._build_parser``, caches one value for the process)."""
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
                a = node.args
                takes = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(takes) and any(map(_cache_decorator, node.decorator_list)):
                    found.append((module, node.name))
    return found


# One call that fills each cached function with arguments.
CACHE_FILLERS = {
    "_conj_normal_form": lambda f: f(3, 2, (frozenset({0}),)),
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

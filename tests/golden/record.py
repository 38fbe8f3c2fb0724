"""Record the golden CLI outputs that ``tests/test_golden.py`` compares against.

Writes the input files under ``inputs/``, runs every argv that
``cases()`` lists through ``nudfa.cli.main`` from this directory, and
stores each stdout in ``expected/<name>.out`` with the argv lists and exit
codes in ``cases.json``.  Run it
only when an output change is intended and documented:

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from itertools import product
from pathlib import Path

from nudfa.algebra import FiniteAlgebra, Operation
from nudfa.circuits import CircuitBuilder
from nudfa.cli import main
from nudfa.congruence import all_congruences
from nudfa.fixtures import demo_names, demo_program, fixture_names, get_fixture
from nudfa.modcircuit import AND, MOD, OR, SUMP, CCircuit, Gate
from nudfa.programs import AlgProgram, Instruction

HERE = Path(__file__).resolve().parent

# A satisfiable 3-CNF over 6 variables whose first solution in index order
# is word 23 of 64, and an unsatisfiable one over 3 variables.
SAT_CNF = """p cnf 6 14
-2 4 5 0
-4 5 2 0
3 -5 4 0
-2 -1 -4 0
-5 -4 -1 0
6 -3 1 0
-1 4 2 0
-2 1 -4 0
2 5 -1 0
-2 3 6 0
4 5 6 0
1 2 -4 0
-5 -2 3 0
2 -3 5 0
"""
UNSAT_CNF = "p cnf 3 8\n" + "".join(
    f"{'' if a else '-'}1 {'' if b else '-'}2 {'' if c else '-'}3 0\n"
    for a in (0, 1)
    for b in (0, 1)
    for c in (0, 1)
)


def parity_sum(n: int, accepting=frozenset({2})) -> AlgProgram:
    """Z6%2: the sum of %2(x_i + x_{i+1}) over i = 0, 2, 4, ..., accepting
    {2} unless ``accepting`` says otherwise."""
    b = CircuitBuilder(n)
    terms = [
        b.gate("%2", b.gate("+", b.var(i), b.var(i + 1)))
        for i in range(0, n - 1, 2)
    ]
    acc = terms[0]
    for t in terms[1:]:
        acc = b.gate("+", acc, t)
    return AlgProgram(
        get_fixture("Z6%2").algebra,
        b.finish(acc),
        n,
        tuple(Instruction(i, i, 0, 1) for i in range(n)),
        accepting,
    )


# Parity-sums at n = 4 whose accepting sets cover two classes and none:
# the compiler ORs one branch per class, or emits a constant circuit.
PARITY_SUM_ACCEPTING = {"12": frozenset({1, 2}), "none": frozenset()}


def count_ones(n: int) -> AlgProgram:
    """Z6: x_0 + ... + x_{n-1} with 0/1 inputs, accepting {2}."""
    b = CircuitBuilder(n)
    acc = b.var(0)
    for i in range(1, n):
        acc = b.gate("+", acc, b.var(i))
    return AlgProgram(
        get_fixture("Z6").algebra,
        b.finish(acc),
        n,
        tuple(Instruction(i, i, 0, 1) for i in range(n)),
        frozenset({2}),
    )


def _binary(name: str, n: int, fn) -> FiniteAlgebra:
    table = tuple(fn(x, y) for x, y in product(range(n), repeat=2))
    return FiniteAlgebra(name, n, (Operation("*", 2, table),))


def dihedral4() -> FiniteAlgebra:
    """The symmetries of a square, r^i s^j encoded as 2 i + j: M(1, 1)
    has 1,024 matrices."""

    def mul(x: int, y: int) -> int:
        i, j = divmod(x, 2)
        k, l = divmod(y, 2)
        return 2 * ((i + (k if j == 0 else -k)) % 4) + (j + l) % 2

    return _binary("D4", 8, mul)


def z3xz3() -> FiniteAlgebra:
    """Z3 x Z3 with (i, j) encoded as 3 i + j: M(1, 1) has 729 matrices."""
    return _binary(
        "Z3xZ3", 9,
        lambda x, y: ((x // 3 + y // 3) % 3) * 3 + (x % 3 + y % 3) % 3,
    )


def groupoid7() -> FiniteAlgebra:
    """The random 7-element groupoid whose M(1, 1) is all of A^4."""
    rng = random.Random(7)
    table = tuple(rng.randrange(7) for _ in range(49))
    return FiniteAlgebra("G7", 7, (Operation("*", 2, table),))


# Table-built algebras with the largest matrix subalgebras, for ``con``.
TABLE_ALGEBRAS = {"D4": dihedral4, "Z3xZ3": z3xz3, "G7": groupoid7}


def _equation(gates) -> dict:
    """Two-variable Z6%2 circuit JSON from a node list."""
    return {"k": 2, "nodes": gates, "output": len(gates) - 1}


# t(x, y) = %2(x + y) + y: solvable for e = 3, not an identity
EQ_MIXED = _equation(
    [["var", 0], ["var", 1], ["gate", "+", [0, 1]], ["gate", "%2", [2]],
     ["gate", "+", [3, 1]]]
)
# t(x, y) = %2(x + x) + %2(y + y): identically 0
EQ_IDENTITY = _equation(
    [["var", 0], ["var", 1], ["gate", "+", [0, 0]], ["gate", "+", [1, 1]],
     ["gate", "%2", [2]], ["gate", "%2", [3]], ["gate", "+", [4, 5]]]
)
# t(x) = x * x over D4: the squares are 0 and r^2 = 4, so t(x) = 4 is
# solvable, t(x) = 1 is not, and neither holds identically
EQ_D4_SQUARE = {"k": 1, "nodes": [["var", 0], ["gate", "*", [0, 0]]], "output": 1}


def _boolean_circuit() -> CCircuit:
    """AND/OR/MOD mix over 4 inputs, with multiplicities and an empty AND."""
    gates = (
        Gate(AND, 1, ((0, 1), (1, 1))),
        Gate(MOD, 1, ((1, 2), (2, 1), (3, 1)), m=3, accepting=frozenset({0, 2})),
        Gate(AND, 1, ()),
        Gate(OR, 2, ((4, 1), (5, 1))),
        Gate(MOD, 2, ((4, 1), (5, 3), (6, 1)), m=2, accepting=frozenset({1})),
        Gate(OR, 3, ((7, 1), (8, 1))),
    )
    return CCircuit(4, gates, 9, "AND(*)∘OR(*)∘OR(*)")


def _sump_json() -> dict:
    """MOD(2) layer into an open SUMP(3, 2) output over 3 inputs, written
    in the older coefficient form (one nu-by-nu matrix per wire, whose row
    sums are the vector) so that ``cceval_table_sump`` covers its loading."""
    gates = (
        Gate(MOD, 1, ((0, 1), (1, 1)), m=2, accepting=frozenset({1})),
        Gate(MOD, 1, ((1, 1), (2, 1)), m=2, accepting=frozenset({0})),
        Gate(SUMP, 2, ((3, 1), (4, 2)), p=3, nu=2,
             coeffs=((1, 2), (2, 1)), offset=(1, 0)),
    )
    doc = CCircuit(3, gates, 5, "MOD(2)∘SUMP(3)").to_json()
    doc["gates"][-1]["coeffs"] = [[[1, 0], [0, 2]], [[1, 1], [0, 1]]]
    return doc


def _modmod_circuit() -> CCircuit:
    """MOD(2)∘MOD(3) over 4 inputs, the input shape of ``unmod``."""
    gates = (
        Gate(MOD, 1, ((0, 1), (1, 1)), m=2, accepting=frozenset({1})),
        Gate(MOD, 1, ((2, 1), (3, 1)), m=2, accepting=frozenset({0})),
        Gate(MOD, 1, ((0, 1), (3, 1)), m=2, accepting=frozenset({1})),
        Gate(MOD, 2, ((4, 1), (5, 2), (6, 1)), m=3, accepting=frozenset({1, 2})),
    )
    return CCircuit(4, gates, 7, "MOD(2)∘MOD(3)")


def _modand_circuit() -> CCircuit:
    """MOD(2)∘AND over 3 inputs, the input shape of ``modm_andd_to_sum``."""
    gates = (
        Gate(MOD, 1, ((0, 1), (1, 1)), m=2, accepting=frozenset({1})),
        Gate(MOD, 1, ((1, 1), (2, 1)), m=2, accepting=frozenset({1})),
        Gate(AND, 2, ((3, 1), (4, 1))),
    )
    return CCircuit(3, gates, 5, "MOD(2)∘AND(2)")


def dumped_inputs() -> dict:
    """The input files written with ``.dump``, each with its object."""
    things = {f"demo_{name}.json": demo_program(name) for name in demo_names()}
    things["parity_sum_z6m2_10.json"] = parity_sum(10)
    things["parity_sum_z6m2_12.json"] = parity_sum(12)
    for tag, accepting in PARITY_SUM_ACCEPTING.items():
        things[f"parity_sum_z6m2_4_{tag}.json"] = parity_sum(4, accepting)
    things["count_ones_z6_14.json"] = count_ones(14)
    things["count_ones_z6_16.json"] = count_ones(16)
    things["boolean.json"] = _boolean_circuit()
    things["modmod.json"] = _modmod_circuit()
    things["modand.json"] = _modand_circuit()
    for name, make in TABLE_ALGEBRAS.items():
        things[f"algebra_{name}.json"] = make()
    return things


# The input files written through the CLI's ``--out``, each with its argv
# up to the output path, run after every other input is written.
OUT_INPUTS = {
    "lattice_sat.json": ["gadget", "lattice", "--cnf", "inputs/sat.cnf", "--out"],
    "lattice_unsat.json": ["gadget", "lattice", "--cnf", "inputs/unsat.cnf", "--out"],
    "and2_z6m2_circuit.json":
        ["compile", "--program", "inputs/demo_and2_z6%2.json", "--out"],
    # The SUMP(3) form of modand.json, the input shape of
    # ``finalize_boolean_sum``.
    "modand_lowered.json": ["lower", "--pass", "modm_andd_to_sum", "--p", "3",
                            "--in", "inputs/modand.json", "--out"],
}


def write_inputs() -> None:
    d = HERE / "inputs"
    d.mkdir(exist_ok=True)
    for name, thing in dumped_inputs().items():
        thing.dump(str(d / name))
    (d / "sat.cnf").write_text(SAT_CNF)
    (d / "unsat.cnf").write_text(UNSAT_CNF)
    for name, doc in (("eq_mixed", EQ_MIXED), ("eq_identity", EQ_IDENTITY),
                      ("eq_d4_square", EQ_D4_SQUARE)):
        (d / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
    (d / "sump.json").write_text(
        json.dumps(_sump_json(), indent=2, sort_keys=True) + "\n"
    )
    for name, argv in OUT_INPUTS.items():
        _run(argv + [f"inputs/{name}"])


def cases() -> list[tuple[str, list[str]]]:
    out = []
    for name in demo_names():
        out.append((f"compile_{name}",
                    ["compile", "--program", f"inputs/demo_{name}.json",
                     "--verify-n", "20"]))
    # At 16 bits every pass reports ``verified: null``, so only the
    # harness compares the circuit with the program.
    for prog in ("parity_sum_z6m2_10", "parity_sum_z6m2_12",
                 "count_ones_z6_14", "count_ones_z6_16",
                 *(f"parity_sum_z6m2_4_{tag}" for tag in PARITY_SUM_ACCEPTING)):
        out.append((f"compile_{prog}",
                    ["compile", "--program", f"inputs/{prog}.json",
                     "--verify-n", "20"]))
    z = "fixtures:Z6%2"
    for eq, e in (("eq_mixed", "3"), ("eq_mixed", "1"), ("eq_identity", "0"),
                  ("eq_identity", "1")):
        src = f"inputs/{eq}.json"
        for strategy in ("scan", "reduce"):
            out.append((f"csat_{strategy}_{eq}_e{e}",
                        ["solve", "csat", "--algebra", z, "--circuit", src,
                         "--e", e, "--strategy", strategy]))
        for strategy in ("scan", "meet", "reduce"):
            out.append((f"ceqv_{strategy}_{eq}_e{e}",
                        ["solve", "ceqv", "--algebra", z, "--circuit", src,
                         "--e", e, "--strategy", strategy]))
    # The JSON-file D4 has no recorded Malcev term; the reductions use the
    # one its structure makes.
    d4 = "inputs/algebra_D4.json"
    for e in ("4", "1"):
        src = "inputs/eq_d4_square.json"
        for problem, strategy in (("csat", "scan"), ("csat", "reduce"),
                                  ("ceqv", "reduce")):
            out.append((f"{problem}_{strategy}_eq_d4_square_e{e}",
                        ["solve", problem, "--algebra", d4, "--circuit", src,
                         "--e", e, "--strategy", strategy]))
    for cnf in ("sat", "unsat"):
        out.append((f"gadget_lattice_{cnf}",
                    ["gadget", "lattice", "--cnf", f"inputs/{cnf}.cnf"]))
        out.append((f"progcsat_lattice_{cnf}",
                    ["solve", "progcsat", "--program",
                     f"inputs/lattice_{cnf}.json"]))
        out.append((f"progcsat_sample_lattice_{cnf}",
                    ["solve", "progcsat", "--program",
                     f"inputs/lattice_{cnf}.json", "--sample"]))
        out.append((f"progcsat_sample3_seed1_lattice_{cnf}",
                    ["solve", "progcsat", "--program",
                     f"inputs/lattice_{cnf}.json", "--sample", "3",
                     "--seed", "1"]))
    for circ in ("boolean", "sump", "and2_z6m2_circuit"):
        out.append((f"cceval_table_{circ}",
                    ["cceval", "--circuit", f"inputs/{circ}.json", "--table"]))
    # One word each: a 0/1 output, and the open SUMP vector.
    for circ, word in (("boolean", "1011"), ("sump", "110")):
        out.append((f"cceval_word_{circ}",
                    ["cceval", "--circuit", f"inputs/{circ}.json",
                     "--word", word]))
    # A declared shape the gates fit and one they break, and the graph of
    # the circuit with wire multiplicities.
    for circ in ("modmod", "boolean"):
        out.append((f"ccshape_{circ}",
                    ["ccshape", "--circuit", f"inputs/{circ}.json"]))
    for circ in ("boolean", "sump"):
        out.append((f"ccshape_dot_{circ}",
                    ["ccshape", "--circuit", f"inputs/{circ}.json",
                     "--format", "dot"]))
    out.append(("lower_unmod",
                ["lower", "--pass", "unmod", "--in", "inputs/modmod.json",
                 "--verify-n", "20"]))
    out.append(("lower_modm_andd_to_sum",
                ["lower", "--pass", "modm_andd_to_sum", "--p", "3",
                 "--in", "inputs/modand.json", "--verify-n", "20"]))
    out.append(("lower_finalize_boolean_sum",
                ["lower", "--pass", "finalize_boolean_sum",
                 "--in", "inputs/modand_lowered.json", "--verify-n", "20"]))
    out.append(("verify_match",
                ["verify", "--program", "inputs/demo_and2_z6%2.json",
                 "--circuit", "inputs/and2_z6m2_circuit.json"]))
    out.append(("verify_mismatch",
                ["verify", "--program", "inputs/demo_or2_lat2.json",
                 "--circuit", "inputs/and2_z6m2_circuit.json"]))
    out.append(("verify_width_mismatch",
                ["verify", "--program", "inputs/demo_and2_z6.json",
                 "--circuit", "inputs/boolean.json"]))
    # Structure of every fixture; ``localize`` takes the first cover in
    # the lattice's canonical order.
    for name in fixture_names():
        spec = f"fixtures:{name}"
        out.append((f"algebra_{name}", ["algebra", "--algebra", spec]))
        out.append((f"con_{name}", ["con", "--algebra", spec]))
        lower, upper = all_congruences(get_fixture(name).algebra).covers[0]
        out.append((f"localize_{name}",
                    ["localize", "--algebra", spec,
                     "--lower", str(lower), "--upper", str(upper)]))
    for name in TABLE_ALGEBRAS:
        out.append((f"con_{name}",
                    ["con", "--algebra", f"inputs/algebra_{name}.json"]))
    # The lattice as a graph, each cover labelled with its type.
    out.append(("con_dot_S3", ["con", "--algebra", "fixtures:S3", "--format", "dot"]))
    # LAT2's one cover is not abelian, so it has no characteristic: "?".
    out.append(("con_dot_LAT2",
                ["con", "--algebra", "fixtures:LAT2", "--format", "dot"]))
    # The first cover of D4, a non-abelian group whose clone is closed over
    # the generators of its associative operation, and of the groupoid G7,
    # whose clone exceeds the default cap.
    for name in ("D4", "G7"):
        lower, upper = all_congruences(TABLE_ALGEBRAS[name]()).covers[0]
        out.append((f"localize_{name}",
                    ["localize", "--algebra", f"inputs/algebra_{name}.json",
                     "--lower", str(lower), "--upper", str(upper)]))
    for name in ("Z6%2", "S3"):
        out.append((f"gadget_twoprime_{name}",
                    ["gadget", "twoprime", "--algebra", f"fixtures:{name}",
                     "--cnf", "inputs/sat.cnf"]))
    out.append(("gadget_twoprime_D4",
                ["gadget", "twoprime", "--algebra", d4,
                 "--cnf", "inputs/sat.cnf"]))
    out.append(("fixtures", ["fixtures"]))
    out.append(("fixtures_demo_and2_z6%2", ["fixtures", "--demo", "and2_z6%2"]))
    return out


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def record() -> None:
    os.chdir(HERE)
    os.environ.pop("NUDFA_BUDGET", None)
    write_inputs()
    expected = HERE / "expected"
    expected.mkdir(exist_ok=True)
    manifest = []
    for name, argv in cases():
        code, stdout = _run(argv)
        (expected / f"{name}.out").write_text(stdout)
        manifest.append({"name": name, "argv": argv, "exit": code})
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    record()

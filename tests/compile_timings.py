"""In-process compile and clone timings off the benchmark, printed as one
JSON object.

    PYTHONPATH=src python3 tests/compile_timings.py

Times ``compile_nilpotent`` on the parity-sum program (the sum of
mod(x_i + x_{i+1}) over i = 0, 2, 4, ..., accepting {2}):

- over Z6%2 at n = 10, 12, 16 and 18, best of a few warm runs, and the
  share of the n = 18 compile spent in ``moebius_transform`` under
  cProfile;
- over Z12%3 (Z12 with + and x -> x mod 3, a descent of h = 2 levels)
  under ``Budget(lattice_universe=12)`` at n = 4, best of three warm runs,
  and the cumulative time and calls of ``_module_part``, ``collapse_5to3``
  and ``make_atom`` in that compile under cProfile; and at n = 6, the time
  until the monomial cap stops it.

Each compile starts from an empty table memo.  Beside each time of a
compiled program go the base indicators its compile built (``_base``) and
its ``descend_assemble`` passes per level, level 0 (the root's) first
(``_descents``).  Then times building the
``UnaryClone`` of S3 and of the groups D6, A4 and D8 of ``test_groups``
(324, 648, 36,864 and 2,048 functions), best of five runs, and the
witness query ``Structure.witnesses`` on a fresh Structure of A4 and of
D8, for the table in the middle of the clone's canonical order and for
every table, best of three runs.  Last, the matrix subalgebra M(1, 1) of the
golden G7 groupoid (all 2,401 matrices of A^4) and of LAT2, best of five
runs.  Then the package's JSON writer ``format_json`` against the
stdlib's ``dumps`` with ``indent=2, sort_keys=True``, whose text it
writes, on the program documents of the golden ``lattice_sat.json`` and
``lattice_unsat.json`` and on the ``con`` document of the golden D4 table,
best of seven runs, in milliseconds.  The other figures are wall seconds
of the machine it runs on; compare two checkouts by running each in turn.
First of all comes ``src_nonblank_lines``, the count of
``grep -cv '^\s*$'`` over ``src/nudfa/*.py``, then the CLI parsers, in
milliseconds: building the whole tree and the ``solve csat`` path's own
parser, the process's first build and the best of seven after emptying
their caches, and parsing a golden ``solve csat`` argv by the whole tree
and as ``main`` does, through the path's parser, best of seven warm runs.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import pstats
import time
from itertools import groupby
from pathlib import Path

from nudfa import cli, congruence, modcircuit
from nudfa import compile as compile_module
from nudfa.algebra import FiniteAlgebra, UnaryClone, make_op
from nudfa.circuits import CircuitBuilder, format_json
from nudfa.cli import main as cli_main
from nudfa.compile import compile_nilpotent
from nudfa.fixtures import get_fixture
from nudfa.limits import Budget, BudgetExceeded
from nudfa.partitions import Partition
from nudfa.programs import AlgProgram, Instruction
from test_groups import cayley

GOLDEN = Path(__file__).resolve().parent / "golden"
SOURCES = Path(__file__).resolve().parents[1] / "src" / "nudfa"


def parity_sum(algebra: FiniteAlgebra, mod: str, n: int) -> AlgProgram:
    b = CircuitBuilder(n)
    terms = [b.gate(mod, b.gate("+", b.var(i), b.var(i + 1))) for i in range(0, n - 1, 2)]
    out = terms[0]
    for term in terms[1:]:
        out = b.gate("+", out, term)
    return AlgProgram(
        algebra, b.finish(out), n,
        tuple(Instruction(i, i, 0, 1) for i in range(n)), frozenset({2}),
    )


def z12_mod3() -> FiniteAlgebra:
    add = make_op("+", 2, 12, lambda x, y: (x + y) % 12)
    return FiniteAlgebra("Z12%3", 12, (add, make_op("%3", 1, 12, lambda x: x % 3)))


def run(prog: AlgProgram, budget: Budget) -> float:
    modcircuit._TABLES.clear()
    start = time.perf_counter()
    compile_nilpotent(prog, budget)
    return time.perf_counter() - start


def best(prog: AlgProgram, budget: Budget, runs: int) -> float:
    run(prog, budget)  # warm: structures and caches
    return round(min(run(prog, budget) for _ in range(runs)), 4)


def level_counts(prog: AlgProgram, budget: Budget) -> tuple[int, list[int]]:
    """Base indicators built, and descents per level from level 0 up."""
    descend = compile_module.descend_mod_beta
    reps = []  # one entry per descent: its level's representation
    compile_module.descend_mod_beta = (
        lambda *args, **kw: reps.append(id(args[3])) or descend(*args, **kw)
    )
    try:
        _, reports = compile_nilpotent(prog, budget)
    finally:
        compile_module.descend_mod_beta = descend
    base = int(reports[0].pass_name.removeprefix("base_cache[").split()[0])
    # levels are built from the base up, so the root's comes last
    return base, [len(list(group)) for _, group in groupby(reversed(reps))]


def timed(out: dict, name: str, prog: AlgProgram, budget: Budget, runs: int) -> None:
    out[f"{name}_s"] = best(prog, budget, runs)
    out[f"{name}_base"], out[f"{name}_descents"] = level_counts(prog, budget)


def profiled(out: dict, name: str, prog: AlgProgram, budget: Budget,
             functions: dict[str, str]) -> None:
    """One compile under cProfile: its total time, and the cumulative time
    and the calls of each function, under the function's label."""
    profile = cProfile.Profile()
    profile.runcall(run, prog, budget)
    stats = pstats.Stats(profile)
    out[f"{name}_profiled_s"] = round(stats.total_tt, 3)
    for label, function in functions.items():
        entry = next(v for k, v in stats.stats.items() if k[2] == function)
        out[f"{name}_profiled_{label}_s"] = round(entry[3], 3)
        out[f"{name}_{label}_calls"] = entry[1]


def json_writer_timings() -> dict:
    """Best of seven runs of each JSON writer on each document, in ms."""
    inputs = GOLDEN / "inputs"
    docs = {
        name: AlgProgram.load(str(inputs / f"{name}.json")).to_json()
        for name in ("lattice_sat", "lattice_unsat")
    }
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(["con", "--algebra", str(inputs / "algebra_D4.json")])
    docs["con_d4"] = json.loads(buf.getvalue())
    writers = {
        "json_dumps": lambda doc: json.dumps(doc, indent=2, sort_keys=True),
        "format_json": format_json,
    }
    out = {}
    for name, doc in docs.items():
        for label, write in writers.items():
            times = []
            for _ in range(7):
                start = time.perf_counter()
                write(doc)
                times.append(time.perf_counter() - start)
            out[f"{label}_{name}_ms"] = round(min(times) * 1e3, 3)
    return out


def parser_timings() -> dict:
    """The parsers' first and best build and their best warm parse, in ms."""
    path = ("solve", "csat")
    argv = [*path, "--algebra", "fixtures:Z6%2", "--circuit", "inputs/eq_mixed.json",
            "--e", "3", "--strategy", "scan"]
    steps = {
        "build_tree": lambda: cli._build_parser.cache_clear() or cli._build_parser(),
        "build_path": lambda: (cli._command_parser.cache_clear()
                               or cli._command_parser(path)),
        "parse_tree": lambda: cli._build_parser().parse_args(argv),
        "parse_path": lambda: cli._parse(argv),
    }
    out = {}
    for name, step in steps.items():
        times = []
        for _ in range(7):
            start = time.perf_counter()
            step()
            times.append(time.perf_counter() - start)
        if name.startswith("build"):
            out[f"parser_{name}_first_ms"] = round(times[0] * 1e3, 3)
        out[f"parser_{name}_ms"] = round(min(times) * 1e3, 3)
    return out


def src_nonblank_lines() -> int:
    """The lines of ``src/nudfa/*.py`` that hold more than white space."""
    return sum(
        1 for path in SOURCES.glob("*.py")
        for line in path.read_text().split("\n") if line.strip()
    )


def main() -> None:
    out = {"src_nonblank_lines": src_nonblank_lines(), **parser_timings()}
    z6m2 = get_fixture("Z6%2").algebra
    for n, runs in ((10, 5), (12, 5), (16, 3), (18, 3)):
        timed(out, f"parity_sum_z6m2_n{n}", parity_sum(z6m2, "%2", n), Budget(), runs)
    profiled(out, "n18", parity_sum(z6m2, "%2", 18), Budget(),
             {"moebius": "moebius_transform"})

    z12, budget = z12_mod3(), Budget(lattice_universe=12)
    timed(out, "z12m3_h2_n4", parity_sum(z12, "%3", 4), budget, 3)
    profiled(out, "z12m3_h2_n4", parity_sum(z12, "%3", 4), budget,
             {name.strip("_"): name
              for name in ("_module_part", "collapse_5to3", "make_atom")})
    prog = parity_sum(z12, "%3", 6)
    start = time.perf_counter()
    try:
        compile_nilpotent(prog, budget)
        out["z12m3_h2_n6"] = "compiled"
    except BudgetExceeded as exc:
        out["z12m3_h2_n6"] = str(exc)
    out["z12m3_h2_n6_s"] = round(time.perf_counter() - start, 2)

    clones = {name: cayley(name) for name in ("D6", "A4", "D8")}
    for name, alg in {"S3": get_fixture("S3").algebra, **clones}.items():
        times = []
        for _ in range(5):
            start = time.perf_counter()
            UnaryClone(alg)
            times.append(time.perf_counter() - start)
        out[f"unary_clone_{name.lower()}_s"] = round(min(times), 4)
    for name in ("A4", "D8"):
        tables = list(UnaryClone(clones[name]))
        for key, asked in (("one_witness", [tables[len(tables) // 2]]),
                           ("witnesses", tables)):
            times = []
            for _ in range(3):
                s = congruence.Structure(clones[name], Budget())
                start = time.perf_counter()
                s.witnesses(asked)
                times.append(time.perf_counter() - start)
            out[f"unary_clone_{name.lower()}_{key}_s"] = round(min(times), 4)
    g7 = FiniteAlgebra.load(str(GOLDEN / "inputs" / "algebra_G7.json"))
    for alg in (g7, get_fixture("LAT2").algebra):
        one = Partition.total(alg.size)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            congruence._matrix_subalgebra(alg, one, one)
            times.append(time.perf_counter() - start)
        out[f"matrix_closure_{alg.name.lower()}_s"] = round(min(times), 4)
    out.update(json_writer_timings())
    print(json.dumps(out))


if __name__ == "__main__":
    main()

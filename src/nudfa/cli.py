"""Command-line front end: one executable covering the whole toolbox.

Subcommands map onto the library modules: algebra and congruence-lattice
inspection, trace localization, program compilation, circuit lowering
passes, modular-circuit evaluation and shape checking, decision
procedures, satisfiability gadgets, program-vs-circuit verification, and
the built-in fixture registry.  Each subcommand's handler returns its
document: a JSON-ready dict, DOT text where requested, or the document
with a nonzero exit code.  ``main`` turns every refusal into an error
document and prints the one document on stdout.  Exit codes: 0 on
success, 1 when an input falls outside a procedure's domain (wrong
structure class, failed search, exceeded budget, verification mismatch),
2 on usage and input-file errors.

A call is parsed by its command path's own parser (``nudfa solve csat``),
built from the table the whole parser tree is built from; a call that
names no path, or leaves arguments over, goes to the whole tree.

Algebras are given either as JSON file paths or as ``fixtures:NAME``
URIs into the registry.  Enumeration caps honor the NUDFA_BUDGET
environment variable, all randomness flows through explicit ``--seed``
options, and identical invocations print byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from . import congruence, lowering, modcircuit
from .algebra import FiniteAlgebra, check_circuit
from .circuits import AlgCircuit, FileFormatError, format_json, load_json
from .compile import HypothesisViolation, compile_nilpotent
# ``all_congruences`` is not called here: bench/tests/test_bench_tracer.py
# checks that tracing rebinds this module's name for it.
from .congruence import (  # noqa: F401
    Structure,
    all_congruences,
    structure,
    supernilpotent_rank,
)
from .fieldpoly import Cnf3, parse_dimacs
from .fixtures import (
    demo_names,
    demo_program,
    fixture_names,
    get_fixture,
    resolve_algebra,
)
from .hardness import (
    GadgetSearchError,
    build_two_prime_program,
    cnf_to_lattice_program,
    find_two_prime_witness,
)
from .limits import BudgetExceeded, charge, default_budget
from .localize import minimal_sets, traces
from .lowering import (
    collapse_5to3,
    finalize_boolean_sum,
    modm_andd_to_sum,
    unmod,
)
from .modcircuit import (
    MOD,
    SUMP,
    SUMPC,
    CCircuit,
    cc_table,
    eval_cc,
    index_blocks,
    shape_of,
    validate_shape,
)
from .programs import AlgProgram
from .solvers import (
    SolveResult,
    ceqv_exhaustive,
    ceqv_to_progcsat,
    ceqv_via_meet_irreducibles,
    csat_exhaustive,
    csat_to_progcsat,
    progcsat_exhaustive,
    progcsat_sample,
)


class UsageError(Exception):
    """Bad command-line input noticed after argument parsing."""


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _dump_or_embed(doc: dict, out: Optional[str], key: str, thing) -> None:
    """Write a circuit or program to ``out`` and record the path, or, with
    no ``--out``, embed its JSON form in the document under ``key``."""
    if out:
        thing.dump(out)
        doc["out"] = out
    else:
        doc[key] = thing.to_json()


def _require_nonnegative(value: Optional[int], flag: str) -> None:
    """Refuse a negative count option; None means the option was not given."""
    if value is not None and value < 0:
        raise UsageError(f"{flag} must not be negative, got {value}")


def _require_element(size: int, e: int) -> None:
    """Refuse an ``--e`` outside the universe {0, ..., size-1}, before any
    strategy reads it."""
    if not 0 <= e < size:
        raise UsageError(f"--e must lie in 0..{size - 1}, got {e}")


def _result_doc(res: SolveResult) -> dict:
    doc: dict = {"status": res.status, "tried": res.tried}
    if res.witness is not None:
        doc["witness"] = list(res.witness)
    if res.counterexample is not None:
        doc["counterexample"] = list(res.counterexample)
    if res.seed is not None:
        doc["seed"] = res.seed
    return doc


def _load_algcircuit(path: str, algebra: FiniteAlgebra) -> AlgCircuit:
    """The circuit saved at ``path``, refused before any strategy reads it
    unless it lives over the algebra."""
    circuit = load_json(path, AlgCircuit.from_json)
    try:
        check_circuit(algebra, circuit)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return circuit


def _load_cnf(path: str) -> Cnf3:
    """The DIMACS CNF saved at ``path``; one the reader refuses is a
    ``FileFormatError`` that names the path."""
    try:
        with open(path) as fh:
            return parse_dimacs(fh.read())
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _scalar(table: np.ndarray) -> np.ndarray:
    """Open scalar SUMP outputs come back as 1-vectors; unwrap them."""
    if table.ndim == 2 and table.shape[1] == 1:
        return table[:, 0]
    return table


def _parse_word(text: str, width: int) -> tuple[int, ...]:
    if not text or any(c not in "01" for c in text):
        raise UsageError(f"word must be a nonempty 0/1 string, got {text!r}")
    if len(text) != width:
        raise UsageError(f"word has {len(text)} bits, circuit reads {width}")
    return tuple(int(c) for c in text)


def _cover_characteristic(s: Structure, lo: int, hi: int) -> Optional[int]:
    """The characteristic of the cover of lattice elements ``lo`` < ``hi``,
    or None where it has none."""
    try:
        return s.characteristic(s.lattice.elements[lo], s.lattice.elements[hi])
    except ValueError:
        return None


def _lattice_dot(s: Structure) -> str:
    lat = s.lattice
    lines = ["digraph congruences {", "  rankdir=BT;"]
    for i, part in enumerate(lat.elements):
        label = " | ".join(
            ",".join(str(x) for x in b) for b in part.blocks()
        )
        lines.append(f'  n{i} [label="{i}: {label}"];')
    for lo, hi in lat.covers:
        tag = _cover_characteristic(s, lo, hi)
        lines.append(f'  n{lo} -> n{hi} [label="{"?" if tag is None else tag}"];')
    lines.append("}")
    return "\n".join(lines)


def _circuit_dot(circuit: CCircuit) -> str:
    lines = ["digraph circuit {", "  rankdir=BT;"]
    for i in range(circuit.inputs):
        lines.append(f'  n{i} [shape=box, label="x{i}"];')
    for gid, gate in enumerate(circuit.gates):
        node = circuit.inputs + gid
        if gate.kind == MOD:
            label = f"MOD({gate.m}) acc {sorted(gate.accepting)}"
        elif gate.kind in (SUMP, SUMPC):
            label = f"{gate.kind}({gate.p},{gate.nu})"
        else:
            label = gate.kind
        lines.append(f'  n{node} [label="{label} @{gate.layer}"];')
        for src, mult in gate.wires:
            attr = f' [label="x{mult}"]' if mult > 1 else ""
            lines.append(f"  n{src} -> n{node}{attr};")
    lines.append('  out [shape=plaintext, label="out"];')
    lines.append(f"  n{circuit.output} -> out;")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The verification harness
# ---------------------------------------------------------------------------


def verify_harness(
    program: AlgProgram, circuit: CCircuit, n_bound: int = 20
) -> dict:
    """Exhaustive truth-table comparison of a program and a circuit.

    Word length must stay within ``n_bound`` (itself capped at 20); the
    first disagreeing word is reported in full.  Up to
    ``lowering.VERIFY_INPUT_BOUND`` bits it compares the two whole tables,
    the circuit's from the run memo and the program's cached table, which
    a compile has already built for its own final check; above that both
    sides are evaluated a block of words at a time.  A circuit whose output
    is an open SUMP vector has no truth value and never matches.
    """
    if not 0 <= n_bound <= 20:
        raise UsageError("verification bound must lie in 0..20")
    if program.n > n_bound:
        raise ValueError(
            f"word length {program.n} exceeds the verification bound {n_bound}"
        )
    if circuit.inputs != program.n:
        return {
            "match": False,
            "reason": (
                f"circuit reads {circuit.inputs} bits,"
                f" program reads {program.n}"
            ),
        }
    if (
        circuit.output >= circuit.inputs
        and circuit.gate_of(circuit.output).kind == SUMP
    ):
        return {
            "match": False,
            "reason": "circuit output is an open SUMP vector, not a bit",
        }
    whole = program.n <= lowering.VERIFY_INPUT_BOUND
    for rows in [None] if whole else index_blocks(1 << program.n):
        wants = program.accept_column(rows)
        values = cc_table(circuit, rows)
        bad = np.flatnonzero((values != 0) != wants)
        if len(bad):
            at = bad[0]
            word = int(at if rows is None else rows[at])
            return {
                "match": False,
                "reason": "truth tables differ",
                "word": [(word >> i) & 1 for i in range(program.n)],
                "program": bool(wants[at]),
                "circuit": int(values[at]),
            }
    return {"match": True, "words": 1 << program.n}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_algebra(args) -> dict:
    return resolve_algebra(args.algebra).to_json()


def _cmd_con(args) -> dict | str:
    algebra = resolve_algebra(args.algebra)
    s = structure(algebra)
    lat = s.lattice
    if args.format == "dot":
        return _lattice_dot(s)
    doc: dict = {
        "algebra": algebra.name,
        "elements": [
            {"index": i, "blocks": part.blocks()}
            for i, part in enumerate(lat.elements)
        ],
        "covers": [
            {"lower": lo, "upper": hi,
             "characteristic": _cover_characteristic(s, lo, hi)}
            for lo, hi in lat.covers
        ],
        "rank": supernilpotent_rank(s),
    }
    try:
        dist = s.distinguished
        doc["distinguished"] = {
            "largest_supernilpotent": lat.index(dist.largest_supernilpotent),
            "smallest_supernilpotent_quotient": lat.index(
                dist.smallest_supernilpotent_quotient
            ),
            "by_prime": {
                str(p): lat.index(part) for p, part in dist.by_prime.items()
            },
        }
    except ValueError as exc:
        doc["distinguished"] = None
        doc["distinguished_error"] = str(exc)
    return doc


def _cmd_localize(args) -> dict:
    algebra = resolve_algebra(args.algebra)
    s = structure(algebra)
    lat = s.lattice
    count = len(lat.elements)
    if not (0 <= args.lower < count and 0 <= args.upper < count):
        raise UsageError(f"congruence indices must lie in 0..{count - 1}")
    lo = lat.elements[args.lower]
    hi = lat.elements[args.upper]
    if not (lo.leq(hi) and lo != hi):
        raise ValueError("--lower must be strictly below --upper")
    found = minimal_sets(s, lo, hi)
    return {
        "algebra": algebra.name,
        "pair": {"lower": args.lower, "upper": args.upper},
        "minimal_sets": [
            {
                "universe": sorted(ms.universe),
                "witness": list(ms.witness),
                "idempotent": (
                    list(ms.idempotent) if ms.idempotent else None
                ),
                "traces": [
                    sorted(t) for t in traces(algebra, ms.universe, lo, hi)
                ],
            }
            for ms in found
        ],
    }


def _cmd_compile(args) -> dict | tuple[dict, int]:
    _require_nonnegative(args.verify_n, "--verify-n")
    program = AlgProgram.load(args.program)
    circuit, reports = compile_nilpotent(program)
    doc: dict = {
        "algebra": program.algebra.name,
        "n": program.n,
        "shape": shape_of(circuit),
        "gates": len(circuit.gates),
        "size": circuit.size,
        "passes": [asdict(r) for r in reports],
    }
    if args.verify_n is not None:
        bound = min(args.verify_n, 20)
        if program.n <= bound:
            check = verify_harness(program, circuit, bound)
            doc["verified"] = check["match"]
            if not check["match"]:
                doc["mismatch"] = check
        else:
            doc["verified"] = None
    _dump_or_embed(doc, args.out, "circuit", circuit)
    return (doc, 1) if "mismatch" in doc else doc


_PASSES = {
    "modm_andd_to_sum": modm_andd_to_sum,
    "unmod": unmod,
    "collapse_5to3": collapse_5to3,
    "finalize_boolean_sum": finalize_boolean_sum,
}


def _cmd_lower(args) -> dict | tuple[dict, int]:
    name = args.pass_name.replace("-", "_")
    if name not in _PASSES:
        raise UsageError(
            f"unknown pass {args.pass_name!r};"
            f" available: {', '.join(sorted(_PASSES))}"
        )
    _require_nonnegative(args.verify_n, "--verify-n")
    circuit = CCircuit.load(args.infile)
    budget = default_budget()
    if name == "modm_andd_to_sum":
        if args.p is None:
            raise UsageError("pass modm_andd_to_sum needs --p <prime>")
        lowered, report = modm_andd_to_sum(circuit, args.p, budget)
    elif name == "finalize_boolean_sum":
        lowered = finalize_boolean_sum(circuit)
        report = None
    else:
        lowered, report = _PASSES[name](circuit, budget)
    doc: dict = {
        "pass": name,
        "input_shape": shape_of(circuit),
        "output_shape": shape_of(lowered),
        "input_size": circuit.size,
        "output_size": lowered.size,
    }
    if report is not None:
        doc["report"] = asdict(report)
    if args.verify_n is not None and circuit.inputs <= min(args.verify_n, 20):
        before, after = _scalar(cc_table(circuit)), _scalar(cc_table(lowered))
        doc["reverified"] = before.shape == after.shape and bool(
            (before == after).all()
        )
        if not doc["reverified"]:
            return doc, 1
    _dump_or_embed(doc, args.out, "circuit", lowered)
    return doc


def _cmd_cceval(args) -> dict:
    circuit = CCircuit.load(args.circuit)
    budget = default_budget()
    if args.word is not None:
        bits = _parse_word(args.word, circuit.inputs)
        value = eval_cc(circuit, bits)
        return {
            "output": list(value) if isinstance(value, tuple) else int(value)
        }
    charge(
        1 << circuit.inputs,
        1 << budget.truth_table_bits,
        "circuit truth table",
    )
    return {
        "inputs": circuit.inputs,
        "table": cc_table(circuit).tolist(),
    }


def _cmd_ccshape(args) -> dict | str:
    circuit = CCircuit.load(args.circuit)
    if args.format == "dot":
        return _circuit_dot(circuit)
    ok, problems = validate_shape(circuit, args.shape)
    return {
        "shape": shape_of(circuit),
        "declared_shape": circuit.declared_shape,
        "valid": ok,
        "problems": problems,
    }


def _cmd_solve_progcsat(args) -> dict:
    _require_nonnegative(args.sample, "--sample")
    program = AlgProgram.load(args.program)
    if args.sample is not None:
        trials = args.sample if args.sample > 0 else None
        res = progcsat_sample(program, trials=trials, seed=args.seed)
    else:
        res = progcsat_exhaustive(program, default_budget())
    return _result_doc(res)


def _cmd_solve_equation(args) -> dict:
    """``solve csat`` and ``solve ceqv``: t(x) = e decided by ``scan``,
    ``meet`` (ceqv) or ``reduce`` to program satisfiability, where an
    accepted word is a solution (csat) or a counterexample (ceqv)."""
    algebra = resolve_algebra(args.algebra)
    _require_element(algebra.size, args.e)
    circuit = _load_algcircuit(args.circuit, algebra)
    budget = default_budget()
    csat = args.problem == "csat"
    if args.strategy == "reduce":
        reduction = csat_to_progcsat if csat else ceqv_to_progcsat
        res = progcsat_exhaustive(reduction(algebra, circuit, args.e), budget)
        if csat:
            doc = _result_doc(res)
        else:
            doc = {
                "status": "holds" if res.status == "unsat" else "fails",
                "tried": res.tried,
            }
            if res.witness is not None:
                doc["program_word"] = list(res.witness)
        doc["level"] = "program"
        return doc
    if args.strategy == "meet":
        res = ceqv_via_meet_irreducibles(algebra, circuit, args.e, budget=budget)
    else:
        scan = csat_exhaustive if csat else ceqv_exhaustive
        res = scan(algebra, circuit, args.e, budget)
    return _result_doc(res)


def _cmd_gadget_lattice(args) -> dict:
    cnf = _load_cnf(args.cnf)
    program = cnf_to_lattice_program(cnf)
    doc: dict = {
        "gadget": "lattice",
        "cnf_vars": cnf.num_vars,
        "clauses": len(cnf.clauses),
        "n": program.n,
        "size": program.size,
    }
    _dump_or_embed(doc, args.out, "program", program)
    return doc


def _cmd_gadget_twoprime(args) -> dict | tuple[dict, int]:
    algebra = resolve_algebra(args.algebra)
    cnf = _load_cnf(args.cnf)
    budget = default_budget()
    try:
        sides = find_two_prime_witness(algebra, budget)
    except GadgetSearchError as exc:
        return {
            "error": {"stage": exc.stage, "detail": exc.detail},
            "kind": "witness-failure",
        }, 1
    program = build_two_prime_program(algebra, sides, cnf, budget=budget)
    doc: dict = {
        "gadget": "twoprime",
        "algebra": algebra.name,
        "primes": sorted(cfg.out_char for cfg in sides),
        "cnf_vars": cnf.num_vars,
        "clauses": len(cnf.clauses),
        "n": program.n,
        "size": program.size,
    }
    _dump_or_embed(doc, args.out, "program", program)
    return doc


def _cmd_verify(args) -> dict | tuple[dict, int]:
    program = AlgProgram.load(args.program)
    circuit = CCircuit.load(args.circuit)
    doc = verify_harness(program, circuit, args.n_bound)
    return doc if doc["match"] else (doc, 1)


def _cmd_fixtures(args) -> dict:
    if args.demo:
        program = demo_program(args.demo)
        doc: dict = {
            "demo": args.demo,
            "algebra": program.algebra.name,
            "n": program.n,
            "size": program.size,
        }
        _dump_or_embed(doc, args.out, "program", program)
        return doc
    listing = []
    for name in fixture_names():
        fix = get_fixture(name)
        listing.append(
            {
                "name": name,
                "size": fix.algebra.size,
                "ops": [op.name for op in fix.algebra.ops],
                "congruences": fix.congruence_count,
                "difference_circuit": structure(fix.algebra).malcev is not None,
                "description": fix.description,
            }
        )
    return {"fixtures": listing, "demos": demo_names()}


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _opt(flag: str, **options) -> tuple[str, dict]:
    """One option of a command: its flag and ``add_argument`` keywords."""
    return flag, options


def _file(flag: str, **options) -> tuple[str, dict]:
    return _opt(flag, required=True, metavar="FILE", **options)


_ALGEBRA = _opt("--algebra", required=True, metavar="SPEC")
_FORMAT = _opt("--format", choices=("json", "dot"), default="json")
_OUT = _opt("--out", metavar="FILE")
_VERIFY_N = _opt("--verify-n", type=int, dest="verify_n", metavar="K")


def _equation(*strategies: str) -> list:
    """The options of ``solve csat`` and ``solve ceqv``."""
    return [_ALGEBRA, _file("--circuit"),
            _opt("--e", type=int, default=0, metavar="ELEMENT"),
            _opt("--strategy", choices=strategies, default="scan")]


# Each command path, in help order: its help line, handler and options; a
# list of options is a required mutually exclusive group.
_COMMANDS = {
    ("algebra",): ("print an algebra's operation tables", _cmd_algebra, [_ALGEBRA]),
    ("con",): ("congruence lattice with landmarks", _cmd_con, [_ALGEBRA, _FORMAT]),
    ("localize",): ("minimal sets and traces of a pair", _cmd_localize, [
        _ALGEBRA, _opt("--lower", type=int, required=True, metavar="INDEX"),
        _opt("--upper", type=int, required=True, metavar="INDEX")]),
    ("compile",): ("program -> modular circuit", _cmd_compile,
                   [_file("--program"), _OUT, _VERIFY_N]),
    ("lower",): ("run one lowering pass", _cmd_lower, [
        _opt("--pass", required=True, dest="pass_name", metavar="NAME"),
        _file("--in", dest="infile"), _OUT, _opt("--p", type=int, metavar="PRIME"),
        _VERIFY_N]),
    ("cceval",): ("evaluate a modular circuit", _cmd_cceval, [
        _file("--circuit"),
        [_opt("--word", metavar="BITS"), _opt("--table", action="store_true")]]),
    ("ccshape",): ("validate a circuit's layer shape", _cmd_ccshape,
                   [_file("--circuit"), _opt("--shape", metavar="SHAPE"), _FORMAT]),
    ("solve", "progcsat"): ("does the program accept a word?", _cmd_solve_progcsat, [
        _file("--program"),
        _opt("--sample", type=int, nargs="?", const=0, metavar="TRIALS",
             help="randomized search (default trials: 4 * size^2)"),
        _opt("--seed", type=int, default=0)]),
    ("solve", "csat"): ("is the equation solvable?", _cmd_solve_equation,
                        _equation("scan", "reduce")),
    ("solve", "ceqv"): ("does the equation hold identically?", _cmd_solve_equation,
                        _equation("scan", "meet", "reduce")),
    ("gadget", "lattice"): ("CNF -> program over the 2-lattice", _cmd_gadget_lattice,
                            [_file("--cnf"), _OUT]),
    ("gadget", "twoprime"): ("CNF -> program via the two-prime construction",
                             _cmd_gadget_twoprime, [_ALGEBRA, _file("--cnf"), _OUT]),
    ("verify",): ("compare a program against a circuit", _cmd_verify, [
        _file("--program"), _file("--circuit"),
        _opt("--n-bound", type=int, default=20, dest="n_bound")]),
    ("fixtures",): ("list built-ins or dump a demo", _cmd_fixtures,
                    [_opt("--demo", metavar="NAME"), _OUT]),
}
# The commands that name a group of commands: their help line and the
# attribute that holds the command chosen in the group.
_GROUPS = {"solve": ("decision procedures", "problem"),
           "gadget": ("CNF satisfiability gadgets", "gadget")}


def _add_options(parser, path: tuple[str, ...]) -> argparse.ArgumentParser:
    """``parser`` given the options and the handler of a command path."""
    _, func, options = _COMMANDS[path]
    for option in options:
        if isinstance(option, list):
            group = parser.add_mutually_exclusive_group(required=True)
            for flag, kw in option:
                group.add_argument(flag, **kw)
        else:
            parser.add_argument(option[0], **option[1])
    parser.set_defaults(func=func)
    return parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole command-line parser, built on the first call that needs it
    and reused: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="nudfa",
        description=(
            "Programs over finite algebras: congruence analysis,"
            " compilation to modular-counting circuits, and the"
            " satisfiability gadgets around them."
        ),
    )
    subs = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (text, _, _) in _COMMANDS.items():
        head = path[:-1]
        if head not in subs:
            group_text, dest = _GROUPS[head[0]]
            group = subs[()].add_parser(head[0], help=group_text)
            subs[head] = group.add_subparsers(dest=dest, required=True)
        _add_options(subs[head].add_parser(path[-1], help=text), path)
    return parser


@functools.lru_cache(maxsize=14)  # one parser per command path
def _command_parser(path: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of one command path alone, as the whole parser holds it
    (``prog`` ``nudfa solve csat``), built on first need and reused."""
    parser = argparse.ArgumentParser(prog=" ".join(("nudfa",) + path))
    return _add_options(parser, path)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the whole parser tree parses it."""
    path = tuple(argv[:2] if argv and argv[0] in _GROUPS else argv[:1])
    if path in _COMMANDS:
        args, rest = _command_parser(path).parse_known_args(argv[len(path):])
        if not rest:
            args.command = path[0]
            if len(path) == 2:
                setattr(args, _GROUPS[path[0]][1], path[1])
            return args
    return _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    # Each call starts from empty run memos.
    congruence._STRUCTURES.clear()
    lowering._INGEST_CACHE.clear()
    modcircuit._TABLES.clear()
    lowering._conj_normal_form.cache_clear()
    try:
        result = args.func(args)
    except UsageError as exc:
        result = {"error": str(exc), "kind": "usage"}, 2
    except (HypothesisViolation, BudgetExceeded, GadgetSearchError) as exc:
        result = {"error": str(exc), "kind": type(exc).__name__}, 1
    except (OSError, json.JSONDecodeError, FileFormatError) as exc:
        result = {"error": str(exc), "kind": "io"}, 2
    except ValueError as exc:
        result = {"error": str(exc), "kind": "domain"}, 1
    except KeyError as exc:
        msg = str(exc.args[0]) if exc.args else str(exc)
        result = {"error": msg, "kind": "usage"}, 2
    doc, code = result if isinstance(result, tuple) else (result, 0)
    print(doc if isinstance(doc, str) else format_json(doc))
    return code


if __name__ == "__main__":
    raise SystemExit(main())

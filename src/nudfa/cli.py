"""Command-line front end: one executable covering the whole toolbox.

Subcommands map onto the library modules: algebra and congruence-lattice
inspection, trace localization, program compilation, circuit lowering
passes, modular-circuit evaluation and shape checking, decision
procedures, satisfiability gadgets, program-vs-circuit verification, and
the built-in fixture registry.  Every command prints a JSON document on
stdout (DOT where requested).  Exit codes: 0 on success, 1 when an input
falls outside a procedure's domain (wrong structure class, failed
search, exceeded budget, verification mismatch), 2 on usage errors.

Algebras are given either as JSON file paths or as ``fixtures:NAME``
URIs into the registry.  Enumeration caps honor the NUDFA_BUDGET
environment variable, all randomness flows through explicit ``--seed``
options, and identical invocations print byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from . import congruence, lowering, modcircuit
from .algebra import FiniteAlgebra, check_circuit
from .circuits import AlgCircuit
from .compile import (
    HypothesisViolation,
    compile_nilpotent,
    compile_supernilpotent,
)
# ``all_congruences`` is not called here: bench/tests/test_bench_tracer.py
# checks that tracing rebinds this module's name for it.
from .congruence import (  # noqa: F401
    Structure,
    all_congruences,
    is_supernilpotent_algebra,
    structure,
    supernilpotent_rank,
)
from .fieldpoly import parse_dimacs
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
from .partitions import Partition
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


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


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


def _blocks(part: Partition) -> list[list[int]]:
    return sorted(sorted(b) for b in part.blocks())


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
    with open(path) as fh:
        circuit = AlgCircuit.from_json(json.load(fh))
    try:
        check_circuit(algebra, circuit)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return circuit


def _load_cnf(path: str) -> "object":
    with open(path) as fh:
        return parse_dimacs(fh.read())


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


def _lattice_dot(s: Structure) -> str:
    lat = s.lattice
    lines = ["digraph congruences {", "  rankdir=BT;"]
    for i, part in enumerate(lat.elements):
        label = " | ".join(
            ",".join(str(x) for x in b) for b in _blocks(part)
        )
        lines.append(f'  n{i} [label="{i}: {label}"];')
    for lo, hi in lat.covers:
        try:
            tag = str(s.characteristic(lat.elements[lo], lat.elements[hi]))
        except ValueError:
            tag = "?"
        lines.append(f'  n{lo} -> n{hi} [label="{tag}"];')
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


def _cmd_algebra(args) -> int:
    algebra = resolve_algebra(args.algebra)
    _emit(algebra.to_json())
    return 0


def _cmd_con(args) -> int:
    algebra = resolve_algebra(args.algebra)
    s = structure(algebra)
    lat = s.lattice
    if args.format == "dot":
        print(_lattice_dot(s))
        return 0
    covers = []
    for lo, hi in lat.covers:
        try:
            tag: Optional[int] = s.characteristic(
                lat.elements[lo], lat.elements[hi]
            )
        except ValueError:
            tag = None
        covers.append({"lower": lo, "upper": hi, "characteristic": tag})
    doc: dict = {
        "algebra": algebra.name,
        "elements": [
            {"index": i, "blocks": _blocks(part)}
            for i, part in enumerate(lat.elements)
        ],
        "covers": covers,
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
    _emit(doc)
    return 0


def _cmd_localize(args) -> int:
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
    doc = {
        "algebra": algebra.name,
        "pair": {"lower": args.lower, "upper": args.upper},
        "minimal_sets": [
            {
                "universe": sorted(ms.universe),
                "witness": list(ms.witness.values),
                "idempotent": (
                    list(ms.idempotent.values) if ms.idempotent else None
                ),
                "traces": [
                    sorted(t) for t in traces(algebra, ms.universe, lo, hi)
                ],
            }
            for ms in found
        ],
    }
    _emit(doc)
    return 0


def _cmd_compile(args) -> int:
    _require_nonnegative(args.verify_n, "--verify-n")
    program = AlgProgram.load(args.program)
    budget = default_budget()
    if is_supernilpotent_algebra(program.algebra, budget):
        circuit, report = compile_supernilpotent(program, budget)
        reports = [report]
    else:
        circuit, reports = compile_nilpotent(program, budget=budget)
    doc: dict = {
        "algebra": program.algebra.name,
        "n": program.n,
        "shape": shape_of(circuit),
        "gates": len(circuit.gates),
        "size": circuit.size,
        "passes": [asdict(r) for r in reports],
    }
    exit_code = 0
    if args.verify_n is not None:
        bound = min(args.verify_n, 20)
        if program.n <= bound:
            check = verify_harness(program, circuit, bound)
            doc["verified"] = check["match"]
            if not check["match"]:
                doc["mismatch"] = check
                exit_code = 1
        else:
            doc["verified"] = None
    _dump_or_embed(doc, args.out, "circuit", circuit)
    _emit(doc)
    return exit_code


_PASSES = {
    "modm_andd_to_sum": modm_andd_to_sum,
    "unmod": unmod,
    "collapse_5to3": collapse_5to3,
    "finalize_boolean_sum": finalize_boolean_sum,
}


def _cmd_lower(args) -> int:
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
            _emit(doc)
            return 1
    _dump_or_embed(doc, args.out, "circuit", lowered)
    _emit(doc)
    return 0


def _cmd_cceval(args) -> int:
    circuit = CCircuit.load(args.circuit)
    budget = default_budget()
    if args.word is not None:
        bits = _parse_word(args.word, circuit.inputs)
        value = eval_cc(circuit, bits)
        doc = {
            "output": list(value) if isinstance(value, tuple) else int(value)
        }
    else:
        charge(
            1 << circuit.inputs,
            1 << budget.truth_table_bits,
            "circuit truth table",
        )
        doc = {
            "inputs": circuit.inputs,
            "table": cc_table(circuit).tolist(),
        }
    _emit(doc)
    return 0


def _cmd_ccshape(args) -> int:
    circuit = CCircuit.load(args.circuit)
    if args.format == "dot":
        print(_circuit_dot(circuit))
        return 0
    ok, problems = validate_shape(circuit, args.shape)
    doc = {
        "shape": shape_of(circuit),
        "declared_shape": circuit.declared_shape,
        "valid": ok,
        "problems": problems,
    }
    _emit(doc)
    return 0


def _cmd_solve_progcsat(args) -> int:
    _require_nonnegative(args.sample, "--sample")
    program = AlgProgram.load(args.program)
    if args.sample is not None:
        trials = args.sample if args.sample > 0 else None
        res = progcsat_sample(program, trials=trials, seed=args.seed)
    else:
        res = progcsat_exhaustive(program, default_budget())
    _emit(_result_doc(res))
    return 0


def _cmd_solve_csat(args) -> int:
    algebra = resolve_algebra(args.algebra)
    _require_element(algebra.size, args.e)
    circuit = _load_algcircuit(args.circuit, algebra)
    budget = default_budget()
    if args.strategy == "reduce":
        program = csat_to_progcsat(algebra, circuit, args.e)
        res = progcsat_exhaustive(program, budget)
        doc = _result_doc(res)
        doc["level"] = "program"
    else:
        res = csat_exhaustive(algebra, circuit, args.e, budget)
        doc = _result_doc(res)
    _emit(doc)
    return 0


def _cmd_solve_ceqv(args) -> int:
    algebra = resolve_algebra(args.algebra)
    _require_element(algebra.size, args.e)
    circuit = _load_algcircuit(args.circuit, algebra)
    budget = default_budget()
    if args.strategy == "reduce":
        program = ceqv_to_progcsat(algebra, circuit, args.e)
        res = progcsat_exhaustive(program, budget)
        doc = {
            "status": "holds" if res.status == "unsat" else "fails",
            "tried": res.tried,
            "level": "program",
        }
        if res.witness is not None:
            doc["program_word"] = list(res.witness)
    elif args.strategy == "meet":
        res = ceqv_via_meet_irreducibles(algebra, circuit, args.e, budget=budget)
        doc = _result_doc(res)
    else:
        res = ceqv_exhaustive(algebra, circuit, args.e, budget)
        doc = _result_doc(res)
    _emit(doc)
    return 0


def _cmd_gadget_lattice(args) -> int:
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
    _emit(doc)
    return 0


def _cmd_gadget_twoprime(args) -> int:
    algebra = resolve_algebra(args.algebra)
    budget = default_budget()
    try:
        sides = find_two_prime_witness(algebra, budget)
    except GadgetSearchError as exc:
        _emit(
            {
                "error": {"stage": exc.stage, "detail": exc.detail},
                "kind": "witness-failure",
            }
        )
        return 1
    cnf = _load_cnf(args.cnf)
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
    _emit(doc)
    return 0


def _cmd_verify(args) -> int:
    program = AlgProgram.load(args.program)
    circuit = CCircuit.load(args.circuit)
    doc = verify_harness(program, circuit, args.n_bound)
    _emit(doc)
    return 0 if doc["match"] else 1


def _cmd_fixtures(args) -> int:
    if args.demo:
        program = demo_program(args.demo)
        doc: dict = {
            "demo": args.demo,
            "algebra": program.algebra.name,
            "n": program.n,
            "size": program.size,
        }
        _dump_or_embed(doc, args.out, "program", program)
        _emit(doc)
        return 0
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
    _emit({"fixtures": listing, "demos": demo_names()})
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and reused:
    parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="nudfa",
        description=(
            "Programs over finite algebras: congruence analysis,"
            " compilation to modular-counting circuits, and the"
            " satisfiability gadgets around them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="print an algebra's operation tables")
    p.add_argument("--algebra", required=True, metavar="SPEC")
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("con", help="congruence lattice with landmarks")
    p.add_argument("--algebra", required=True, metavar="SPEC")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_con)

    p = sub.add_parser("localize", help="minimal sets and traces of a pair")
    p.add_argument("--algebra", required=True, metavar="SPEC")
    p.add_argument("--lower", type=int, required=True, metavar="INDEX")
    p.add_argument("--upper", type=int, required=True, metavar="INDEX")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("compile", help="program -> modular circuit")
    p.add_argument("--program", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--verify-n", type=int, dest="verify_n", metavar="K")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("lower", help="run one lowering pass")
    p.add_argument("--pass", required=True, dest="pass_name", metavar="NAME")
    p.add_argument("--in", required=True, dest="infile", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--p", type=int, metavar="PRIME")
    p.add_argument("--verify-n", type=int, dest="verify_n", metavar="K")
    p.set_defaults(func=_cmd_lower)

    p = sub.add_parser("cceval", help="evaluate a modular circuit")
    p.add_argument("--circuit", required=True, metavar="FILE")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", metavar="BITS")
    group.add_argument("--table", action="store_true")
    p.set_defaults(func=_cmd_cceval)

    p = sub.add_parser("ccshape", help="validate a circuit's layer shape")
    p.add_argument("--circuit", required=True, metavar="FILE")
    p.add_argument("--shape", metavar="SHAPE")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_ccshape)

    p = sub.add_parser("solve", help="decision procedures")
    ssub = p.add_subparsers(dest="problem", required=True)

    q = ssub.add_parser("progcsat", help="does the program accept a word?")
    q.add_argument("--program", required=True, metavar="FILE")
    q.add_argument(
        "--sample",
        type=int,
        nargs="?",
        const=0,
        metavar="TRIALS",
        help="randomized search (default trials: 4 * size^2)",
    )
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_solve_progcsat)

    q = ssub.add_parser("csat", help="is the equation solvable?")
    q.add_argument("--algebra", required=True, metavar="SPEC")
    q.add_argument("--circuit", required=True, metavar="FILE")
    q.add_argument("--e", type=int, default=0, metavar="ELEMENT")
    q.add_argument("--strategy", choices=("scan", "reduce"), default="scan")
    q.set_defaults(func=_cmd_solve_csat)

    q = ssub.add_parser("ceqv", help="does the equation hold identically?")
    q.add_argument("--algebra", required=True, metavar="SPEC")
    q.add_argument("--circuit", required=True, metavar="FILE")
    q.add_argument("--e", type=int, default=0, metavar="ELEMENT")
    q.add_argument(
        "--strategy", choices=("scan", "meet", "reduce"), default="scan"
    )
    q.set_defaults(func=_cmd_solve_ceqv)

    p = sub.add_parser("gadget", help="CNF satisfiability gadgets")
    gsub = p.add_subparsers(dest="gadget", required=True)

    q = gsub.add_parser("lattice", help="CNF -> program over the 2-lattice")
    q.add_argument("--cnf", required=True, metavar="FILE")
    q.add_argument("--out", metavar="FILE")
    q.set_defaults(func=_cmd_gadget_lattice)

    q = gsub.add_parser(
        "twoprime", help="CNF -> program via the two-prime construction"
    )
    q.add_argument("--algebra", required=True, metavar="SPEC")
    q.add_argument("--cnf", required=True, metavar="FILE")
    q.add_argument("--out", metavar="FILE")
    q.set_defaults(func=_cmd_gadget_twoprime)

    p = sub.add_parser("verify", help="compare a program against a circuit")
    p.add_argument("--program", required=True, metavar="FILE")
    p.add_argument("--circuit", required=True, metavar="FILE")
    p.add_argument("--n-bound", type=int, default=20, dest="n_bound")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fixtures", help="list built-ins or dump a demo")
    p.add_argument("--demo", metavar="NAME")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Each call starts from empty run memos.
    congruence._STRUCTURES.clear()
    lowering._INGEST_CACHE.clear()
    modcircuit._TABLES.clear()
    lowering._conj_normal_form.cache_clear()
    try:
        return args.func(args)
    except UsageError as exc:
        _emit({"error": str(exc), "kind": "usage"})
        return 2
    except (HypothesisViolation, BudgetExceeded, GadgetSearchError) as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__})
        return 1
    except ValueError as exc:
        _emit({"error": str(exc), "kind": "domain"})
        return 1
    except KeyError as exc:
        msg = str(exc.args[0]) if exc.args else str(exc)
        _emit({"error": msg, "kind": "usage"})
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc), "kind": "io"})
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Decision procedures for programs and equations over finite algebras.

Two kinds of questions are answered here.  Program satisfiability: does a
program accept any input word?  Circuit equations: is t(x) = e solvable
(CSat), or does it hold identically (CEqv)?  Each question has a direct
exhaustive procedure, and the equation problems additionally reduce to
program satisfiability through a value-selector polynomial built from
the algebra's Malcev term, read from its ``Structure``.  A
subdirect-decomposition strategy for identities rounds out the toolbox.

The exhaustive procedures scan words in index order and assignments in
``product`` order, and the random sampler its drawn words in draw order,
a block of ``TABLE_BLOCK`` at a time, evaluating the block as numpy
columns (``AlgProgram.accept_column``, ``eval_columns``); the first hit in
the first block that has one is the answer, so witness and ``tried`` count
are those of a one-at-a-time scan.  Every positive answer carries a
witness that has been re-checked on its own through the one-row views
(``AlgProgram.accepts``, ``eval_circuit``); negative answers from the
random sampler are explicitly tagged probabilistic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import FiniteAlgebra, quotient_algebra
from .circuits import (
    AlgCircuit,
    CircuitBuilder,
    eval_circuit,
    eval_columns,
    product_columns,
)
from .compile import HypothesisViolation
from .congruence import is_nilpotent_congruence, structure
from .limits import Budget, charge, default_budget
from .modcircuit import index_blocks
from .programs import AlgProgram, Instruction, map_circuit_constants


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a decision procedure.

    ``status`` is one of "sat", "unsat", "unsat (probabilistic)", "holds",
    "fails".  Satisfying words / solutions land in ``witness``, failing
    assignments in ``counterexample``; both are re-verified before being
    returned.  ``tried`` counts evaluated inputs, ``seed`` is set by the
    random sampler only.
    """

    status: str
    witness: Optional[tuple[int, ...]] = None
    counterexample: Optional[tuple[int, ...]] = None
    tried: int = 0
    seed: Optional[int] = None


# ---------------------------------------------------------------------------
# Program satisfiability
# ---------------------------------------------------------------------------


def progcsat_exhaustive(
    program: AlgProgram, budget: Optional[Budget] = None
) -> SolveResult:
    """Scan all words in index order; first accepted word wins."""
    budget = budget or default_budget()
    n = program.n
    charge(1 << n, 1 << budget.progcsat_bits, "program input words")
    for rows in index_blocks(1 << n):
        hits = np.flatnonzero(program.accept_column(rows))
        if len(hits):
            word = int(rows[hits[0]])
            bits = tuple((word >> i) & 1 for i in range(n))
            if not program.accepts(bits):
                raise AssertionError(f"accepted word {bits} fails on recheck")
            return SolveResult(
                status="sat",
                witness=bits,
                tried=word + 1,
            )
    return SolveResult(status="unsat", tried=1 << n)


def progcsat_sample(
    program: AlgProgram,
    trials: Optional[int] = None,
    seed: int = 0,
) -> SolveResult:
    """Random search for an accepted word; a miss is only probabilistic."""
    if trials is None:
        trials = 4 * program.size**2
    rng = random.Random(seed)
    n = program.n
    for block in index_blocks(trials):
        words = [rng.getrandbits(n) if n else 0 for _ in block]
        hits = np.flatnonzero(
            program.accept_column(np.array(words, np.int64 if n < 64 else object))
        )
        if len(hits):
            word = words[hits[0]]
            bits = tuple((word >> i) & 1 for i in range(n))
            if not program.accepts(bits):
                raise AssertionError(f"accepted word {bits} fails on recheck")
            return SolveResult(
                status="sat",
                witness=bits,
                tried=int(block[hits[0]]) + 1,
                seed=seed,
            )
    return SolveResult(
        status="unsat (probabilistic)",
        tried=trials,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Equations: direct procedures
# ---------------------------------------------------------------------------


def csat_exhaustive(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    e: int,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Is t(x) = e solvable?  Scans the full assignment space."""
    budget = budget or default_budget()
    charge(algebra.size**circuit.k, budget.domain_scan, "assignment scan")
    hit = _first_assignment(algebra, circuit, lambda out: out == e)
    if hit is not None:
        index, args = hit
        if eval_circuit(algebra, circuit, args) != e:
            raise AssertionError(f"solution {args} fails on recheck")
        return SolveResult(
            status="sat",
            witness=args,
            tried=index + 1,
        )
    return SolveResult(status="unsat", tried=algebra.size**circuit.k)


def ceqv_exhaustive(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    e: int,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Does t(x) = e hold for every assignment?"""
    budget = budget or default_budget()
    charge(algebra.size**circuit.k, budget.domain_scan, "assignment scan")
    hit = _first_assignment(algebra, circuit, lambda out: out != e)
    if hit is not None:
        index, args = hit
        if eval_circuit(algebra, circuit, args) == e:
            raise AssertionError(f"counterexample {args} fails on recheck")
        return SolveResult(
            status="fails",
            counterexample=args,
            tried=index + 1,
        )
    return SolveResult(status="holds", tried=algebra.size**circuit.k)


def _first_assignment(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    hit: Callable[[np.ndarray], np.ndarray],
) -> Optional[tuple[int, tuple[int, ...]]]:
    """First assignment in ``product`` order whose output column entry
    ``hit`` marks, with its index; None if there is none.  Scans blocks of
    TABLE_BLOCK assignments."""
    for indices in index_blocks(algebra.size**circuit.k):
        args = product_columns(indices, algebra.size, circuit.k)
        found = np.flatnonzero(hit(eval_columns(algebra, circuit, args)))
        if len(found):
            first = found[0]
            return int(indices[first]), tuple(args[:, first].tolist())
    return None


def _nilpotent_malcev(algebra: FiniteAlgebra) -> AlgCircuit:
    """The algebra's Malcev term, after both preconditions of the equation
    reductions, reported separately.

    The selector argument below needs the difference identities; the
    reductions refuse algebras that are not nilpotent, the class they are
    stated for.
    """
    s = structure(algebra)
    if s.malcev is None:
        raise HypothesisViolation(
            f"no ternary difference polynomial found for {algebra.name}"
        )
    if not is_nilpotent_congruence(s, s.lattice.one):
        raise HypothesisViolation("the algebra is not nilpotent")
    return s.malcev


# ---------------------------------------------------------------------------
# Equations -> programs
# ---------------------------------------------------------------------------


def _value_selector(algebra: FiniteAlgebra, malcev: AlgCircuit) -> AlgCircuit:
    """(size-1)-ary circuit f with f(0,..,0)=0 and f(0,..,a,..,0)=a.

    Chains the difference circuit: f(x1,..,xk) = d(..d(d(x1,0,x2),0,x3)..).
    Fed with each argument either 0 or its designated nonzero element, a
    single active argument selects exactly that element.
    """
    k = algebra.size - 1
    b = CircuitBuilder(k)
    zero = b.const(0)
    acc = b.var(0)
    for i in range(1, k):
        acc = b.inline(malcev, [acc, zero, b.var(i)])
    return b.finish(acc)


def csat_to_progcsat(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    e: int,
) -> AlgProgram:
    """Program that accepts some word iff t(x) = e has a solution.

    Each circuit variable is replaced by a value selector over size-1 fresh
    program variables; bit (i, j) switches variable i's candidate j between
    the zero element and the nonzero element j+1.  Every assignment over the
    algebra is reachable by activating at most one bit per block, and every
    word produces some assignment, so acceptance is exactly solvability.
    """
    malcev = _nilpotent_malcev(algebra)
    size = algebra.size
    if size < 2:
        raise ValueError("need at least two elements")
    k = size - 1
    selector = _value_selector(algebra, malcev)
    b = CircuitBuilder(circuit.k * k)
    selected = []
    for i in range(circuit.k):
        selected.append(b.inline(selector, [b.var(i * k + j) for j in range(k)]))
    out = b.inline(circuit, selected)
    prog_circuit = b.finish(out)
    instrs = tuple(
        Instruction(var=i * k + j, bit=i * k + j, a0=0, a1=j + 1)
        for i in range(circuit.k)
        for j in range(k)
    )
    return AlgProgram(
        algebra=algebra,
        circuit=prog_circuit,
        n=circuit.k * k,
        instructions=instrs,
        accepting=frozenset({e}),
    )


def ceqv_to_progcsat(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    e: int,
) -> AlgProgram:
    """Program that accepts no word iff t(x) = e holds identically.

    Same selector construction as the solvability reduction, but accepting
    exactly the non-e values: an accepted word is a counterexample."""
    prog = csat_to_progcsat(algebra, circuit, e)
    complement = frozenset(range(algebra.size)) - {e}
    return AlgProgram(
        algebra=prog.algebra,
        circuit=prog.circuit,
        n=prog.n,
        instructions=prog.instructions,
        accepting=complement,
    )


# ---------------------------------------------------------------------------
# Structural reductions
# ---------------------------------------------------------------------------


def ceqv_via_meet_irreducibles(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    e: int,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Check t(x) = e in every subdirectly irreducible quotient instead.

    An identity holds iff it holds modulo every meet-irreducible
    congruence.  A failure in a quotient is pulled back along least class
    representatives and re-verified in the original algebra.
    """
    budget = budget or default_budget()
    lat = structure(algebra, budget).lattice
    tried = 0
    for theta in lat.meet_irreducibles():
        quo, mapping = quotient_algebra(algebra, theta)
        charge(quo.size**circuit.k, budget.domain_scan, "quotient scan")
        mapped = map_circuit_constants(circuit, mapping)
        target = mapping[e]
        reps = {}
        for x in range(algebra.size):
            reps.setdefault(mapping[x], x)
        hit = _first_assignment(quo, mapped, lambda out: out != target)
        if hit is not None:
            index, args = hit
            lifted = tuple(reps[a] for a in args)
            got = eval_circuit(algebra, circuit, lifted)
            if got == e:
                raise AssertionError("pulled-back counterexample evaporated")
            return SolveResult(
                status="fails",
                counterexample=lifted,
                tried=tried + index + 1,
            )
        tried += quo.size**circuit.k
    return SolveResult(status="holds", tried=tried)

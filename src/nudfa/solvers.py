"""Decision procedures for programs and equations over finite algebras.

Two kinds of questions are answered here.  Program satisfiability: does a
program accept any input word?  Circuit equations: is t(x) = e solvable
(CSat), or does it hold identically (CEqv)?  Each question has a direct
exhaustive procedure, and the equation problems additionally reduce to
program satisfiability through a value-selector polynomial built from
the algebra's Malcev term, read from its ``Structure``.  A
subdirect-decomposition strategy for identities rounds out the toolbox.

CEqv is the refutation of the solvability of t(x) != e, so one scan
(``_scan_equation``) answers both equation questions, looking for an
output equal to e or for one that differs, and one selector program
serves both reductions, accepting {e} or its complement.

The exhaustive procedures scan assignments in ``product`` order and words
in index order as one grid (``_first_hit``): each gate the output reads is
evaluated on an open grid over the variables it reads, so a term that
reads two of k variables costs n^2 entries, not n^k, and the scan budget
is charged those entries.  The first hit is the answer, with the witness
and ``tried`` count of a one-at-a-time scan.  The random sampler evaluates
its drawn words in draw order, a block of ``TABLE_BLOCK`` at a time
(``AlgProgram.accept_column``).  Every positive answer carries a witness
that has been re-checked on its own through the one-row views
(``AlgProgram.accepts``, ``eval_circuit``); negative answers from the
random sampler are explicitly tagged probabilistic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Optional

import numpy as np

from . import modcircuit
from .algebra import FiniteAlgebra
from .circuits import (
    VAR,
    AlgCircuit,
    CircuitBuilder,
    eval_circuit,
    eval_columns,
    subcircuit,
)
from .compile import HypothesisViolation
from .congruence import is_nilpotent_congruence, structure
from .limits import Budget, charge, default_budget
from .modcircuit import index_blocks
from .programs import AlgProgram, Instruction


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
    places = [None] * program.circuit.k
    for ins in program.instructions:
        places[ins.var] = (n - 1 - ins.bit, (ins.a0, ins.a1))
    accepting = sorted(program.accepting)
    hit = _first_hit(program.algebra, program.circuit, [2] * n, places,
                     lambda out: np.isin(out, accepting),
                     1 << budget.progcsat_bits, "program input words")
    if hit is None:
        return SolveResult(status="unsat", tried=1 << n)
    word, digits = hit
    bits = tuple(reversed(digits))
    if not program.accepts(bits):
        raise AssertionError(f"accepted word {bits} fails on recheck")
    return SolveResult(status="sat", witness=bits, tried=word + 1)


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
    return _scan_equation(algebra, circuit, e, budget, solvable=True)


def ceqv_exhaustive(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    e: int,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Does t(x) = e hold for every assignment?"""
    return _scan_equation(algebra, circuit, e, budget, solvable=False)


def _scan_equation(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    e: int,
    budget: Optional[Budget],
    solvable: bool,
) -> SolveResult:
    """The first assignment in ``product`` order with t(x) = e, a solution,
    when ``solvable`` asks for one; else the first with t(x) != e, a
    counterexample to the identity.  Either is re-checked on its own."""
    budget = budget or default_budget()
    n, k = algebra.size, circuit.k
    hit = _first_hit(algebra, circuit, [n] * k, [(i, range(n)) for i in range(k)],
                     (lambda out: out == e) if solvable else (lambda out: out != e),
                     budget.domain_scan, "assignment scan")
    if hit is None:
        return SolveResult(status="unsat" if solvable else "holds", tried=n**k)
    index, args = hit
    if (eval_circuit(algebra, circuit, args) == e) != solvable:
        raise AssertionError(f"assignment {args} fails on recheck")
    if solvable:
        return SolveResult(status="sat", witness=args, tried=index + 1)
    return SolveResult(status="fails", counterexample=args, tried=index + 1)


def _first_hit(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    radices: list[int],
    places: list,
    hit: Callable[[np.ndarray], np.ndarray],
    cap: int,
    what: str,
) -> Optional[tuple[int, tuple[int, ...]]]:
    """The first point of a grid, in mixed-radix order with axis 0 most
    significant, at which ``hit`` marks the output: its index and digits,
    or None.  Axis a has ``radices[a]`` points; ``places[v] = (a, values)``
    gives variable v the value ``values[d]`` at digit d of axis a, and two
    variables may share an axis.

    Only the gates the output reads are evaluated, and only the axes of
    the variables it reads are scanned, as an open grid on which every gate
    spans the axes it reads; digits off them are 0, which keeps the index
    that of the whole grid's first hit.  The scanned entries, the product
    of those axes' radices, are charged against ``cap`` as ``what``.  A
    block fixes leading axes so that every array holds at most TABLE_BLOCK
    entries.
    """
    circuit = subcircuit(circuit.k, circuit.nodes, circuit.output)
    axes = sorted({places[node[1]][0] for node in circuit.nodes if node[0] == VAR})
    charge(math.prod(radices[a] for a in axes), cap, what)
    split = len(axes)
    while split and math.prod(
        radices[a] for a in axes[split - 1:]
    ) <= modcircuit.TABLE_BLOCK:
        split -= 1
    fixed, spans = axes[:split], axes[split:]
    grid = dict(zip(spans, np.ix_(*(range(radices[a]) for a in spans))))
    dtype = np.min_scalar_type(algebra.size - 1)
    places = [(a, np.asarray(values, dtype)) for a, values in places]
    for prefix in product(*(range(radices[a]) for a in fixed)):
        digits = dict(zip(fixed, prefix))
        args = [values[grid[a]] if a in grid else values[digits.get(a, 0)]
                for a, values in places]
        found = np.flatnonzero(hit(eval_columns(algebra, circuit, args)))
        if len(found):
            shape = [radices[a] for a in spans]
            digits.update(zip(spans, np.unravel_index(found[0], shape)))
            point = tuple(int(digits.get(a, 0)) for a in range(len(radices)))
            index = 0
            for d, r in zip(point, radices):
                index = index * r + d
            return index, point
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
    return replace(
        csat_to_progcsat(algebra, circuit, e),
        accepting=frozenset(range(algebra.size)) - {e},
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
    congruence theta.  A/theta is read on A: each variable ranges over the
    least members of the theta-classes, in order, and a hit is an output
    whose class is not e's, as in the quotient algebra with its blocks
    numbered by least member.  A failure is such a tuple of least class
    members, re-verified in the original algebra.
    """
    budget = budget or default_budget()
    lat = structure(algebra, budget).lattice
    tried = 0
    for theta in lat.meet_irreducibles():
        cls = np.asarray(theta.class_of)
        reps = sorted(set(theta.class_of))
        hit = _first_hit(algebra, circuit, [len(reps)] * circuit.k,
                         [(i, reps) for i in range(circuit.k)],
                         lambda out: cls[out] != cls[e],
                         budget.domain_scan, "quotient scan")
        if hit is not None:
            index, point = hit
            lifted = tuple(reps[d] for d in point)
            got = eval_circuit(algebra, circuit, lifted)
            if got == e:
                raise AssertionError("pulled-back counterexample evaporated")
            return SolveResult(
                status="fails",
                counterexample=lifted,
                tried=tried + index + 1,
            )
        tried += len(reps)**circuit.k
    return SolveResult(status="holds", tried=tried)

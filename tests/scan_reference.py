"""Reference oracles: the per-assignment scans the column evaluators replaced.

``progcsat_exhaustive``, ``progcsat_sample``, ``csat_exhaustive``,
``ceqv_exhaustive`` and ``ceqv_via_meet_irreducibles`` below are the
earlier implementations of the functions of the same names in
``nudfa.solvers``, kept as they were.  They
evaluate one word or assignment at a time with the one-word interpreters
of ``eval_reference`` and serve as differential oracles for the block
scans: the same status, witness or counterexample, ``tried`` count and
budget charges.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Optional

from eval_reference import accepts, eval_circuit

from nudfa.algebra import FiniteAlgebra, quotient_algebra
from nudfa.circuits import AlgCircuit
from nudfa.congruence import CongruenceLattice, all_congruences
from nudfa.limits import Budget, charge, default_budget
from nudfa.programs import AlgProgram, map_circuit_constants
from nudfa.solvers import SolveResult


def progcsat_exhaustive(
    program: AlgProgram, budget: Optional[Budget] = None
) -> SolveResult:
    """Scan all words in index order; first accepted word wins."""
    budget = budget or default_budget()
    n = program.n
    charge(1 << n, 1 << budget.progcsat_bits, "program input words")
    for word in range(1 << n):
        bits = tuple((word >> i) & 1 for i in range(n))
        if accepts(program, bits):
            return SolveResult(
                status="sat",
                witness=bits,
                tried=word + 1,
            )
    return SolveResult(
        status="unsat", tried=1 << n
    )


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
    for t in range(trials):
        word = rng.getrandbits(n) if n else 0
        bits = tuple((word >> i) & 1 for i in range(n))
        if accepts(program, bits):
            return SolveResult(
                status="sat",
                witness=bits,
                tried=t + 1,
                seed=seed,
            )
    return SolveResult(
        status="unsat (probabilistic)",
        tried=trials,
        seed=seed,
    )


def csat_exhaustive(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    e: int,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Is t(x) = e solvable?  Scans the full assignment space."""
    budget = budget or default_budget()
    charge(algebra.size**circuit.k, budget.domain_scan, "assignment scan")
    tried = 0
    for args in product(range(algebra.size), repeat=circuit.k):
        tried += 1
        if eval_circuit(algebra, circuit, args) == e:
            return SolveResult(
                status="sat",
                witness=args,
                tried=tried,
            )
    return SolveResult(
        status="unsat", tried=tried
    )


def ceqv_exhaustive(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    e: int,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Does t(x) = e hold for every assignment?"""
    budget = budget or default_budget()
    charge(algebra.size**circuit.k, budget.domain_scan, "assignment scan")
    tried = 0
    for args in product(range(algebra.size), repeat=circuit.k):
        tried += 1
        if eval_circuit(algebra, circuit, args) != e:
            return SolveResult(
                status="fails",
                counterexample=args,
                tried=tried,
            )
    return SolveResult(
        status="holds", tried=tried
    )


def ceqv_via_meet_irreducibles(
    algebra: FiniteAlgebra,
    circuit: AlgCircuit,
    e: int,
    lat: Optional[CongruenceLattice] = None,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Check t(x) = e in every subdirectly irreducible quotient instead.

    An identity holds iff it holds modulo every meet-irreducible
    congruence.  A failure in a quotient is pulled back along least class
    representatives and re-verified in the original algebra.
    """
    budget = budget or default_budget()
    if lat is None:
        lat = all_congruences(algebra, budget=budget)
    tried = 0
    for theta in lat.meet_irreducibles():
        quo, mapping = quotient_algebra(algebra, theta)
        charge(quo.size**circuit.k, budget.domain_scan, "quotient scan")
        mapped = map_circuit_constants(circuit, mapping)
        target = mapping[e]
        reps = {}
        for x in range(algebra.size):
            reps.setdefault(mapping[x], x)
        for args in product(range(quo.size), repeat=circuit.k):
            tried += 1
            if eval_circuit(quo, mapped, args) != target:
                lifted = tuple(reps[a] for a in args)
                got = eval_circuit(algebra, circuit, lifted)
                if got == e:
                    raise AssertionError("pulled-back counterexample evaporated")
                return SolveResult(
                    status="fails",
                    counterexample=lifted,
                    tried=tried,
                )
    return SolveResult(
        status="holds", tried=tried
    )

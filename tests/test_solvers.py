"""Decision procedures and their reductions agree with exhaustive scans."""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import eval_reference
import scan_reference as reference
from conftest import random_alg_circuit, random_program, variable_circuit

from nudfa import modcircuit, solvers
from nudfa.circuits import (
    CONST,
    GATE,
    VAR,
    AlgCircuit,
    CircuitBuilder,
    constant_circuit,
    eval_circuit,
)
from nudfa.compile import HypothesisViolation
from nudfa.fieldpoly import parse_dimacs
from nudfa.fixtures import demo_program, fixture_names, get_fixture
from nudfa.hardness import cnf_to_lattice_program
from nudfa.limits import BudgetExceeded, default_budget
from nudfa.programs import AlgProgram, Instruction
from nudfa.solvers import (
    ceqv_exhaustive,
    ceqv_to_progcsat,
    ceqv_via_meet_irreducibles,
    csat_exhaustive,
    csat_to_progcsat,
    progcsat_exhaustive,
    progcsat_sample,
)

# About twice the measured peak of the 6^6-assignment scan below.
PEAK_SCAN_BYTES = 384 * 1024
# About twice the measured peak of the 2^16-word scan below; one int index
# array over all 2^16 words would take 512 KiB.
PEAK_WORD_SCAN_BYTES = 320 * 1024


def repeated_sum(algebra, times):
    """Circuit computing x + x + ... (times copies) in one variable."""
    b = CircuitBuilder(1)
    acc = b.var(0)
    for _ in range(times - 1):
        acc = b.gate("+", acc, b.var(0))
    return b.finish(acc)


# -- program satisfiability --------------------------------------------------


def test_exhaustive_program_search_finds_the_lexically_first_witness():
    res = progcsat_exhaustive(demo_program("and2_z6"))
    assert res.status == "sat"
    assert res.witness == (1, 1)
    assert res.tried == 4


def test_exhaustive_program_search_reports_unsat():
    empty = replace(demo_program("and2_z6"), accepting=frozenset())
    res = progcsat_exhaustive(empty)
    assert res.status == "unsat"
    assert res.witness is None and res.tried == 4


def test_sampler_verifies_witnesses_and_tags_misses():
    prog = demo_program("or2_lat2")
    res = progcsat_sample(prog, trials=50, seed=3)
    assert res.status == "sat"
    assert prog.accepts(res.witness)
    assert res.seed == 3
    miss = progcsat_sample(replace(prog, accepting=frozenset()), trials=20, seed=3)
    assert miss.status == "unsat (probabilistic)"
    assert miss.tried == 20


def test_sampler_is_deterministic_for_a_fixed_seed():
    prog = demo_program("parity2_z2")
    a = progcsat_sample(prog, trials=10, seed=7)
    b = progcsat_sample(prog, trials=10, seed=7)
    assert (a.status, a.witness, a.tried, a.seed) == (
        b.status, b.witness, b.tried, b.seed
    )


def test_program_scan_respects_the_word_budget():
    prog = demo_program("and2_z6")
    tight = replace(default_budget(), progcsat_bits=1)
    with pytest.raises(BudgetExceeded):
        progcsat_exhaustive(prog, tight)


def test_scans_charge_the_grid_they_open_not_the_space():
    """A 30-bit program that reads 2 bits opens a grid of 4 words, and
    x0 + x1 over Z6 with 12 or 15 variables one of 36 assignments (9 and 4
    in the quotients), so all are decided; their nominal spaces, 2^30 and
    6^12 or 3^15, exceed the caps.  ``tried`` still counts the one-at-a-
    time scan: the hit's index + 1, or the whole space."""
    prog = and_of_bits(30, (3, 17))
    res = progcsat_exhaustive(prog)
    assert res.status == "sat" and res.tried == (1 << 3 | 1 << 17) + 1
    assert res.witness == tuple(int(i in (3, 17)) for i in range(30))
    unsat = replace(prog, accepting=frozenset())
    assert outcome(progcsat_exhaustive(unsat)) == ("unsat", None, None, 1 << 30)

    z6 = get_fixture("Z6").algebra
    for k in (12, 15):
        b = CircuitBuilder(k)
        pair = b.gate("+", b.var(0), b.var(1))
        plus = b.finish(pair)
        acc = pair
        for _ in range(5):
            acc = b.gate("+", acc, pair)
        zero = b.finish(acc)  # six times x0 + x1
        rest = (0,) * (k - 2)
        assert outcome(csat_exhaustive(z6, plus, 5)) == (
            "sat", (0, 5) + rest, None, 5 * 6 ** (k - 2) + 1
        )
        assert outcome(ceqv_exhaustive(z6, plus, 0)) == (
            "fails", None, (0, 1) + rest, 6 ** (k - 2) + 1
        )
        assert outcome(ceqv_exhaustive(z6, zero, 0)) == ("holds", None, None, 6**k)
        assert outcome(ceqv_via_meet_irreducibles(z6, zero, 0)) == (
            "holds", None, None, 2**k + 3**k
        )
        assert ceqv_via_meet_irreducibles(z6, plus, 0).status == "fails"


def test_scans_prune_only_circuits_with_unread_nodes():
    """A circuit whose output reads every node, as ``CircuitBuilder.finish``
    and the lattice gadget build them, is scanned as it is; one with an
    unread gate is pruned once.  Each answers as the reference scan does."""
    z6 = get_fixture("Z6").algebra
    b = CircuitBuilder(2)
    read = b.finish(b.gate("+", b.var(0), b.var(1)))
    unread = AlgCircuit(2, read.nodes + ((GATE, "+", (0, 0)),), read.output)
    cnf = (Path(__file__).resolve().parent / "golden" / "inputs" / "sat.cnf").read_text()
    lattice = cnf_to_lattice_program(parse_dimacs(cnf))
    for circuit, prunes in ((read, 0), (unread, 1)):
        with mock.patch.object(solvers, "subcircuit", wraps=solvers.subcircuit) as spy:
            for e in range(z6.size):
                assert outcome(csat_exhaustive(z6, circuit, e)) == outcome(
                    reference.csat_exhaustive(z6, circuit, e)
                )
        assert spy.call_count == prunes * z6.size
    with mock.patch.object(solvers, "subcircuit", wraps=solvers.subcircuit) as spy:
        assert outcome(progcsat_exhaustive(lattice)) == outcome(
            reference.progcsat_exhaustive(lattice)
        )
    assert spy.call_count == 0


def test_scans_that_read_too_much_are_refused_as_before():
    """Reading 25 bits, or 10 variables over Z6, still exceeds the caps,
    with the messages of a charge on the nominal space."""
    prog = replace(and_of_bits(25, tuple(range(25))), accepting=frozenset())
    with pytest.raises(
        BudgetExceeded, match="^program input words: 33554432 exceeds cap 16777216$"
    ):
        progcsat_exhaustive(prog)
    z6 = get_fixture("Z6").algebra
    b = CircuitBuilder(10)
    acc = b.var(0)
    for i in range(1, 10):
        acc = b.gate("+", acc, b.var(i))
    total = b.finish(acc)
    for scan in (csat_exhaustive, ceqv_exhaustive):
        with pytest.raises(
            BudgetExceeded, match="^assignment scan: 60466176 exceeds cap 10000000$"
        ):
            scan(z6, total, 0)
    with pytest.raises(BudgetExceeded, match="^quotient scan: 1024 exceeds cap 1000$"):
        ceqv_via_meet_irreducibles(z6, total, 0, replace(default_budget(), domain_scan=1000))


# -- direct equation procedures ----------------------------------------------


def test_solvability_scan_over_the_cyclic_group():
    z6 = get_fixture("Z6").algebra
    double = repeated_sum(z6, 2)
    assert csat_exhaustive(z6, double, 4).witness == (2,)
    assert csat_exhaustive(z6, double, 3).status == "unsat"


def test_identity_scan_over_the_cyclic_group():
    z6 = get_fixture("Z6").algebra
    assert ceqv_exhaustive(z6, repeated_sum(z6, 6), 0).status == "holds"
    res = ceqv_exhaustive(z6, repeated_sum(z6, 2), 0)
    assert res.status == "fails"
    assert res.counterexample == (1,)


def test_equation_reductions_refuse_an_algebra_without_a_difference_term():
    """The lattice has no Malcev polynomial, so its structure offers no
    term to build the value selector from."""
    lat2 = get_fixture("LAT2").algebra
    b = CircuitBuilder(1)
    circ = b.finish(b.gate("and", b.var(0), b.var(0)))
    reductions = (
        lambda: csat_to_progcsat(lat2, circ, 0),
        lambda: ceqv_to_progcsat(lat2, circ, 0),
    )
    for reduce in reductions:
        with pytest.raises(
            HypothesisViolation, match="^no ternary difference polynomial found for LAT2$"
        ):
            reduce()


def test_equation_reductions_reject_non_nilpotent_algebras():
    fx = get_fixture("S3")
    b = CircuitBuilder(1)
    circ = b.finish(b.gate("*", b.var(0), b.var(0)))
    with pytest.raises(HypothesisViolation, match="nilpotent"):
        csat_to_progcsat(fx.algebra, circ, 0)


# -- equation-to-program reductions ------------------------------------------


@pytest.mark.parametrize("name", ("Z2", "Z6", "Z6%2"))
def test_solvability_reduction_agrees_with_the_scan(name):
    rng = random.Random(sum(map(ord, name)))
    alg = get_fixture(name).algebra
    for _ in range(6):
        k = rng.randint(1, 2)
        circ = random_alg_circuit(rng, alg, k, 4)
        e = rng.randrange(alg.size)
        want = csat_exhaustive(alg, circ, e).status
        prog = csat_to_progcsat(alg, circ, e)
        assert prog.n == k * (alg.size - 1)
        got = progcsat_exhaustive(prog).status
        assert got == want, (name, circ.to_json(), e)


@pytest.mark.parametrize("name", ("Z2", "Z6", "Z6%2"))
def test_identity_reduction_agrees_with_the_scan(name):
    rng = random.Random(2 * sum(map(ord, name)))
    alg = get_fixture(name).algebra
    for _ in range(6):
        k = rng.randint(1, 2)
        circ = random_alg_circuit(rng, alg, k, 4)
        e = rng.randrange(alg.size)
        want = ceqv_exhaustive(alg, circ, e).status
        prog = ceqv_to_progcsat(alg, circ, e)
        got = progcsat_exhaustive(prog).status
        assert (got == "unsat") == (want == "holds")


@pytest.mark.parametrize("name", ("Z6", "Z6%2", "S3"))
def test_meet_irreducible_strategy_matches_the_scan(name):
    rng = random.Random(len(name))
    alg = get_fixture(name).algebra
    op = alg.ops[0].name
    for _ in range(6):
        k = rng.randint(1, 2)
        circ = random_alg_circuit(rng, alg, k, 4)
        e = rng.randrange(alg.size)
        want = ceqv_exhaustive(alg, circ, e)
        got = ceqv_via_meet_irreducibles(alg, circ, e)
        assert got.status == want.status
        if got.status == "fails":
            assert eval_circuit(alg, circ, got.counterexample) != e


# -- every decision route gives one answer ----------------------------------

# Outside the reductions' class: LAT2 has no Malcev term, S3 is not nilpotent.
REDUCE_REFUSES = {"LAT2", "S3"}


def reduced(reduction, algebra, circuit, e, name):
    """The reduction's program and its exhaustive answer, or two Nones
    where the algebra is outside the reductions' class."""
    try:
        prog = reduction(algebra, circuit, e)
    except HypothesisViolation:
        assert name in REDUCE_REFUSES
        return None, None
    assert name not in REDUCE_REFUSES
    return prog, progcsat_exhaustive(prog)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(fixture_names()), st.integers(0, 4), st.data())
def test_every_decision_route_gives_one_answer(name, k, data):
    """csat by scan and reduce, ceqv by scan, meet and reduce: one status,
    and every witness re-checks.  The reductions may refuse an algebra
    outside their class, with HypothesisViolation only.  A sampled "sat"
    of a program is an exhaustive "sat" too, and its word is accepted."""
    alg = get_fixture(name).algebra
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    circ = circuit_with_dead_gates(rng, alg, k)
    e = data.draw(st.integers(0, alg.size - 1))

    scan = csat_exhaustive(alg, circ, e)
    if scan.status == "sat":
        assert eval_circuit(alg, circ, scan.witness) == e
    sat_prog, sat_reduced = reduced(csat_to_progcsat, alg, circ, e, name)
    if sat_reduced is not None:
        assert sat_reduced.status == scan.status
        if scan.status == "sat":
            assert sat_prog.accepts(sat_reduced.witness)

    routes = [ceqv_exhaustive(alg, circ, e), ceqv_via_meet_irreducibles(alg, circ, e)]
    for res in routes:
        if res.status == "fails":
            assert eval_circuit(alg, circ, res.counterexample) != e
    eqv_prog, eqv_reduced = reduced(ceqv_to_progcsat, alg, circ, e, name)
    if eqv_reduced is not None:
        if eqv_reduced.status == "sat":
            assert eqv_prog.accepts(eqv_reduced.witness)
        routes.append(replace(
            eqv_reduced, status={"sat": "fails", "unsat": "holds"}[eqv_reduced.status]
        ))
    assert len({res.status for res in routes}) == 1

    program = random_program(rng, alg, rng.randrange(1, 9), 6)
    checks = [(sat_prog, sat_reduced), (eqv_prog, eqv_reduced),
              (program, progcsat_exhaustive(program))]
    for prog, exhaustive in checks:
        if prog is None:
            continue
        sample = progcsat_sample(prog, 32, seed=rng.randrange(100))
        if sample.status == "sat":
            assert prog.accepts(sample.witness)
            assert exhaustive.status == "sat"


# -- block scans against the per-assignment loops ---------------------------


def outcome(res):
    return (res.status, res.witness, res.counterexample, res.tried)


def circuit_with_dead_gates(rng, algebra, k):
    """A random circuit in k variables whose output is a random node: the
    gates after it stay in the circuit unread, and may read variables the
    output does not; the output may be a variable, a constant, or a gate
    that reads no variable."""
    nodes = [(VAR, i) for i in range(k)]
    nodes += [(CONST, rng.randrange(algebra.size)) for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randrange(1, 7)):
        op = rng.choice(algebra.ops)
        below = rng.randrange(k, len(nodes)) if rng.random() < 0.2 else 0
        children = tuple(rng.randrange(below, len(nodes)) for _ in range(op.arity))
        nodes.append((GATE, op.name, children))
    return AlgCircuit(k, tuple(nodes), rng.randrange(len(nodes)))


def program_on_few_bits(rng, circuit, algebra, n):
    """A program over ``circuit`` on n bits whose instructions read only
    bits below a random bound: two variables often share a bit, and the
    bits above the bound are read by no instruction."""
    bound = rng.randint(1, n)
    instrs = tuple(
        Instruction(v, rng.randrange(bound), rng.randrange(algebra.size),
                    rng.randrange(algebra.size))
        for v in range(circuit.k)
    )
    accepting = frozenset(x for x in range(algebra.size) if rng.random() < 0.4)
    return AlgProgram(algebra, circuit, n, instrs, accepting)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["LAT2", "Z2", "Z3", "Z6", "Z6%2", "S3"]),
    st.integers(0, 5),
    st.integers(0, 2**32),
    st.sampled_from([1, 3, 4, 4096]),
)
def test_scans_match_the_per_assignment_reference(name, k, seed, block):
    """Up to five variables on the fixtures of at most three elements, up
    to three on the others; circuits with dead gates and outputs that read
    no variable, and programs whose variables share bits or leave bits
    unread, besides random programs."""
    rng = random.Random(seed)
    alg = get_fixture(name).algebra
    if alg.size > 3:
        k = min(k, 3)
    circ = circuit_with_dead_gates(rng, alg, k)
    progs = [
        random_program(rng, alg, rng.randrange(1, 8), 6),
        program_on_few_bits(rng, circ, alg, rng.randrange(1, 8)),
    ]
    with mock.patch.object(modcircuit, "TABLE_BLOCK", block):
        for prog in progs:
            assert outcome(progcsat_exhaustive(prog)) == outcome(
                reference.progcsat_exhaustive(prog)
            )
            trials = rng.randrange(12)
            assert progcsat_sample(prog, trials, seed) == reference.progcsat_sample(
                prog, trials, seed
            )
        for e in range(alg.size):
            for new, old in (
                (csat_exhaustive, reference.csat_exhaustive),
                (ceqv_exhaustive, reference.ceqv_exhaustive),
                (ceqv_via_meet_irreducibles,
                 reference.ceqv_via_meet_irreducibles),
            ):
                assert outcome(new(alg, circ, e)) == outcome(old(alg, circ, e))


def and_of_bits(n, bits):
    """Program over LAT2 accepting the words with every bit in ``bits`` set;
    the first is word sum(2**b), and no bits give a 0-variable circuit."""
    lat = get_fixture("LAT2").algebra
    b = CircuitBuilder(len(bits))
    acc = b.const(1)
    for i in range(len(bits)):
        acc = b.gate("and", acc, b.var(i))
    return AlgProgram(
        lat, b.finish(acc), n,
        tuple(Instruction(i, bit, 0, 1) for i, bit in enumerate(bits)),
        frozenset({1}),
    )


@pytest.mark.parametrize(
    "bits, first",
    [((), 0), ((0, 1), 3), ((2,), 4), ((0, 1, 2), 7)],
    ids=["row0-k0", "block-end", "block-start", "last-row"],
)
def test_program_scan_hits_around_block_boundaries(bits, first):
    prog = and_of_bits(3, bits)
    with mock.patch.object(modcircuit, "TABLE_BLOCK", 4):
        res = progcsat_exhaustive(prog)
    assert outcome(res) == outcome(reference.progcsat_exhaustive(prog))
    assert res.tried == first + 1
    unsat = replace(prog, accepting=frozenset())
    with mock.patch.object(modcircuit, "TABLE_BLOCK", 4):
        assert outcome(progcsat_exhaustive(unsat)) == ("unsat", None, None, 8)


def test_sampler_and_accepts_read_words_wider_than_an_int64():
    """A 70-bit word's index does not fit int64; the sampler and the
    one-row view still read such words, as the one-word reference does."""
    prog = and_of_bits(70, (0, 33, 69))
    for word in ([1] * 70, [1] * 69 + [0], [0] * 70):
        assert prog.accepts(word) == eval_reference.accepts(prog, word)
    res = progcsat_sample(prog, 64, seed=5)
    assert res.status == "sat"
    assert res == reference.progcsat_sample(prog, 64, seed=5)


@pytest.mark.parametrize("block", [1, 3, 4, 7, 4096])
def test_equation_scans_hit_around_block_boundaries(block):
    z6 = get_fixture("Z6").algebra
    lat = get_fixture("LAT2").algebra
    b = CircuitBuilder(2)
    meet = b.finish(b.gate("and", b.var(0), b.var(1)))
    cases = [
        (z6, variable_circuit(2, 1), e) for e in range(6)
    ] + [
        (lat, meet, 0), (lat, meet, 1),  # first hit on the last row
        (z6, constant_circuit(0, 2), 2), (z6, constant_circuit(0, 2), 3),
    ]
    with mock.patch.object(modcircuit, "TABLE_BLOCK", block):
        for alg, circ, e in cases:
            for new, old in (
                (csat_exhaustive, reference.csat_exhaustive),
                (ceqv_exhaustive, reference.ceqv_exhaustive),
                (ceqv_via_meet_irreducibles,
                 reference.ceqv_via_meet_irreducibles),
            ):
                assert outcome(new(alg, circ, e)) == outcome(old(alg, circ, e))


def test_assignment_scan_memory_stays_bounded():
    """A full 6^6-assignment scan holds a block of columns, not the space."""
    alg = get_fixture("Z6%2").algebra
    b = CircuitBuilder(6)
    terms = [b.gate("%2", b.gate("+", b.var(i), b.var(i))) for i in range(6)]
    acc = terms[0]
    for t in terms[1:]:
        acc = b.gate("+", acc, t)
    identity = b.finish(acc)
    tracemalloc.start()
    try:
        res = ceqv_exhaustive(alg, identity, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome(res) == ("holds", None, None, 6**6)
    assert peak < PEAK_SCAN_BYTES, peak


def test_program_scan_memory_stays_bounded():
    """A full scan of the 2^16 words of a program whose output reads every
    bit holds a block of the grid, not the whole grid."""
    prog = replace(and_of_bits(16, tuple(range(16))), accepting=frozenset())
    tracemalloc.start()
    try:
        res = progcsat_exhaustive(prog)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome(res) == ("unsat", None, None, 1 << 16)
    assert peak < PEAK_WORD_SCAN_BYTES, peak

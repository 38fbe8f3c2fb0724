"""Shared helpers: random generators and suite-wide timing.

The acceptance module's wall-clock criterion must observe the whole
session, so collection is reordered to run it last.
"""

from __future__ import annotations

import itertools
import random
import sys
import time

import pytest
from hypothesis import strategies as st

from nudfa.algebra import FiniteAlgebra, Operation, make_op, quotient_algebra
from nudfa.circuits import AlgCircuit, CircuitBuilder
from nudfa.congruence import Structure, all_congruences
from nudfa.modcircuit import AND, MOD, OR, SUMP, SUMPC, CCircuit, Gate
from nudfa.programs import AlgProgram, Instruction

SESSION_START = time.perf_counter()


def pytest_collection_modifyitems(session, config, items):
    tail = [it for it in items if "wall_clock" in it.name]
    rest = [it for it in items if "wall_clock" not in it.name]
    items[:] = rest + tail


def scalar(value):
    """Open scalar SUMP outputs come back as 1-vectors; unwrap them."""
    if isinstance(value, tuple) and len(value) == 1:
        return value[0]
    return value


def dihedral4() -> FiniteAlgebra:
    """The symmetries of a square; r^i s^j is encoded as 2 i + j."""

    def mul(x, y):
        (i, j), (k, l) = divmod(x, 2), divmod(y, 2)
        return 2 * ((i + (k if j == 0 else -k)) % 4) + (j + l) % 2

    return FiniteAlgebra("D4", 8, (make_op("*", 2, 8, mul),))


def z5_z2_z3():
    """Z5 x Z2 x Z3 with + and g(x, y) = (0, [a != 0], [a != 0]), where a
    is x's Z5 coordinate; (a, b, c) is coded 6 a + 3 b + c."""

    def add(x, y):
        (a, b), (c, d) = divmod(x, 6), divmod(y, 6)
        return (a + c) % 5 * 6 + (b // 3 + d // 3) % 2 * 3 + (b + d) % 3

    def g(x, y):
        return 4 * (x >= 6)

    return FiniteAlgebra(
        "Z5xZ2xZ3", 30, (make_op("+", 2, 30, add), make_op("g", 2, 30, g))
    )


def random_algebra(draw, n, arities, labels=None):
    """Random operations of the given arities on n elements.  Half the
    draws make every table respect the kernel of a labelling, random
    unless given, so that nontrivial congruences turn up often."""
    if labels is None:
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {c: [x for x in range(n) if labels[x] == c] for c in labels}
    free = draw(st.booleans())
    ops = []
    for r in arities:
        raw = draw(st.lists(st.integers(0, n - 1), min_size=n**r, max_size=n**r))
        if not free:
            lead: dict = {}
            for i, args in enumerate(itertools.product(range(n), repeat=r)):
                key = tuple(labels[a] for a in args)
                block = blocks[labels[lead.setdefault(key, raw[i])]]
                raw[i] = block[raw[i] % len(block)]
        ops.append(Operation(f"f{r}", r, tuple(raw)))
    return FiniteAlgebra(f"random{n}", n, tuple(ops))


@st.composite
def permuting_algebras(draw):
    """Algebras on 1..6 elements whose translations often permute the
    universe, so that orbits of pairs really merge: an isotope of Z_n (a
    Latin square) as binary operation, a permutation as unary one, and a
    random table, each present or not."""
    n = draw(st.integers(min_value=1, max_value=6))
    elements = list(range(n))
    ops = []
    if draw(st.booleans()):
        r, c, v = (draw(st.permutations(elements)) for _ in range(3))
        cells = itertools.product(elements, repeat=2)
        ops.append(Operation("*", 2, tuple(v[(r[x] + c[y]) % n] for x, y in cells)))
    if draw(st.booleans()):
        ops.append(Operation("u", 1, tuple(draw(st.permutations(elements)))))
    if not ops or draw(st.booleans()):
        ops += random_algebra(draw, n, [draw(st.sampled_from([1, 2]))]).ops
    return FiniteAlgebra(f"permuting{n}", n, tuple(ops))


def _count_calls(monkeypatch, function) -> list:
    """The arguments of every later call of ``function``, counted through
    each module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    name = function.__name__
    for module in list(sys.modules.values()):
        if getattr(module, name, None) is function:
            monkeypatch.setattr(module, name, counted)
    return calls


def count_quotient_algebras(monkeypatch) -> list:
    """Every later ``quotient_algebra`` call, through every binding."""
    return _count_calls(monkeypatch, quotient_algebra)


def count_lattices(monkeypatch) -> list:
    """Every later ``all_congruences`` call, through every binding."""
    return _count_calls(monkeypatch, all_congruences)


def count_root_structures(monkeypatch) -> list:
    """The algebra of every later ``Structure`` made with no parent, that
    is every one but the quotient views."""
    made = []
    init = Structure.__init__

    def counted(self, algebra, budget, parent=None, floor=None):
        if parent is None:
            made.append(algebra)
        init(self, algebra, budget, parent, floor)

    monkeypatch.setattr(Structure, "__init__", counted)
    return made


def variable_circuit(k: int, i: int) -> AlgCircuit:
    """The circuit of variable i among k."""
    b = CircuitBuilder(k)
    return b.finish(b.var(i))


def random_alg_circuit(
    rng: random.Random, algebra, k: int, max_gates: int
) -> AlgCircuit:
    """Random circuit over the algebra's operations with k variables."""
    b = CircuitBuilder(k)
    pool = [b.var(i) for i in range(k)]
    if rng.random() < 0.5:
        pool.append(b.const(rng.randrange(algebra.size)))
    for _ in range(rng.randrange(1, max_gates + 1)):
        op = rng.choice(algebra.ops)
        pool.append(b.gate(op.name, *(rng.choice(pool) for _ in range(op.arity))))
    return b.finish(pool[-1])


def random_program(
    rng: random.Random, algebra, n: int, max_gates: int
) -> AlgProgram:
    """Random program: random circuit, random bit wiring, random accepting."""
    circ = random_alg_circuit(rng, algebra, rng.randrange(1, 4), max_gates)
    instrs = tuple(
        Instruction(
            var=i,
            bit=rng.randrange(n),
            a0=rng.randrange(algebra.size),
            a1=rng.randrange(algebra.size),
        )
        for i in range(circ.k)
    )
    accepting = frozenset(
        x for x in range(algebra.size) if rng.random() < 0.4
    )
    return AlgProgram(
        algebra=algebra,
        circuit=circ,
        n=n,
        instructions=instrs,
        accepting=accepting,
    )


@st.composite
def layered_circuits(draw):
    """Random circuits of all five gate kinds, wired from earlier layers.

    Wires carry multiplicities up to 4 and AND/OR gates may have none.  In
    about one circuit in three a SUMP gate may feed a later gate, which
    every evaluator must refuse.  The output is the last gate about half
    the time, so open SUMP outputs are common.
    """
    n = draw(st.integers(0, 5))
    vector_feeds = draw(st.integers(0, 2)) == 0
    nodes = list(range(n))
    sump_nodes: set[int] = set()
    gates = []
    for layer in range(1, draw(st.integers(1, 3)) + 1):
        sources = [x for x in nodes if vector_feeds or x not in sump_nodes]
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from([AND, OR, MOD, SUMP, SUMPC]))
            wires = tuple(
                draw(
                    st.lists(
                        st.tuples(st.sampled_from(sources), st.integers(1, 4)),
                        max_size=4,
                    )
                )
                if sources
                else ()
            )
            if kind == MOD:
                m = draw(st.integers(1, 6))
                accepting = draw(st.frozensets(st.integers(0, m - 1)))
                gate = Gate(MOD, layer, wires, m=m, accepting=accepting)
            elif kind in (SUMP, SUMPC):
                p = draw(st.sampled_from([2, 3, 5]))
                nu = draw(st.integers(1, 2))
                entry = st.integers(-3, 7)
                vec = st.lists(entry, min_size=nu, max_size=nu).map(tuple)
                coeffs = tuple(draw(vec) for _ in wires)
                gate = Gate(
                    kind, layer, wires, p=p, nu=nu, coeffs=coeffs,
                    offset=draw(vec), target=draw(vec) if kind == SUMPC else (),
                )
            else:
                gate = Gate(kind, layer, wires)
            node = n + len(gates)
            gates.append(gate)
            if kind == SUMP:
                sump_nodes.add(node)
        nodes = list(range(n + len(gates)))
    if vector_feeds and sump_nodes:
        src = draw(st.sampled_from(sorted(sump_nodes)))
        gates.append(Gate(draw(st.sampled_from([AND, OR])), layer + 1, ((src, 1),)))
    last = n + len(gates) - 1
    output = draw(st.one_of(st.just(last), st.integers(0, last)))
    return CCircuit(n, tuple(gates), output, "")


@pytest.fixture(scope="session")
def session_start() -> float:
    return SESSION_START

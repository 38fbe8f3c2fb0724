"""Circuit DAG construction, evaluation, composition, serialization."""

import enum
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eval_reference as reference
from conftest import layered_circuits, random_alg_circuit, variable_circuit
from nudfa.algebra import FiniteAlgebra, Operation, make_op
from nudfa.circuits import (
    AlgCircuit,
    CircuitBuilder,
    constant_circuit,
    eval_circuit,
    format_json,
)
from nudfa.fixtures import get_fixture
from nudfa.modcircuit import CCircuit, eval_cc
from nudfa.programs import AlgProgram, Instruction

Z6 = get_fixture("Z6").algebra


def test_builder_hash_conses_duplicate_gates():
    b = CircuitBuilder(2)
    g1 = b.gate("+", b.var(0), b.var(1))
    g2 = b.gate("+", b.var(0), b.var(1))
    assert g1 == g2


def test_variable_and_constant_circuits():
    assert eval_circuit(Z6, variable_circuit(3, 1), (4, 5, 0)) == 5
    assert eval_circuit(Z6, constant_circuit(2, 3), (0, 0)) == 3


def test_unused_variables_keep_arity():
    b = CircuitBuilder(3)
    [b.var(i) for i in range(3)]
    circ = b.finish(b.var(1))
    assert circ.k == 3
    assert eval_circuit(Z6, circ, (1, 2, 3)) == 2


def test_inline_substitutes_arguments():
    inner = variable_circuit(1, 0)
    b = CircuitBuilder(2)
    s = b.gate("+", b.var(0), b.var(1))
    out = b.inline(inner, [s])
    circ = b.finish(out)
    assert eval_circuit(Z6, circ, (2, 3)) == 5


def test_compose_matches_manual_evaluation():
    """Inlining circuits into one builder composes them, as the equation
    reductions and gadgets do."""
    b = CircuitBuilder(2)
    outer = b.finish(b.gate("+", b.var(0), b.var(1)))
    rng = random.Random(3)
    inners = [random_alg_circuit(rng, Z6, 2, 4) for _ in range(2)]
    b = CircuitBuilder(2)
    roots = [b.inline(c, [b.var(0), b.var(1)]) for c in inners]
    combined = b.finish(b.inline(outer, roots))
    for x in range(6):
        for y in range(6):
            want = (
                eval_circuit(Z6, inners[0], (x, y))
                + eval_circuit(Z6, inners[1], (x, y))
            ) % 6
            assert eval_circuit(Z6, combined, (x, y)) == want


def test_eval_rejects_wrong_arity():
    circ = variable_circuit(2, 0)
    with pytest.raises(ValueError):
        eval_circuit(Z6, circ, (1,))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_json_round_trip_preserves_semantics(seed):
    rng = random.Random(seed)
    circ = random_alg_circuit(rng, Z6, 2, 5)
    back = AlgCircuit.from_json(circ.to_json())
    for x in range(6):
        for y in range(6):
            assert eval_circuit(Z6, back, (x, y)) == eval_circuit(
                Z6, circ, (x, y)
            )


def test_evaluation_checks_operation_and_arity():
    tiny = FiniteAlgebra("B", 2, (make_op("not", 1, 2, lambda x: 1 - x),))
    b = CircuitBuilder(1)
    bad_name = b.finish(b.gate("xor", b.var(0)))
    with pytest.raises(KeyError):
        eval_circuit(tiny, bad_name, (0,))
    b = CircuitBuilder(1)
    bad_arity = b.finish(b.gate("not", b.var(0), b.var(0)))
    with pytest.raises(ValueError):
        eval_circuit(tiny, bad_arity, (0,))
    b = CircuitBuilder(1)
    circ = b.finish(b.gate("not", b.var(0)))
    assert eval_circuit(tiny, circ, (0,)) == 1


@st.composite
def algebra_circuits(draw):
    """A random algebra of 1-4 elements with up to three operations of
    arity 0-3, and a random circuit over it in k = 0-3 variables.  About
    one gate in ten has one child too many, which every evaluator must
    refuse with the same ``ValueError``."""
    size = draw(st.integers(1, 4))
    ops = []
    for i in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(0, 3))
        cell = st.integers(0, size - 1)
        table = draw(st.lists(cell, min_size=size**arity, max_size=size**arity))
        ops.append(Operation(f"f{i}", arity, tuple(table)))
    algebra = FiniteAlgebra("R", size, tuple(ops))
    k = draw(st.integers(0, 3))
    nodes = [("var", i) for i in range(k)]
    nodes += [("const", draw(st.integers(0, size - 1)))] * draw(st.integers(0, 1))
    for _ in range(draw(st.integers(1, 5))):
        op = draw(st.sampled_from(ops))
        arity = op.arity + (draw(st.integers(0, 9)) == 0)
        if arity and not nodes:
            continue
        child = st.integers(0, len(nodes) - 1)
        nodes.append(("gate", op.name, tuple(draw(child) for _ in range(arity))))
    if not nodes:
        nodes.append(("const", 0))
    output = draw(st.integers(0, len(nodes) - 1))
    return algebra, AlgCircuit(k, tuple(nodes), output)


def _outcome(evaluate, *args):
    """The value and its type, or the text of the ValueError raised."""
    try:
        value = evaluate(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    return value, type(value)


def _bits(draw, width):
    """A 0/1 word, of the given width about two times in three."""
    length = draw(st.one_of(st.just(width), st.integers(0, width + 1)))
    return draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))


@settings(max_examples=150, deadline=None)
@given(layered_circuits(), algebra_circuits(), st.data())
def test_one_row_views_match_the_reference_interpreters(cc, alg_circuit, data):
    """``eval_cc``, ``eval_circuit`` and ``AlgProgram.accepts`` give what
    the gate-by-gate interpreters give, with every node in turn as the
    output: on SUMP outputs, empty AND/OR gates, k = 0 and nullary
    operations, and raising the same errors.  A program refuses a circuit
    with a gate of the wrong arity when it is made."""
    word = _bits(data.draw, cc.inputs)
    for node in range(cc.inputs + len(cc.gates)):
        at = CCircuit(cc.inputs, cc.gates, node, "")
        assert _outcome(eval_cc, at, word) == _outcome(reference.eval_cc, at, word)

    algebra, circuit = alg_circuit
    k = circuit.k
    length = data.draw(st.one_of(st.just(k), st.integers(0, k + 1)))
    element = st.integers(0, algebra.size - 1)
    args = data.draw(st.lists(element, min_size=length, max_size=length))
    for node in range(len(circuit.nodes)):
        at = AlgCircuit(k, circuit.nodes, node)
        assert _outcome(eval_circuit, algebra, at, args) == _outcome(
            reference.eval_circuit, algebra, at, args
        )

    n = data.draw(st.integers(1 if k else 0, 5))
    instructions = tuple(
        Instruction(v, data.draw(st.integers(0, n - 1)), data.draw(element),
                    data.draw(element))
        for v in range(k)
    )
    accepting = data.draw(st.frozensets(element))
    if any(
        node[0] == "gate" and len(node[2]) != algebra.op(node[1]).arity
        for node in circuit.nodes
    ):
        with pytest.raises(ValueError, match="^no operation 'f[0-2]' of arity [1-4] in R$"):
            AlgProgram(algebra, circuit, n, instructions, accepting)
        return
    program = AlgProgram(algebra, circuit, n, instructions, accepting)
    word = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    assert _outcome(program.accepts, word) == _outcome(
        reference.accepts, program, word
    )


# JSON documents for the writer's differential test, of the six types it
# takes: strings with quotes, backslashes, control characters, non-ASCII
# text and lone surrogates; ints past 64 bits; flat int and int/str lists
# for the writer's joined lists; and dicts with str keys, nested up to
# depth 6 with empty containers anywhere.
_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x01\x1f\x7f\b\f\n\r\t'),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"]),
        st.characters(),
    ),
    max_size=6,
)
_INT = st.integers(-(2**70), 2**70)
_SCALAR = st.one_of(st.none(), st.booleans(), _INT, _TEXT)
_FLAT_LISTS = st.one_of(st.lists(_INT, max_size=4), st.lists(st.one_of(_INT, _TEXT), max_size=4))


def _documents(depth: int):
    if depth == 0:
        return st.one_of(_SCALAR, st.sampled_from([[], {}]), _FLAT_LISTS)
    child = _documents(depth - 1)
    return st.one_of(
        _SCALAR,
        _FLAT_LISTS,
        st.lists(child, max_size=3),
        st.dictionaries(_TEXT, child, max_size=3),
    )


@settings(max_examples=200, deadline=None)
@given(_documents(6))
def test_format_json_writes_the_stdlib_indented_sorted_text(doc):
    assert format_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


class _Colour(enum.IntEnum):
    RED = 3


class _Text(str):
    pass


@pytest.mark.parametrize("doc", [
    {"a": 1, 2: 0},
    {"x": [np.int64(3)]},
    [{1, 2}],
    {(1, 2): 0},
])
def test_format_json_refuses_what_the_stdlib_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        format_json(doc)


@pytest.mark.parametrize("doc", [
    {"x": [1, 1.5]},
    ["a", (1, 2)],
    {"colour": _Colour.RED},
    [_Text("v")],
    {2: "two"},
], ids=["float", "tuple", "int-enum", "str-subclass", "int-key"])
def test_format_json_refuses_what_the_documents_never_hold(doc):
    """The stdlib writes these; the package's documents hold none of them,
    so the writer refuses them."""
    json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        format_json(doc)

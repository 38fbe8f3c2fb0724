"""Bit-programmed circuit evaluation: construction, tables, quotients."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eval_reference as reference
from conftest import random_program

from nudfa import modcircuit
from nudfa.circuits import CONST, AlgCircuit, CircuitBuilder
from nudfa.fixtures import demo_program, fixture_names, get_fixture
from nudfa.limits import default_budget
from nudfa.partitions import Partition
from nudfa.programs import (
    AlgProgram,
    Instruction,
    map_circuit_constants,
    quotient_program,
    truth_table,
)

ETA = Partition.from_blocks(6, [{0, 2, 4}, {1, 3, 5}])


def two_var_sum(algebra):
    b = CircuitBuilder(2)
    return b.finish(b.gate("+", b.var(0), b.var(1)))


def test_demo_tables_follow_their_names():
    assert truth_table(demo_program("and2_z6")) == [False, False, False, True]
    assert truth_table(demo_program("or2_lat2")) == [False, True, True, True]
    assert truth_table(demo_program("parity2_z2")) == [False, True, True, False]


def test_truth_table_rows_use_bit_zero_as_least_significant():
    prog = demo_program("parity2_z2")
    table = truth_table(prog)
    for row in range(4):
        word = [(row >> i) & 1 for i in range(2)]
        assert table[row] == prog.accepts(word)
    for word in ([0], [0, 1, 1]):
        with pytest.raises(ValueError, match="expected 2 bits"):
            prog.accepts(word)


def test_size_counts_gates_and_instructions():
    prog = demo_program("and2_z6")
    assert prog.size == prog.circuit.gate_count + len(prog.instructions)


@pytest.mark.parametrize(
    "instructions",
    [
        # duplicate binding for variable 0
        (Instruction(0, 0, 0, 1), Instruction(0, 1, 0, 1)),
        # variable 1 never bound
        (Instruction(0, 0, 0, 1),),
        # unknown variable index
        (Instruction(0, 0, 0, 1), Instruction(2, 1, 0, 1)),
        # bit index outside the word
        (Instruction(0, 0, 0, 1), Instruction(1, 2, 0, 1)),
        # instruction values outside the universe
        (Instruction(0, 0, 0, 6), Instruction(1, 1, 0, 1)),
        (Instruction(0, 0, 0, 1), Instruction(1, 1, -1, 1)),
    ],
)
def test_malformed_instruction_lists_are_rejected(instructions):
    z6 = get_fixture("Z6").algebra
    with pytest.raises(ValueError):
        AlgProgram(
            algebra=z6,
            circuit=two_var_sum(z6),
            n=2,
            instructions=instructions,
            accepting=frozenset({0}),
        )


def test_accepting_elements_must_lie_in_the_universe():
    z6 = get_fixture("Z6").algebra
    with pytest.raises(ValueError):
        AlgProgram(
            algebra=z6,
            circuit=two_var_sum(z6),
            n=2,
            instructions=(Instruction(0, 0, 0, 1), Instruction(1, 1, 0, 1)),
            accepting=frozenset({6}),
        )


def test_json_and_file_round_trip(tmp_path):
    prog = demo_program("and2_z6%2")
    back = AlgProgram.from_json(prog.to_json())
    assert truth_table(back) == truth_table(prog)
    assert back.algebra.size == prog.algebra.size
    path = tmp_path / "prog.json"
    prog.dump(str(path))
    loaded = AlgProgram.load(str(path))
    assert truth_table(loaded) == truth_table(prog)
    # supplying the algebra explicitly skips the embedded copy
    again = AlgProgram.load(str(path), algebra=prog.algebra)
    assert again.algebra is prog.algebra


def test_map_circuit_constants_rewrites_only_constants():
    z6 = get_fixture("Z6").algebra
    b = CircuitBuilder(1)
    circ = b.finish(b.gate("+", b.var(0), b.const(2)))
    flipped = map_circuit_constants(circ, [5, 4, 3, 2, 1, 0])
    consts = [nd[1] for nd in flipped.nodes if nd[0] == CONST]
    assert consts == [3]
    assert flipped.k == circ.k and len(flipped.nodes) == len(circ.nodes)


def test_quotient_program_commutes_with_evaluation():
    prog = demo_program("and2_z6%2")
    quo, mapping = quotient_program(prog, ETA)
    assert quo.algebra.size == 2
    for word in itertools.product((0, 1), repeat=prog.n):
        want = mapping[reference.inner_value(prog, word)]
        assert reference.inner_value(quo, word) == want
        # acceptance may coarsen but never miss an accepted word
        if reference.accepts(prog, word):
            assert reference.accepts(quo, word)


def test_with_accepting_replaces_only_the_accepting_set():
    """A program with another accepting set keeps its circuit and
    instructions, so on the two-element lattice {0} accepts exactly the
    words {1} rejects."""
    prog = demo_program("or2_lat2")
    flipped = replace(prog, accepting=frozenset({0}))
    assert truth_table(flipped) == [not v for v in truth_table(prog)]


def test_truth_table_refuses_oversized_words():
    prog = demo_program("and2_z6")
    wide = AlgProgram(
        algebra=prog.algebra,
        circuit=prog.circuit,
        n=25,
        instructions=prog.instructions,
        accepting=prog.accepting,
    )
    with pytest.raises(ValueError):
        truth_table(wide, default_budget())


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(fixture_names()),
    st.integers(1, 7),
    st.integers(0, 2**32),
    st.sampled_from([1, 5, 4096]),
)
def test_columns_match_the_word_evaluator(name, n, seed, block):
    """Random programs: every node column and the accept column agree with
    evaluating one word at a time."""
    prog = random_program(random.Random(seed), get_fixture(name).algebra, n, 8)
    words = [[(row >> i) & 1 for i in range(n)] for row in range(1 << n)]
    with mock.patch.object(modcircuit, "TABLE_BLOCK", block):
        accept = prog.accept_column()
        cols = prog.node_columns()
        odd = prog.accept_column(np.arange(1, 1 << n, 2))
    assert accept.tolist() == [reference.accepts(prog, w) for w in words]
    assert odd.tolist() == accept.tolist()[1::2]
    assert truth_table(prog) == accept.tolist()
    for node, col in enumerate(cols):
        at_node = AlgCircuit(prog.circuit.k, prog.circuit.nodes, node)
        for row, word in enumerate(words):
            args = [0] * prog.circuit.k
            for ins in prog.instructions:
                args[ins.var] = ins.a1 if word[ins.bit] else ins.a0
            assert col[row] == reference.eval_circuit(prog.algebra, at_node, args)

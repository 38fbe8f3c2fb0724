"""Layered counting circuits: gates, evaluation, shape discipline, JSON."""

from __future__ import annotations

import contextlib
import io
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eval_reference as reference
from conftest import layered_circuits

from nudfa import modcircuit
from nudfa.cli import main
from nudfa.modcircuit import (
    AND,
    MOD,
    OR,
    SUMP,
    SUMPC,
    CCircuit,
    Gate,
    cc_table,
    cc_truth_table,
    eval_cc,
    format_shape,
    parse_shape,
    shape_of,
    validate_shape,
)

ONES2 = (1, 1)


def mod_parity_circuit():
    gate = Gate(MOD, 1, ((0, 1), (1, 2)), m=2, accepting=frozenset({1}))
    return CCircuit(inputs=2, gates=(gate,), output=2, declared_shape="MOD(2)")


def and_or_circuit():
    g1 = Gate(AND, 1, ((0, 1), (1, 1)))
    g2 = Gate(AND, 1, ((0, 1),))
    g3 = Gate(OR, 2, ((2, 1), (3, 1)))
    return CCircuit(
        inputs=2, gates=(g1, g2, g3), output=4, declared_shape="AND(*)∘OR(*)"
    )


def open_sum_circuit():
    gate = Gate(
        SUMP, 1, ((0, 1),), p=3, nu=2, coeffs=(ONES2,), offset=(0, 2)
    )
    return CCircuit(inputs=1, gates=(gate,), output=1, declared_shape="SUMP(3)")


def closed_sum_circuit():
    gate = Gate(
        SUMPC, 1, ((0, 1),), p=3, nu=2,
        coeffs=(ONES2,), offset=(0, 2), target=(1, 0),
    )
    return CCircuit(inputs=1, gates=(gate,), output=1, declared_shape="SUMPC(3)")


# -- gate validation ---------------------------------------------------------


def test_gate_rejects_unknown_kinds_and_bad_multiplicities():
    with pytest.raises(ValueError):
        Gate("XOR", 1, ())
    with pytest.raises(ValueError):
        Gate(AND, 1, ((0, 0),))


def test_mod_gate_validation():
    with pytest.raises(ValueError):
        Gate(MOD, 1, (), m=0)
    with pytest.raises(ValueError):
        Gate(MOD, 1, (), m=2, accepting=frozenset({2}))


def test_sum_gate_validation():
    with pytest.raises(ValueError):
        Gate(SUMP, 1, (), p=1, nu=1)
    with pytest.raises(ValueError):
        Gate(SUMP, 1, ((0, 1),), p=3, nu=2, coeffs=(), offset=(0, 0))
    with pytest.raises(ValueError):
        Gate(SUMP, 1, ((0, 1),), p=3, nu=2, coeffs=((1,),), offset=(0, 0))
    with pytest.raises(ValueError):
        Gate(SUMP, 1, ((0, 1),), p=3, nu=2, coeffs=(ONES2,), offset=(0,))
    with pytest.raises(ValueError):
        Gate(
            SUMPC, 1, ((0, 1),), p=3, nu=2,
            coeffs=(ONES2,), offset=(0, 0), target=(1,),
        )


def test_circuit_rejects_forward_wires_and_bad_output():
    forward = Gate(AND, 1, ((1, 1),))
    with pytest.raises(ValueError):
        CCircuit(inputs=1, gates=(forward,), output=1, declared_shape="AND(*)")
    ok = Gate(AND, 1, ((0, 1),))
    with pytest.raises(ValueError):
        CCircuit(inputs=1, gates=(ok,), output=5, declared_shape="AND(*)")


# -- evaluation --------------------------------------------------------------


def test_mod_gate_counts_with_multiplicity():
    circ = mod_parity_circuit()
    # x0 + 2 x1 mod 2 == x0
    assert cc_truth_table(circ) == [0, 1, 0, 1]


def test_and_or_evaluation():
    circ = and_or_circuit()
    assert cc_truth_table(circ) == [0, 1, 0, 1]
    assert circ.size == 3 + 5


def test_open_sum_output_is_a_vector():
    circ = open_sum_circuit()
    assert eval_cc(circ, (0,)) == (0, 2)
    assert eval_cc(circ, (1,)) == (1, 0)


def test_closed_sum_gate_compares_to_target():
    assert cc_truth_table(closed_sum_circuit()) == [0, 1]


def test_vector_valued_gates_cannot_feed_other_gates():
    vec = Gate(SUMP, 1, ((0, 1),), p=3, nu=1, coeffs=((1,),), offset=(0,))
    top = Gate(AND, 2, ((1, 1),))
    circ = CCircuit(
        inputs=1, gates=(vec, top), output=2, declared_shape="SUMP(3)∘AND(*)"
    )
    with pytest.raises(ValueError):
        eval_cc(circ, (1,))
    with pytest.raises(ValueError):
        cc_table(circ)


def test_eval_rejects_wrong_word_length():
    with pytest.raises(ValueError):
        eval_cc(mod_parity_circuit(), (0, 1, 1))


def test_eval_reads_words_wider_than_an_int64():
    gate = Gate(MOD, 1, ((0, 1), (69, 1)), m=2, accepting=frozenset({1}))
    circ = CCircuit(inputs=70, gates=(gate,), output=70, declared_shape="MOD(2)")
    for word in ([1] * 70, [0] * 69 + [1], [1] + [0] * 69, [0] * 70):
        assert eval_cc(circ, word) == reference.eval_cc(circ, word) == word[0] ^ word[69]


@settings(max_examples=150, deadline=None)
@given(layered_circuits(), st.sampled_from([1, 3, 4, 4096]), st.data())
def test_column_table_matches_the_word_evaluator(circuit, block, data):
    words = [
        [(row >> i) & 1 for i in range(circuit.inputs)]
        for row in range(1 << circuit.inputs)
    ]
    # a fresh memo, so that every drawn block size evaluates the table
    with mock.patch.object(modcircuit, "TABLE_BLOCK", block), \
            mock.patch.object(modcircuit, "_TABLES", {}):
        try:
            want = [reference.eval_cc(circuit, w) for w in words]
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                cc_table(circuit)
            return
        assert cc_truth_table(circuit) == want
        rows = data.draw(
            st.lists(st.integers(0, len(words) - 1), max_size=9)
        )
        table = cc_table(circuit, np.array(rows, dtype=np.int64))
        got = [tuple(v) if table.ndim == 2 else v for v in table.tolist()]
        assert got == [want[r] for r in rows]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 5),
    m=st.one_of(st.integers(1, 7), st.integers(150, 300), st.integers(30_000, 40_000)),
    data=st.data(),
)
def test_mod_sums_of_every_width_match_the_word_evaluator(n, m, data):
    """MOD gates with m = 1, with multiplicities of m and above, and with
    weighted fan-in above 255 and above 65,535, which sum in uint16 and
    uint32: a MOD layer over the inputs and a MOD gate over both layers.
    Each gate accepts the residues of a few drawn words, so both outcomes
    occur."""
    mults = st.integers(1, 3 * m)
    words = [[(row >> i) & 1 for i in range(n)] for row in range(1 << n)]

    def mod_gate(layer, sources):
        wires = tuple(data.draw(st.lists(
            st.tuples(st.sampled_from(sources), mults), min_size=1, max_size=6
        )))
        hits = data.draw(st.lists(st.sampled_from(words), max_size=3))
        accepting = frozenset(
            sum(mult * values[s] for s, mult in wires) % m for values in hits
        ) | data.draw(st.frozensets(st.integers(0, m - 1), max_size=2))
        return Gate(MOD, layer, wires, m=m, accepting=accepting)

    inner = [mod_gate(1, list(range(n))) for _ in range(data.draw(st.integers(1, 3)))]
    # the outer gate's hits read only the inputs; its sources are all nodes
    outer = mod_gate(2, list(range(n)))
    outer = Gate(MOD, 2, outer.wires + tuple(
        (n + g, mult) for g, mult in data.draw(st.lists(
            st.tuples(st.integers(0, len(inner) - 1), mults), max_size=3
        ))
    ), m=m, accepting=outer.accepting)
    circuit = CCircuit(n, (*inner, outer), n + len(inner), "")
    with mock.patch.object(modcircuit, "_TABLES", {}):
        assert cc_truth_table(circuit) == [reference.eval_cc(circuit, w) for w in words]


def test_a_whole_table_is_computed_once_and_is_read_only(monkeypatch):
    """The memo returns one copy per circuit value; listed rows are
    evaluated afresh and stay writable."""
    monkeypatch.setattr(modcircuit, "_TABLES", {})
    blocks = []
    block = modcircuit._cc_block
    monkeypatch.setattr(
        modcircuit, "_cc_block", lambda *a: blocks.append(a[0]) or block(*a)
    )
    table = cc_table(and_or_circuit())
    assert cc_table(and_or_circuit()) is table and len(blocks) == 1
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 1 - table[0]
    rows = cc_table(and_or_circuit(), np.arange(4))
    rows[0] = 1
    assert len(blocks) == 2 and table.tolist() == cc_truth_table(and_or_circuit())


def test_the_table_memo_keeps_its_newest_entries(monkeypatch):
    """Past ``TABLE_MEMO_ENTRIES`` the oldest table goes first."""
    monkeypatch.setattr(modcircuit, "_TABLES", {})
    monkeypatch.setattr(modcircuit, "TABLE_MEMO_ENTRIES", 2)
    circuits = [mod_parity_circuit(), and_or_circuit(), open_sum_circuit()]
    for circuit in circuits:
        cc_table(circuit)
    assert list(modcircuit._TABLES) == circuits[1:]


def test_the_table_memo_stays_within_its_bound(monkeypatch):
    """A compile at 12 bits makes 24 tables of 4 KiB; a memo of 12 KiB
    drops the oldest, and what modcircuit.py allocated and still holds
    afterwards is the memo's tables and some small objects."""
    bound = 3 << 12
    monkeypatch.setattr(modcircuit, "TABLE_MEMO_BYTES", bound)
    made = set()
    block = modcircuit._cc_block
    monkeypatch.setattr(
        modcircuit, "_cc_block", lambda *a: made.add(a[0]) or block(*a)
    )
    monkeypatch.chdir(Path(__file__).resolve().parent / "golden")
    argv = ["compile", "--program", "inputs/parity_sum_z6m2_12.json",
            "--verify-n", "20"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, modcircuit.__file__)]
        )
    finally:
        tracemalloc.stop()
    kept = sum(t.nbytes for t in modcircuit._TABLES.values())
    assert bound - 4096 < kept <= bound
    assert len(made) > 5 * len(modcircuit._TABLES)
    # unbounded, the memo would hold 96 KiB of tables here
    assert sum(s.size for s in held.statistics("filename")) < bound + (16 << 10)


# -- shapes ------------------------------------------------------------------


def test_parse_shape_accepts_both_separators_and_wildcards():
    layers = parse_shape("AND(3).MOD(6)∘SUMP(*)")
    assert [(l.kind, l.param) for l in layers] == [
        (AND, 3), (MOD, 6), (SUMP, None),
    ]
    assert format_shape(layers) == "AND(3)∘MOD(6)∘SUMP(*)"
    with pytest.raises(ValueError):
        parse_shape("NAND(2)")


def test_shape_of_reads_layers_input_first():
    assert shape_of(and_or_circuit()) == "AND(*)∘OR(*)"
    assert shape_of(mod_parity_circuit()) == "MOD(2)"
    assert shape_of(open_sum_circuit()) == "SUMP(3)"


def test_validate_shape_passes_conforming_circuits():
    ok, problems = validate_shape(and_or_circuit())
    assert ok and problems == []
    ok, _ = validate_shape(and_or_circuit(), "AND(2)∘OR(2)")
    assert ok


def test_validate_shape_reports_violations():
    ok, problems = validate_shape(and_or_circuit(), "AND(1)∘OR(*)")
    assert not ok and any("fan-in" in p for p in problems)
    ok, problems = validate_shape(mod_parity_circuit(), "MOD(3)")
    assert not ok and any("modulus" in p for p in problems)
    ok, problems = validate_shape(and_or_circuit(), "OR(*)∘AND(*)")
    assert not ok
    # output must live in the final declared layer
    ok, problems = validate_shape(and_or_circuit(), "AND(*)∘OR(*)∘AND(*)")
    assert not ok


def test_layer_skipping_wires_are_flagged():
    g1 = Gate(AND, 1, ((0, 1),))
    g2 = Gate(OR, 2, ((0, 1), (1, 1)))  # wire straight from the inputs
    circ = CCircuit(
        inputs=1, gates=(g1, g2), output=2, declared_shape="AND(*)∘OR(*)"
    )
    ok, problems = validate_shape(circ)
    assert not ok and any("layer" in p for p in problems)


def test_non_output_open_sum_is_flagged():
    vec = Gate(SUMP, 1, ((0, 1),), p=3, nu=1, coeffs=((1,),), offset=(0,))
    top = Gate(AND, 2, ((1, 1),))
    circ = CCircuit(
        inputs=1, gates=(vec, top), output=2, declared_shape="SUMP(3)∘AND(*)"
    )
    ok, problems = validate_shape(circ)
    assert not ok and any("vector" in p for p in problems)


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [mod_parity_circuit, and_or_circuit, open_sum_circuit, closed_sum_circuit],
)
def test_json_round_trip(make):
    """Also loads the older SUMP form, one nu-by-nu matrix per wire read on
    (b, ..., b), here with rows (c_j - nu + 1, 1, ..., 1) that sum to c_j."""
    circ = make()
    legacy = circ.to_json()
    for gate in legacy["gates"]:
        if "coeffs" in gate:
            ones = [1] * (gate["nu"] - 1)
            gate["coeffs"] = [
                [[c - len(ones)] + ones for c in vec] for vec in gate["coeffs"]
            ]
    for doc in (circ.to_json(), legacy):
        back = CCircuit.from_json(doc)
        assert back == circ
        # the listed rows bypass the memo, which holds circ's table
        rows = np.arange(1 << circ.inputs)
        assert np.array_equal(cc_table(back, rows), cc_table(circ))


def test_file_round_trip(tmp_path):
    circ = and_or_circuit()
    path = tmp_path / "circ.json"
    circ.dump(str(path))
    assert CCircuit.load(str(path)) == circ

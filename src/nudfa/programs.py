"""Nonuniform programs over a finite algebra.

A program reads an n-bit word through instructions: variable v of the
underlying circuit is bound to one of two algebra elements depending on a
single input bit.  The program accepts when the circuit value lands in the
accepting set.  Programs are the bridge between boolean computation and
algebra-valued circuits.  ``node_columns`` and ``accept_column`` evaluate
many words at once as numpy columns through the circuit's column
evaluator; ``accepts`` is the one-row view of ``accept_column``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .algebra import FiniteAlgebra, check_circuit, quotient_algebra
from .circuits import CONST, AlgCircuit, dump_json, eval_columns, node_columns
from .limits import Budget, default_budget
from .modcircuit import index_blocks, word_blocks, word_row
from .partitions import Partition


@dataclass(frozen=True)
class Instruction:
    """Bind a circuit variable: bit b false -> a0, true -> a1."""

    var: int
    bit: int
    a0: int
    a1: int


@dataclass(frozen=True)
class AlgProgram:
    algebra: FiniteAlgebra
    circuit: AlgCircuit
    n: int  # number of input bits
    instructions: tuple[Instruction, ...]
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        seen = set()
        for ins in self.instructions:
            if not 0 <= ins.var < self.circuit.k:
                raise ValueError(f"instruction for unknown variable {ins.var}")
            if ins.var in seen:
                raise ValueError(f"two instructions for variable {ins.var}")
            if not 0 <= ins.bit < self.n:
                raise ValueError(f"bit index {ins.bit} out of range")
            if not all(0 <= a < self.algebra.size for a in (ins.a0, ins.a1)):
                raise ValueError(f"instruction value out of universe: {ins}")
            seen.add(ins.var)
        if seen != set(range(self.circuit.k)):
            raise ValueError("every circuit variable needs exactly one instruction")
        for a in self.accepting:
            if not 0 <= a < self.algebra.size:
                raise ValueError("accepting element out of universe")
        check_circuit(self.algebra, self.circuit)

    @property
    def size(self) -> int:
        """Gate count plus instruction count."""
        return self.circuit.gate_count + len(self.instructions)

    def accepts(self, word: Sequence[int]) -> bool:
        """Acceptance of one word, as a one-row ``accept_column``."""
        if len(word) != self.n:
            raise ValueError(f"expected {self.n} bits")
        return bool(self.accept_column(word_row(word))[0])

    # -- many words at once ------------------------------------------------

    def _input_columns(self, rows: np.ndarray) -> np.ndarray:
        """(k, len(rows)) values the instructions bind on the words ``rows``
        (bit i of a row index is input bit i)."""
        args = np.empty(
            (self.circuit.k, len(rows)), np.min_scalar_type(self.algebra.size - 1)
        )
        for ins in self.instructions:
            args[ins.var] = np.where((rows >> ins.bit) & 1, ins.a1, ins.a0)
        return args

    def node_columns(self) -> list[np.ndarray]:
        """Every circuit node's value on all 2^n words in index order, one
        column per node."""
        rows = np.arange(1 << self.n, dtype=np.int64)
        return node_columns(self.algebra, self.circuit, self._input_columns(rows))

    def accept_column(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Acceptance on the words ``rows`` (all 2^n in index order when
        None) as a boolean column, computed in blocks of TABLE_BLOCK words.
        The whole table is computed once per program and is read-only."""
        if rows is None:
            return self._accept_table
        lut = np.zeros(self.algebra.size, np.bool_)
        lut[sorted(self.accepting)] = True
        out = np.empty(len(rows), np.bool_)
        start = 0
        for block in word_blocks(self.n, rows):
            values = eval_columns(
                self.algebra, self.circuit, self._input_columns(block)
            )
            out[start : start + len(block)] = lut[values]
            start += len(block)
        return out

    @cached_property
    def _accept_table(self) -> np.ndarray:
        blocks = index_blocks(1 << self.n)
        table = np.concatenate([self.accept_column(rows) for rows in blocks])
        table.flags.writeable = False
        return table

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.to_json(),
            "circuit": self.circuit.to_json(),
            "n": self.n,
            "instructions": [
                {"var": i.var, "bit": i.bit, "a0": i.a0, "a1": i.a1}
                for i in self.instructions
            ],
            "accepting": sorted(self.accepting),
        }

    @staticmethod
    def from_json(data: dict, algebra: Optional[FiniteAlgebra] = None) -> "AlgProgram":
        if algebra is None:
            algebra = FiniteAlgebra.from_json(data["algebra"])
        return AlgProgram(
            algebra,
            AlgCircuit.from_json(data["circuit"]),
            int(data["n"]),
            tuple(
                Instruction(
                    int(i["var"]), int(i["bit"]), int(i["a0"]), int(i["a1"])
                )
                for i in data["instructions"]
            ),
            frozenset(int(a) for a in data["accepting"]),
        )

    @staticmethod
    def load(path: str, algebra: Optional[FiniteAlgebra] = None) -> "AlgProgram":
        with open(path) as fh:
            return AlgProgram.from_json(json.load(fh), algebra)

    def dump(self, path: str) -> None:
        dump_json(path, self.to_json())


def truth_table(program: AlgProgram, budget: Optional[Budget] = None) -> list[bool]:
    """Acceptance on every word; row index encodes the word with bit 0 least
    significant."""
    budget = budget or default_budget()
    if program.n > budget.truth_table_bits:
        raise ValueError(
            f"{program.n} input bits exceed truth-table bound "
            f"{budget.truth_table_bits}"
        )
    return program.accept_column().tolist()


def map_circuit_constants(circuit: AlgCircuit, mapping: Sequence[int]) -> AlgCircuit:
    """Rewrite every constant node through an element mapping (same shape)."""
    nodes = []
    for node in circuit.nodes:
        if node[0] == CONST:
            nodes.append((CONST, mapping[node[1]]))
        else:
            nodes.append(node)
    return AlgCircuit(circuit.k, tuple(nodes), circuit.output)


def quotient_program(
    program: AlgProgram, part: Partition
) -> tuple[AlgProgram, tuple[int, ...]]:
    """Reinterpret a program over A/part (same circuit shape; instruction
    constants and accepting set map to block indices).  Returns the program
    together with the projection."""
    quo, mapping = quotient_algebra(program.algebra, part)
    return (
        AlgProgram(
            quo,
            map_circuit_constants(program.circuit, mapping),
            program.n,
            tuple(
                Instruction(i.var, i.bit, mapping[i.a0], mapping[i.a1])
                for i in program.instructions
            ),
            frozenset(mapping[a] for a in program.accepting),
        ),
        mapping,
    )

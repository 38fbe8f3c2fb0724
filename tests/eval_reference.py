"""Reference oracles: the one-word interpreters the column evaluators replaced.

``eval_cc``, ``eval_circuit``, ``inner_value`` and ``accepts`` below are the
earlier implementations of ``nudfa.modcircuit.eval_cc``,
``nudfa.circuits.eval_circuit`` and ``AlgProgram.inner_value``/``accepts``
(with ``Instruction.value`` inlined), kept as they were apart from taking
the program as an argument.  They walk a circuit gate by gate on one word
or assignment and serve as differential oracles for ``cc_table``,
``eval_columns`` and ``AlgProgram.accept_column`` and for the one-row views
built on them: the same values and the same ``ValueError`` texts.
"""

from __future__ import annotations

from typing import Sequence

from nudfa.circuits import CONST, VAR, AlgCircuit
from nudfa.modcircuit import AND, MOD, OR, SUMP, CCircuit
from nudfa.programs import AlgProgram


def eval_cc(circuit: CCircuit, word: Sequence[int]):
    """Evaluate on an n-bit word.  Returns 0/1, or a tuple for an open
    vector-valued output gate."""
    if len(word) != circuit.inputs:
        raise ValueError(f"expected {circuit.inputs} bits")
    vals: list = [1 if b else 0 for b in word]
    for gate in circuit.gates:
        srcs = []
        for s, mult in gate.wires:
            v = vals[s]
            if isinstance(v, tuple):
                raise ValueError("vector-valued gate feeds another gate")
            srcs.append((v, mult))
        if gate.kind == AND:
            out = 1 if all(v for v, _ in srcs) else 0
        elif gate.kind == OR:
            out = 1 if any(v for v, _ in srcs) else 0
        elif gate.kind == MOD:
            total = sum(v * mult for v, mult in srcs) % gate.m
            out = 1 if total in gate.accepting else 0
        else:
            acc = list(gate.offset)
            for (v, mult), vec in zip(srcs, gate.coeffs):
                if v:
                    for j in range(gate.nu):
                        acc[j] += mult * vec[j]
            vec = tuple(a % gate.p for a in acc)
            if gate.kind == SUMP:
                out = vec
            else:
                want = tuple(t % gate.p for t in gate.target)
                out = 1 if vec == want else 0
        vals.append(out)
    return vals[circuit.output]


def eval_circuit(algebra, circuit: AlgCircuit, args: Sequence[int]) -> int:
    """Evaluate bottom-up; args supplies the k variable values."""
    if len(args) != circuit.k:
        raise ValueError(f"expected {circuit.k} arguments, got {len(args)}")
    vals = [0] * len(circuit.nodes)
    for idx, node in enumerate(circuit.nodes):
        tag = node[0]
        if tag == VAR:
            vals[idx] = args[node[1]]
        elif tag == CONST:
            vals[idx] = node[1]
        else:
            vals[idx] = algebra.eval_op(node[1], [vals[c] for c in node[2]])
    return vals[circuit.output]


def inner_value(program: AlgProgram, word: Sequence[int]) -> int:
    args = [0] * program.circuit.k
    for ins in program.instructions:
        args[ins.var] = ins.a1 if word[ins.bit] else ins.a0
    return eval_circuit(program.algebra, program.circuit, args)


def accepts(program: AlgProgram, word: Sequence[int]) -> bool:
    return inner_value(program, word) in program.accepting

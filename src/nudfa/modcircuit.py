"""Layered circuits of modular-counting gates over boolean inputs.

Gate kinds:

- ``AND`` / ``OR``: plain boolean gates (empty AND is 1, empty OR is 0);
- ``MOD``: sums its inputs with wire multiplicities modulo m and outputs 1
  iff the sum lies in the accepting set;
- ``SUMP``: an affine sum into Z_p^nu; each wire carries a coefficient
  vector c in Z_p^nu and a boolean input b adds b * c; the output is the
  vector (so a SUMP may only sit at the output);
- ``SUMPC``: same sum, but outputs the boolean test "vector == target".

Nodes are numbered with the n inputs first (0..n-1) and gates following in
topological order.  Every gate carries a 1-based layer index; a circuit is
shape-valid when gate kinds match the declared layer descriptors and every
wire runs from layer i to layer i+1 (inputs forming layer 0).

Evaluation: ``cc_table`` is the one evaluator.  It computes every gate as
one numpy column over a block of ``TABLE_BLOCK`` words (word r has bit
i = (r >> i) & 1).  Boolean columns are uint8 and a column is dropped
after its last reader, so a table of up to 2^20 words needs scratch memory
for one block only.  ``eval_cc`` is its one-row view for a single word.
A SUMP gate that feeds another gate is refused.

A MOD gate reduces each multiplicity mod m and sums its wires in the
smallest unsigned type that holds both m and the largest possible sum, the
reduced multiplicities added up.  The columns of the wires of one weight
are added without a multiply, and the group is multiplied by its weight
once; the residue of the sum is looked up in a 0/1 table over Z_m.

A circuit's whole table is computed once per run: ``cc_table`` keeps it,
read-only, in the memo ``_TABLES`` under the circuit's value, and every
later check of an equal circuit (the next pass, the CLI harness) reads that
copy.  ``cli.main`` empties the memo; it drops its oldest tables to stay
within ``TABLE_MEMO_BYTES`` and ``TABLE_MEMO_ENTRIES``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .circuits import dump_json

AND = "AND"
OR = "OR"
MOD = "MOD"
SUMP = "SUMP"
SUMPC = "SUMPC"


@dataclass(frozen=True)
class Gate:
    kind: str
    layer: int
    wires: tuple[tuple[int, int], ...]  # (source node id, multiplicity)
    m: int = 0                      # MOD modulus
    accepting: frozenset[int] = frozenset()
    p: int = 0                      # SUMP/SUMPC prime
    nu: int = 0
    coeffs: tuple[tuple[int, ...], ...] = ()  # one vector per wire
    offset: tuple[int, ...] = ()
    target: tuple[int, ...] = ()     # SUMPC only

    def __post_init__(self) -> None:
        if self.kind not in (AND, OR, MOD, SUMP, SUMPC):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if any(mult < 1 for _, mult in self.wires):
            raise ValueError("wire multiplicities must be >= 1")
        if self.kind == MOD:
            if self.m < 1:
                raise ValueError("MOD gate needs a positive modulus")
            if any(not 0 <= a < self.m for a in self.accepting):
                raise ValueError("accepting residue out of range")
        if self.kind in (SUMP, SUMPC):
            if self.p < 2 or self.nu < 1:
                raise ValueError("SUMP gate needs a prime p and nu >= 1")
            if len(self.coeffs) != len(self.wires):
                raise ValueError("one coefficient vector per wire")
            if any(len(vec) != self.nu for vec in self.coeffs):
                raise ValueError("coefficient vector has wrong length")
            if len(self.offset) != self.nu:
                raise ValueError("offset has wrong length")
        if self.kind == SUMPC and len(self.target) != self.nu:
            raise ValueError("target has wrong length")

    @property
    def fan_in(self) -> int:
        return sum(mult for _, mult in self.wires)


@dataclass(frozen=True)
class CCircuit:
    inputs: int
    gates: tuple[Gate, ...]
    output: int  # node id (inputs count first)
    declared_shape: str

    def __post_init__(self) -> None:
        for gid, gate in enumerate(self.gates):
            node = self.inputs + gid
            for src, _ in gate.wires:
                if not 0 <= src < node:
                    raise ValueError(
                        f"gate {node}: wire from {src} breaks topological order"
                    )
        if not 0 <= self.output < self.inputs + len(self.gates):
            raise ValueError("output id out of range")

    def gate_of(self, node: int) -> Gate:
        return self.gates[node - self.inputs]

    @property
    def size(self) -> int:
        """Gate count plus total wire multiplicity."""
        return len(self.gates) + sum(g.fan_in for g in self.gates)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        gates = []
        for g in self.gates:
            item: dict = {
                "kind": g.kind,
                "layer": g.layer,
                "wires": [[s, m] for s, m in g.wires],
            }
            if g.kind == MOD:
                item["m"] = g.m
                item["accepting"] = sorted(g.accepting)
            elif g.kind in (SUMP, SUMPC):
                item["p"] = g.p
                item["nu"] = g.nu
                item["coeffs"] = [list(vec) for vec in g.coeffs]
                item["offset"] = list(g.offset)
                if g.kind == SUMPC:
                    item["target"] = list(g.target)
            gates.append(item)
        return {
            "inputs": self.inputs,
            "shape": self.declared_shape,
            "gates": gates,
            "output": self.output,
        }

    @staticmethod
    def from_json(data: dict) -> "CCircuit":
        """Also reads the older SUMP form with one nu-by-nu matrix per wire,
        applied to (b, ..., b): each matrix becomes its vector of row sums."""
        gates = []
        for item in data["gates"]:
            kind = item["kind"]
            gates.append(
                Gate(
                    kind,
                    int(item["layer"]),
                    tuple((int(s), int(m)) for s, m in item["wires"]),
                    m=int(item.get("m", 0)),
                    accepting=frozenset(int(a) for a in item.get("accepting", [])),
                    p=int(item.get("p", 0)),
                    nu=int(item.get("nu", 0)),
                    coeffs=tuple(
                        tuple(
                            sum(map(int, v)) if isinstance(v, list) else int(v)
                            for v in vec
                        )
                        for vec in item.get("coeffs", [])
                    ),
                    offset=tuple(int(v) for v in item.get("offset", [])),
                    target=tuple(int(v) for v in item.get("target", [])),
                )
            )
        return CCircuit(
            int(data["inputs"]),
            tuple(gates),
            int(data["output"]),
            str(data["shape"]),
        )

    @staticmethod
    def load(path: str) -> "CCircuit":
        with open(path) as fh:
            return CCircuit.from_json(json.load(fh))

    def dump(self, path: str) -> None:
        dump_json(path, self.to_json())


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_cc(circuit: CCircuit, word: Sequence[int]):
    """The circuit on one n-bit word, as a one-row ``cc_table``: 0/1, or a
    tuple for an open SUMP output."""
    if len(word) != circuit.inputs:
        raise ValueError(f"expected {circuit.inputs} bits")
    value = cc_table(circuit, word_row(word))[0].tolist()
    return tuple(value) if isinstance(value, list) else value


# Most words one column evaluation holds at once: a truth table is computed
# a block at a time, so its scratch memory is one uint8 column of this
# length per live gate whatever the word length.
TABLE_BLOCK = 1 << 12


def index_blocks(count: int) -> Iterator[np.ndarray]:
    """The indices 0..count-1 in order, as int64 blocks of TABLE_BLOCK."""
    for start in range(0, count, TABLE_BLOCK):
        yield np.arange(start, min(start + TABLE_BLOCK, count), dtype=np.int64)


def word_row(word: Sequence[int]) -> np.ndarray:
    """The one-row block of ``word``: its index, whose bit i is word[i], as
    a Python int (dtype object), so that a word of any width fits."""
    return np.array([sum(1 << i for i, b in enumerate(word) if b)], object)


def word_blocks(n: int, rows: Optional[np.ndarray]) -> Iterator[np.ndarray]:
    """Blocks of TABLE_BLOCK word indices: ``rows`` in order, or all 2^n
    words in index order when ``rows`` is None."""
    if rows is None:
        yield from index_blocks(1 << n)
        return
    rows = np.asarray(rows)
    for start in range(0, len(rows), TABLE_BLOCK):
        yield rows[start : start + TABLE_BLOCK]


# Whole tables of this run, keyed by circuit value (see the module notes);
# the entry cap also bounds the circuits that the keys keep alive.
TABLE_MEMO_BYTES, TABLE_MEMO_ENTRIES = 1 << 23, 1024
_TABLES: dict[CCircuit, np.ndarray] = {}


def cc_table(
    circuit: CCircuit, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """The circuit on many words at once, one row per word.

    Row r is the word whose bit i is (r >> i) & 1; ``rows`` lists the word
    indices to evaluate, all 2^n in index order when None.  Every gate is
    one column over a block of words: AND and OR are ``&`` and ``|`` over
    the source columns, MOD looks the weighted sum mod m up in its
    accepting set, SUMP/SUMPC add their coefficient vectors.  Returns a
    uint8 column, or an int64 array of shape (words, nu) when the output is
    an open SUMP vector.  The whole table (``rows`` None) is the read-only
    copy of the run memo.
    """
    found = _TABLES.get(circuit) if rows is None else None
    if found is not None:
        return found
    readers = [0] * (circuit.inputs + len(circuit.gates))
    for gid, gate in enumerate(circuit.gates):
        for src, _ in gate.wires:
            if src >= circuit.inputs and circuit.gate_of(src).kind == SUMP:
                raise ValueError("vector-valued gate feeds another gate")
            readers[src] = circuit.inputs + gid
    readers[circuit.output] = len(readers)  # the output column is never dropped
    count = 1 << circuit.inputs if rows is None else len(rows)
    out_gate = (
        circuit.gate_of(circuit.output)
        if circuit.output >= circuit.inputs
        else None
    )
    if out_gate is not None and out_gate.kind == SUMP:
        table = np.empty((count, out_gate.nu), np.int64)
    else:
        table = np.empty(count, np.uint8)
    start = 0
    for block in word_blocks(circuit.inputs, rows):
        table[start : start + len(block)] = _cc_block(circuit, block, readers)
        start += len(block)
    if rows is None and table.nbytes <= TABLE_MEMO_BYTES:
        table.flags.writeable = False
        _TABLES[circuit] = table
        while (len(_TABLES) > TABLE_MEMO_ENTRIES
               or sum(t.nbytes for t in _TABLES.values()) > TABLE_MEMO_BYTES):
            del _TABLES[next(iter(_TABLES))]  # the oldest
    return table


def _cc_block(
    circuit: CCircuit, rows: np.ndarray, readers: list[int]
) -> np.ndarray:
    """Output column on one block of words; a column is dropped after the
    last gate that reads it (``readers[node]``)."""
    # every input's bit column at once: row i of the shifted (inputs, words)
    # array is input i
    shifts = np.arange(circuit.inputs)[:, None]
    cols: list = list(((rows >> shifts) & 1).astype(np.uint8))
    for gid, gate in enumerate(circuit.gates):
        srcs = [(cols[s], mult) for s, mult in gate.wires]
        if gate.kind in (AND, OR):
            if not srcs:
                out = np.full(len(rows), 1 if gate.kind == AND else 0, np.uint8)
            else:
                # no column is written once made, so a one-wire gate shares
                # its source's column
                combine = np.bitwise_and if gate.kind == AND else np.bitwise_or
                out = srcs[0][0] if len(srcs) == 1 else combine(srcs[0][0], srcs[1][0])
                for col, _ in srcs[2:]:
                    combine(out, col, out=out)
        elif gate.kind == MOD:
            m = gate.m
            by_weight: dict[int, list] = {}
            for col, mult in srcs:
                if mult % m:
                    by_weight.setdefault(mult % m, []).append(col)
            bound = sum(w * len(group) for w, group in by_weight.items())
            dtype = np.min_scalar_type(max(bound, m))
            total = np.zeros(len(rows), dtype)
            for w, group in by_weight.items():
                part = total if w == 1 else np.zeros(len(rows), dtype)
                for col in group:
                    part += col
                if w != 1:
                    part *= w
                    total += part
            lut = np.zeros(m, np.uint8)
            lut[sorted(gate.accepting)] = 1
            out = lut.take(total % m)
        else:
            weights = np.array(
                [
                    [mult * c % gate.p for c in vec]
                    for (_, mult), vec in zip(gate.wires, gate.coeffs)
                ],
                np.int64,
            ).reshape(len(srcs), gate.nu)
            total = np.zeros((len(rows), 1), np.int64) + [
                o % gate.p for o in gate.offset
            ]
            if srcs:
                total += np.column_stack([col for col, _ in srcs]) @ weights
            vec = total % gate.p
            if gate.kind == SUMP:
                out = vec
            else:
                want = np.array([t % gate.p for t in gate.target], np.int64)
                out = (vec == want).all(axis=1).astype(np.uint8)
        node = circuit.inputs + gid
        cols.append(out)
        for src, _ in gate.wires:
            if readers[src] == node:
                cols[src] = None
    return cols[circuit.output]


def cc_truth_table(circuit: CCircuit) -> list:
    """``cc_table`` as a list: 0/1 per word, or a tuple per word for an open
    SUMP output."""
    table = cc_table(circuit)
    if table.ndim == 2:
        return [tuple(row) for row in table.tolist()]
    return table.tolist()


# ---------------------------------------------------------------------------
# Layer shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    param: Optional[int]  # None = wildcard

    def __str__(self) -> str:
        if self.param is None:
            return f"{self.kind}(*)"
        return f"{self.kind}({self.param})"


_LAYER_RE = re.compile(r"^([A-Z]+)(?:\((\*|\d+)\))?$")


def parse_shape(text: str) -> tuple[LayerSpec, ...]:
    """Parse "AND(3)∘MOD(6)∘MOD(5)"-style descriptors, input layer first."""
    out = []
    for chunk in text.replace(".", "∘").split("∘"):
        m = _LAYER_RE.match(chunk.strip())
        if not m:
            raise ValueError(f"bad layer descriptor {chunk!r}")
        kind, param = m.group(1), m.group(2)
        if kind not in (AND, OR, MOD, SUMP, SUMPC):
            raise ValueError(f"unknown gate kind {kind!r}")
        out.append(LayerSpec(kind, None if param in (None, "*") else int(param)))
    return tuple(out)


def format_shape(layers: Sequence[LayerSpec]) -> str:
    return "∘".join(str(l) for l in layers)


def validate_shape(
    circuit: CCircuit, shape: Optional[str] = None
) -> tuple[bool, list[str]]:
    """Check the layered discipline against a shape descriptor.

    Every gate must sit in a declared layer with matching kind and parameter
    (AND/OR parameters bound fan-in; MOD parameters fix the modulus;
    SUMP/SUMPC parameters fix the prime), every wire must go from layer i to
    layer i+1 with inputs at layer 0, the output must be in the last layer,
    and vector-valued gates may only drive the output.
    """
    layers = parse_shape(shape if shape is not None else circuit.declared_shape)
    errors = []
    depth = len(layers)
    for gid, gate in enumerate(circuit.gates):
        node = circuit.inputs + gid
        if not 1 <= gate.layer <= depth:
            errors.append(f"gate {node}: layer {gate.layer} outside shape")
            continue
        spec = layers[gate.layer - 1]
        if gate.kind != spec.kind:
            errors.append(
                f"gate {node}: kind {gate.kind} in a {spec.kind} layer"
            )
        if spec.param is not None:
            if gate.kind in (AND, OR) and gate.fan_in > spec.param:
                errors.append(
                    f"gate {node}: fan-in {gate.fan_in} exceeds {spec.param}"
                )
            if gate.kind == MOD and gate.m != spec.param:
                errors.append(f"gate {node}: modulus {gate.m} != {spec.param}")
            if gate.kind in (SUMP, SUMPC) and gate.p != spec.param:
                errors.append(f"gate {node}: prime {gate.p} != {spec.param}")
        for src, _ in gate.wires:
            src_layer = 0 if src < circuit.inputs else circuit.gates[src - circuit.inputs].layer
            if src_layer != gate.layer - 1:
                errors.append(
                    f"gate {node} (layer {gate.layer}): wire from layer {src_layer}"
                )
        if gate.kind == SUMP and node != circuit.output:
            errors.append(f"gate {node}: vector-valued gate is not the output")
    if circuit.output >= circuit.inputs:
        out_layer = circuit.gates[circuit.output - circuit.inputs].layer
        if out_layer != depth:
            errors.append(f"output sits in layer {out_layer}, shape has {depth}")
    elif depth:
        errors.append("output is an input node but the shape has layers")
    return (not errors, errors)


def shape_of(circuit: CCircuit) -> str:
    """Reconstruct a descriptor from the gates (wildcard AND/OR params)."""
    by_layer: dict[int, Gate] = {}
    for g in circuit.gates:
        by_layer.setdefault(g.layer, g)
    specs = []
    for layer in sorted(by_layer):
        g = by_layer[layer]
        if g.kind in (AND, OR):
            specs.append(LayerSpec(g.kind, None))
        elif g.kind == MOD:
            specs.append(LayerSpec(MOD, g.m))
        else:
            specs.append(LayerSpec(g.kind, g.p))
    return format_shape(specs)

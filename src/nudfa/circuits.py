"""Circuits over the signature of a finite algebra.

A circuit is a DAG of nodes: variables, constants, and gates labelled with a
basic operation name.  Nodes are stored in a topologically ordered tuple and
are hash-consed at construction time, so structurally equal subterms share a
node.  Circuits stand in for terms-with-constants (polynomials) everywhere in
the package.

``node_columns`` and ``eval_columns`` evaluate many assignments at once,
each gate as one gather on its operation's flat table; they are the one
evaluator, and ``eval_circuit`` is their one-row view for a single
assignment.  The variables' values are numpy arrays that broadcast
together: rows of a (k, rows) block, or an open grid on which each gate
only spans the axes of the variables it reads.  ``argument_blocks`` lists
argument tuples in ``product`` order as such arrays, a block at a time;
the one closure kernel of algebra.py gathers its products on them.
``format_json`` writes every JSON document the package prints or saves,
``dump_json`` every file, and ``load_json`` reads every file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np

VAR = "var"
CONST = "const"
GATE = "gate"


class OpTable(Protocol):
    """Anything that looks up a named basic operation, with its arity and
    flat table (see algebra.py)."""

    size: int

    def op(self, name: str): ...


@dataclass(frozen=True)
class AlgCircuit:
    """DAG over k variables; nodes are ("var", i), ("const", a) or
    ("gate", op_name, (child_ids...)) in topological order."""

    k: int
    nodes: tuple[tuple, ...]
    output: int

    def __post_init__(self) -> None:
        for idx, node in enumerate(self.nodes):
            tag = node[0]
            if tag == VAR:
                if not 0 <= node[1] < self.k:
                    raise ValueError(f"variable index out of range: {node}")
            elif tag == CONST:
                pass
            elif tag == GATE:
                if any(c >= idx or c < 0 for c in node[2]):
                    raise ValueError(f"node {idx} not topologically ordered")
            else:
                raise ValueError(f"unknown node tag {tag!r}")
        if not 0 <= self.output < len(self.nodes):
            raise ValueError("output id out of range")

    @property
    def gate_count(self) -> int:
        return sum(1 for n in self.nodes if n[0] == GATE)

    def to_json(self) -> dict:
        nodes = []
        for node in self.nodes:
            if node[0] == GATE:
                nodes.append([GATE, node[1], list(node[2])])
            else:
                nodes.append(list(node))
        return {"k": self.k, "nodes": nodes, "output": self.output}

    @staticmethod
    def from_json(data: dict) -> "AlgCircuit":
        nodes = []
        for raw in data["nodes"]:
            if raw[0] == GATE:
                nodes.append((GATE, raw[1], tuple(raw[2])))
            elif raw[0] == VAR:
                nodes.append((VAR, int(raw[1])))
            elif raw[0] == CONST:
                nodes.append((CONST, int(raw[1])))
            else:
                raise ValueError(f"bad node {raw!r}")
        return AlgCircuit(int(data["k"]), tuple(nodes), int(data["output"]))


_INF = float("inf")


def _float(x: float) -> str:
    """A float as ``json`` writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# The scalar writers, looked up by exact type: bool is not int here.
_SCALARS = {
    str: _escape,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    float: _float,
}
_INTS, _STRS, _FLAT = {int}, {str}, {int, str}


def _subclass_scalar(x) -> str:
    """A scalar of a subclass of str, int or float, as ``json`` writes it."""
    if isinstance(x, str):
        return _escape(x)
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _key(k) -> str:
    """A dict key that is not a str, as ``json`` turns it into one."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True or k is False or k is None:
        return _SCALARS[type(k)](k)  # before int: bool is an int
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(k).__name__}"
    )


def _write(o, out: list[str], levels: list[tuple[str, str, str]], depth: int) -> None:
    """Append the JSON text of the container or scalar ``o``, whose items
    sit at ``depth + 1``, to ``out``.  ``levels`` holds each depth's item
    separator, opening indent and closing indent, built on first use."""
    if depth == len(levels):
        inner = "\n" + "  " * (depth + 1)
        levels.append(("," + inner, inner, "\n" + "  " * depth))
    t = type(o)
    if t is list or t is tuple or t is not dict and isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        sep, inner, close = levels[depth]
        types = set(map(type, o))
        if types <= _FLAT:
            if types == _INTS:
                body = sep.join(map(int.__repr__, o))
            elif types == _STRS:
                body = sep.join(map(_escape, o))
            else:
                body = sep.join(
                    [_escape(x) if type(x) is str else int.__repr__(x) for x in o]
                )
            out.append("[" + inner + body + close + "]")
            return
        pre = "[" + inner
        depth += 1
        for v in o:
            f = _SCALARS.get(type(v))
            if f:
                out.append(pre + f(v))
            else:
                out.append(pre)
                _write(v, out, levels, depth)
            pre = sep
        out.append(close + "]")
    elif t is dict or isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        sep, inner, close = levels[depth]
        pre = "{" + inner
        depth += 1
        for k, v in sorted(o.items()):
            pre += _escape(k if type(k) is str else _key(k)) + ": "
            f = _SCALARS.get(type(v))
            if f:
                out.append(pre + f(v))
            else:
                out.append(pre)
                _write(v, out, levels, depth)
            pre = sep
        out.append(close + "}")
    else:
        f = _SCALARS.get(t)
        out.append(f(o) if f else _subclass_scalar(o))


def format_json(doc) -> str:
    """The package's JSON text: what the stdlib's ``dumps`` writes with
    ``indent=2, sort_keys=True``, byte for byte, built by one recursion
    into one list (the stdlib runs its C encoder only without an indent,
    and otherwise yields each token up one generator per nesting level).
    Tuples are written as lists, dict items are sorted by their keys
    before the keys become strings, and a value or key the stdlib refuses
    raises TypeError."""
    out: list[str] = []
    _write(doc, out, [], 0)
    return "".join(out)


def dump_json(path: str, data: dict) -> None:
    """Write the package's JSON file format, ``format_json`` and a final
    newline, in one write."""
    with open(path, "w") as fh:
        fh.write(format_json(data) + "\n")


class FileFormatError(Exception):
    """An input file its reader refuses: a JSON file that lacks a key its
    format reads, or a malformed DIMACS CNF."""


T = TypeVar("T")


def load_json(path: str, parse: Callable[[dict], T]) -> T:
    """Read the package's JSON file format at ``path`` with ``parse``; a
    key that ``parse`` looks up and the file lacks is a
    ``FileFormatError`` that names the path and the key."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return parse(data)
    except KeyError as exc:
        raise FileFormatError(f"{path}: missing key {exc.args[0]!r}") from None


def eval_circuit(algebra: OpTable, circuit: AlgCircuit, args: Sequence[int]) -> int:
    """The circuit on one assignment of its k variables, as a one-row
    ``eval_columns``."""
    column = np.array(args, np.intp).reshape(-1, 1)
    return int(eval_columns(algebra, circuit, column)[0])


def argument_blocks(pools: list[np.ndarray], block: int):
    """Every tuple of ``product(*pools)`` as argument arrays that broadcast
    to at most ``block`` tuples: the last pool runs along the columns, a
    slice of it at a time, and the other pools' tuples along the rows."""
    *head, last = pools
    if not last.size:
        return
    step = max(1, block // last.size)
    total = math.prod(p.size for p in head)
    for start in range(0, total, step):
        q = np.arange(start, min(start + step, total))
        rows = []
        for pool in reversed(head):
            q, r = np.divmod(q, pool.size)
            rows.append(pool[r][:, None])
        rows.reverse()
        for lo in range(0, last.size, block):
            yield rows + [last[None, lo : lo + block]]


def node_columns(
    algebra: OpTable, circuit: AlgCircuit, args: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Every node's value on many assignments at once.

    ``args`` holds the k variables' element values: a (k, rows) block, or
    k arrays that broadcast together.  A gate is one gather on its
    operation's flat table, at index sum(a_i * n**(r-1-i)) over its
    children's columns (the layout of algebra.py), and spans only the axes
    its children span; a constant is a scalar.  A column that spans fewer
    axes is returned as a broadcast view at the full shape.  Columns use
    the smallest unsigned dtype holding the universe.
    """
    cols, shape = _columns(algebra, circuit, args, keep_all=True)
    return [_full(col, shape) for col in cols]


def eval_columns(
    algebra: OpTable, circuit: AlgCircuit, args: Sequence[np.ndarray]
) -> np.ndarray:
    """The output column of ``node_columns``; each other column is dropped
    after its last reader."""
    cols, shape = _columns(algebra, circuit, args, keep_all=False)
    return _full(cols[circuit.output], shape)


def _full(col: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return col if col.shape == shape else np.broadcast_to(col, shape)


def _columns(
    algebra: OpTable,
    circuit: AlgCircuit,
    args: Sequence[np.ndarray],
    keep_all: bool,
) -> tuple[list, tuple[int, ...]]:
    if len(args) != circuit.k:
        raise ValueError(f"expected {circuit.k} arguments, got {len(args)}")
    n = algebra.size
    dtype = np.min_scalar_type(n - 1)
    if isinstance(args, np.ndarray):
        shape = args.shape[1:]
    else:
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    readers = list(range(len(circuit.nodes)))
    if not keep_all:
        for idx, node in enumerate(circuit.nodes):
            if node[0] == GATE:
                for c in node[2]:
                    readers[c] = idx
        readers[circuit.output] = len(readers)
    flat: dict[str, np.ndarray] = {}
    cols: list = []
    for idx, node in enumerate(circuit.nodes):
        tag = node[0]
        if tag == VAR:
            col = np.asarray(args[node[1]], dtype)
        elif tag == CONST:
            col = dtype.type(node[1])
        else:
            op = algebra.op(node[1])
            children = node[2]
            if len(children) != op.arity:
                raise ValueError(
                    f"{node[1]}: expected {op.arity} args, got {len(children)}"
                )
            table = flat.get(node[1])
            if table is None:
                table = flat[node[1]] = np.asarray(op.table, dtype)
            if not children:
                col = table[0]
            elif len(children) == 1:
                col = table[cols[children[0]]]
            else:
                at = cols[children[0]].astype(np.intp)
                for c in children[1:]:
                    at = at * n + cols[c]
                col = table[at]
            for c in children:
                if readers[c] == idx:
                    cols[c] = None
        cols.append(col)
    return cols, shape


class CircuitBuilder:
    """Incremental hash-consed construction of an AlgCircuit."""

    def __init__(self, k: int):
        self.k = k
        self._nodes: list[tuple] = []
        self._memo: dict[tuple, int] = {}

    def _intern(self, node: tuple) -> int:
        idx = self._memo.get(node)
        if idx is None:
            idx = len(self._nodes)
            self._nodes.append(node)
            self._memo[node] = idx
        return idx

    def var(self, i: int) -> int:
        if not 0 <= i < self.k:
            raise ValueError(f"variable {i} out of range")
        return self._intern((VAR, i))

    def const(self, a: int) -> int:
        return self._intern((CONST, a))

    def gate(self, op: str, *children: int) -> int:
        for c in children:
            if not 0 <= c < len(self._nodes):
                raise ValueError(f"unknown child id {c}")
        return self._intern((GATE, op, tuple(children)))

    def inline(self, circuit: AlgCircuit, var_map: Sequence[int]) -> int:
        """Copy ``circuit`` into this builder, replacing its variable i by the
        existing node ``var_map[i]``; returns the id of the copied output."""
        if len(var_map) != circuit.k:
            raise ValueError("var_map length must match circuit.k")
        ids: list[int] = []
        for node in circuit.nodes:
            tag = node[0]
            if tag == VAR:
                ids.append(var_map[node[1]])
            elif tag == CONST:
                ids.append(self.const(node[1]))
            else:
                ids.append(self.gate(node[1], *(ids[c] for c in node[2])))
        return ids[circuit.output]

    def finish(self, output: int) -> AlgCircuit:
        return subcircuit(self.k, self._nodes, output)


def subcircuit(k: int, nodes: Sequence[tuple], output: int) -> AlgCircuit:
    """The circuit of ``output`` and its ancestors among ``nodes``, a
    topologically ordered list whose gates name their children by index;
    the kept nodes stay in their order."""
    keep = _reachable(nodes, output)
    remap: dict[int, int] = {}
    kept: list[tuple] = []
    for idx in keep:
        node = nodes[idx]
        if node[0] == GATE:
            node = (GATE, node[1], tuple(remap[c] for c in node[2]))
        remap[idx] = len(kept)
        kept.append(node)
    return AlgCircuit(k, tuple(kept), remap[output])


def _reachable(nodes: Sequence[tuple], root: int) -> list[int]:
    seen: set[int] = set()
    stack = [root]
    while stack:
        idx = stack.pop()
        if idx in seen:
            continue
        seen.add(idx)
        node = nodes[idx]
        if node[0] == GATE:
            stack.extend(node[2])
    return sorted(seen)


def constant_circuit(k: int, a: int) -> AlgCircuit:
    b = CircuitBuilder(k)
    return b.finish(b.const(a))

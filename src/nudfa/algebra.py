"""Finite algebras with named operation tables.

The universe of an algebra of size n is {0, ..., n-1}.  An operation of arity
r is stored as a flat row-major table of length n**r: the value on arguments
(a_1, ..., a_r) sits at index sum(a_i * n**(r-1-i)).  Nullary operations are
permitted (table of length 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .circuits import AlgCircuit, CircuitBuilder, eval_circuit
from .limits import Budget, charge, default_budget
from .partitions import Partition


@dataclass(frozen=True)
class Operation:
    name: str
    arity: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError("negative arity")


@dataclass(frozen=True)
class FiniteAlgebra:
    """Named operations over the universe {0..size-1}."""

    name: str
    size: int
    ops: tuple[Operation, ...]
    _by_name: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("universe must be nonempty")
        lookup = {}
        for op in self.ops:
            if op.name in lookup:
                raise ValueError(f"duplicate operation name {op.name!r}")
            if len(op.table) != self.size**op.arity:
                raise ValueError(
                    f"operation {op.name!r}: table length {len(op.table)}, "
                    f"expected {self.size ** op.arity}"
                )
            if any(not 0 <= v < self.size for v in op.table):
                raise ValueError(f"operation {op.name!r}: value out of universe")
            lookup[op.name] = op
        object.__setattr__(self, "_by_name", lookup)

    # -- evaluation --------------------------------------------------------

    def op(self, name: str) -> Operation:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no operation named {name!r}") from None

    def op_arity(self, name: str) -> int:
        return self.op(name).arity

    def eval_op(self, name: str, args: Sequence[int]) -> int:
        op = self.op(name)
        if len(args) != op.arity:
            raise ValueError(f"{name}: expected {op.arity} args, got {len(args)}")
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return op.table[idx]

    @property
    def elements(self) -> range:
        return range(self.size)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "ops": [
                {"name": op.name, "arity": op.arity, "table": list(op.table)}
                for op in self.ops
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteAlgebra":
        ops = tuple(
            Operation(o["name"], int(o["arity"]), tuple(int(v) for v in o["table"]))
            for o in data["ops"]
        )
        return FiniteAlgebra(str(data["name"]), int(data["size"]), ops)

    @staticmethod
    def load(path: str) -> "FiniteAlgebra":
        with open(path) as fh:
            return FiniteAlgebra.from_json(json.load(fh))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def make_op(name: str, arity: int, size: int, fn) -> Operation:
    """Tabulate a Python function into an Operation."""
    table = tuple(fn(*args) for args in product(range(size), repeat=arity))
    return Operation(name, arity, table)


# ---------------------------------------------------------------------------
# Unary polynomial clone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnaryFn:
    """A unary polynomial: its value table plus a witnessing circuit."""

    values: tuple[int, ...]
    witness: AlgCircuit

    def __call__(self, x: int) -> int:
        return self.values[x]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.values)

    def is_idempotent(self) -> bool:
        return all(self.values[v] == v for v in self.image)


class UnaryClone:
    """All unary polynomials of an algebra, closed under the basic operations.

    A batched breadth-first closure (``_closure``) with k = 1.  Functions
    are deduplicated by value table, and each carries the first witness
    circuit in the variable x0 found in breadth-first ``product`` order.
    Iteration order is the canonical sort by value table, so searches over
    the clone are deterministic.
    """

    def __init__(self, algebra: FiniteAlgebra, budget: Optional[Budget] = None):
        self.algebra = algebra
        builder, seen, _ = _closure(algebra, 1, budget, "unary clone")
        dtype = np.min_scalar_type(algebra.size - 1)
        found = sorted(
            (tuple(np.frombuffer(key, dtype).tolist()), node)
            for key, node in seen.items()
        )
        self.functions = tuple(UnaryFn(tab, builder.finish(nd)) for tab, nd in found)
        self._by_table = {fn.values: fn for fn in self.functions}

    def __iter__(self):
        return iter(self.functions)

    def __len__(self) -> int:
        return len(self.functions)

    def __contains__(self, table: tuple[int, ...]) -> bool:
        return tuple(table) in self._by_table

    def lookup(self, table: Iterable[int]) -> Optional[UnaryFn]:
        return self._by_table.get(tuple(table))

    def find(self, predicate) -> Optional[UnaryFn]:
        """First function (canonical order) satisfying the predicate."""
        for fn in self.functions:
            if predicate(fn):
                return fn
        return None

    def mapping(self, pairs: Sequence[tuple[int, int]]) -> Optional[UnaryFn]:
        """First function with fn(a) == b for every requested (a, b)."""
        return self.find(lambda fn: all(fn.values[a] == b for a, b in pairs))


# Most rows one numpy gather produces; bounds the scratch memory of a batch.
_BATCH_ROWS = 512


def _closure(
    algebra: FiniteAlgebra,
    k: int,
    budget: Optional[Budget],
    label: str,
    depth_bound: Optional[int] = None,
    stop: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    *,
    charge_seeds: bool = True,
) -> tuple[CircuitBuilder, dict[bytes, int], Optional[int]]:
    """Breadth-first closure of the k-ary polynomial tables of an algebra.

    Round 0 holds the projections, the constants and the nullary operations.
    Each later round, up to ``depth_bound``, applies every basic operation
    in ``product`` order to the tuples of tables seen before the round that
    include one found in the previous round; the last argument runs over a
    batch of rows at once, as one gather on the flat operation table.
    Tables are keyed by their bytes in the smallest unsigned dtype and map to
    the node that first produced them.  Each new table is charged to
    ``label``, and so is each seed if ``charge_seeds``.  ``stop`` maps a
    stack of rows to a boolean mask; the closure ends at the first table it
    accepts and returns that table's node.
    """
    budget = budget or default_budget()
    n = algebra.size
    width = n**k
    dtype = np.min_scalar_type(n - 1)
    builder = CircuitBuilder(k)
    seen: dict[bytes, int] = {}

    def rows_of(keys) -> np.ndarray:
        return np.frombuffer(b"".join(keys), dtype).reshape(-1, width)

    grid = np.indices((n,) * k, dtype=dtype).reshape(k, width)
    seeds = [(grid[i], builder.var(i)) for i in range(k)]
    seeds += [(np.full(width, a, dtype), builder.const(a)) for a in range(n)]
    for op in algebra.ops:
        if op.arity == 0:
            seeds.append((np.full(width, op.table[0], dtype), builder.gate(op.name)))
    for i, (row, node) in enumerate(seeds):
        key = row.tobytes()
        if key not in seen:
            seen[key] = node
            if charge_seeds:
                charge(len(seen), budget.clone_functions, label)
        elif i < k:
            seen[key] = node  # |A| = 1: the last variable names the table
    hits = np.flatnonzero(stop(rows_of(seen))) if stop else ()
    if len(hits):
        return builder, seen, list(seen.values())[hits[0]]

    void = np.dtype((np.void, width * dtype.itemsize))
    frontier, rounds = 0, 0
    while len(seen) > frontier and (depth_bound is None or rounds < depth_bound):
        rounds += 1
        current = rows_of(seen)
        node_of = list(seen.values())
        m = len(node_of)
        for op in (op for op in algebra.ops if op.arity):
            flat = np.asarray(op.table, dtype)
            for prefix in product(range(m), repeat=op.arity - 1):
                offset = 0
                for p in prefix:
                    offset = (offset + current[p].astype(np.intp)) * n
                # a tuple without a frontier table was applied in an earlier round
                lo = 0 if any(p >= frontier for p in prefix) else frontier
                children = [node_of[p] for p in prefix]
                for start in range(lo, m, _BATCH_ROWS):
                    rows = flat[offset + current[start : start + _BATCH_ROWS]]
                    _, first = np.unique(rows.view(void).ravel(), return_index=True)
                    first.sort()
                    accepted = stop(rows[first]) if stop else None
                    for j, i in enumerate(first.tolist()):
                        key = rows[i].tobytes()
                        if key in seen:
                            continue
                        node = builder.gate(op.name, *children, node_of[start + i])
                        seen[key] = node
                        charge(len(seen), budget.clone_functions, label)
                        if stop and accepted[j]:
                            return builder, seen, node
        frontier = m
    return builder, seen, None


# ---------------------------------------------------------------------------
# Malcev polynomial search
# ---------------------------------------------------------------------------


def find_malcev_polynomial(
    algebra: FiniteAlgebra,
    depth_bound: int = 4,
    budget: Optional[Budget] = None,
) -> Optional[AlgCircuit]:
    """Search for a ternary polynomial d with d(y,x,x) = y = d(x,x,y).

    A batched breadth-first closure (``_closure``) over ternary tables:
    depth 0 holds the three projections and the constants, depth k+1 applies
    every basic operation to already-seen functions.  Returns the first
    witnessing circuit in breadth-first ``product`` order, or None if none
    exists within the depth bound.
    """
    n = algebra.size
    x, y = np.indices((n, n)).reshape(2, n * n)
    yxx, xxy = (y * n + x) * n + x, (x * n + x) * n + y

    def is_malcev(rows: np.ndarray) -> np.ndarray:
        return ((rows[:, yxx] == y) & (rows[:, xxy] == y)).all(axis=1)

    builder, _, hit = _closure(
        algebra, 3, budget, "Malcev search", depth_bound, is_malcev, charge_seeds=False
    )
    return None if hit is None else builder.finish(hit)


def verify_malcev(algebra: FiniteAlgebra, circuit: AlgCircuit) -> bool:
    """True iff the ternary circuit satisfies the Malcev identities."""
    if circuit.k != 3:
        return False
    for x in algebra.elements:
        for y in algebra.elements:
            if eval_circuit(algebra, circuit, (y, x, x)) != y:
                return False
            if eval_circuit(algebra, circuit, (x, x, y)) != y:
                return False
    return True


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def respects(algebra: FiniteAlgebra, part: Partition) -> bool:
    """True iff the partition is compatible with every basic operation.

    Compatibility is checked one coordinate at a time; substituting related
    elements coordinatewise composes to the general case by transitivity.
    """
    if part.n != algebra.size:
        raise ValueError("partition over the wrong universe")
    n = algebra.size
    for op in algebra.ops:
        if op.arity == 0:
            continue
        for args in product(range(n), repeat=op.arity):
            base = algebra.eval_op(op.name, args)
            for i, a in enumerate(args):
                c = part.class_of[a]
                if c == a:
                    continue
                swapped = list(args)
                swapped[i] = c
                if not part.same(base, algebra.eval_op(op.name, swapped)):
                    return False
    return True


def quotient_algebra(
    algebra: FiniteAlgebra, part: Partition
) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Quotient by a congruence; returns (A/part, projection map).

    Blocks are indexed 0..s-1 in order of their least member, and the
    projection maps each element to its block index.
    """
    if not respects(algebra, part):
        raise ValueError("partition is not a congruence of the algebra")
    reps = sorted(set(part.class_of))
    index = {rep: i for i, rep in enumerate(reps)}
    mapping = tuple(index[c] for c in part.class_of)
    s = len(reps)
    ops = []
    for op in algebra.ops:
        table = tuple(
            mapping[algebra.eval_op(op.name, [reps[a] for a in args])]
            for args in product(range(s), repeat=op.arity)
        )
        ops.append(Operation(op.name, op.arity, table))
    quo = FiniteAlgebra(f"{algebra.name}/{part.num_blocks()}cl", s, tuple(ops))
    return quo, mapping

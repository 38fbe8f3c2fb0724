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
from typing import Iterable, Optional, Sequence

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

    Functions are deduplicated by value table; each carries a witness circuit
    in the single variable x0.  Iteration order is the canonical sort by value
    table, so searches over the clone are deterministic.
    """

    def __init__(self, algebra: FiniteAlgebra, budget: Optional[Budget] = None):
        self.algebra = algebra
        budget = budget or default_budget()
        self.functions = _close_unary(algebra, budget)
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


def _close_unary(algebra: FiniteAlgebra, budget: Budget) -> tuple[UnaryFn, ...]:
    n = algebra.size
    builder = CircuitBuilder(1)
    seen: dict[tuple[int, ...], int] = {}

    def add(tab: tuple[int, ...], node: int) -> bool:
        if tab in seen:
            return False
        seen[tab] = node
        charge(len(seen), budget.clone_functions, "unary clone")
        return True

    add(tuple(range(n)), builder.var(0))
    for a in algebra.elements:
        add((a,) * n, builder.const(a))
    for op in algebra.ops:
        if op.arity == 0:
            add((op.table[0],) * n, builder.gate(op.name))

    frontier = list(seen)
    while frontier:
        current = list(seen)
        fresh: list[tuple[int, ...]] = []
        frontier_set = set(frontier)
        for op in algebra.ops:
            if op.arity == 0:
                continue
            for combo in product(current, repeat=op.arity):
                if not any(t in frontier_set for t in combo):
                    continue  # already combined in an earlier round
                tab = tuple(
                    algebra.eval_op(op.name, [t[x] for t in combo]) for x in range(n)
                )
                if add(tab, builder.gate(op.name, *(seen[t] for t in combo))):
                    fresh.append(tab)
        frontier = fresh
    out = []
    for tab in sorted(seen):
        out.append(UnaryFn(tab, builder.finish(seen[tab])))
    return tuple(out)


# ---------------------------------------------------------------------------
# Malcev polynomial search
# ---------------------------------------------------------------------------


def is_malcev_table(n: int, table: tuple[int, ...]) -> bool:
    """Check d(y,x,x) = y = d(x,x,y) for a flat ternary table over {0..n-1}."""
    nn = n * n
    for x in range(n):
        for y in range(n):
            if table[y * nn + x * n + x] != y:
                return False
            if table[x * nn + x * n + y] != y:
                return False
    return True


def find_malcev_polynomial(
    algebra: FiniteAlgebra,
    depth_bound: int = 4,
    budget: Optional[Budget] = None,
) -> Optional[AlgCircuit]:
    """Search for a ternary polynomial d with d(y,x,x) = y = d(x,x,y).

    Iterative deepening over circuit depth with memoised function tables:
    depth 0 holds the three projections and the constants, depth k+1 applies
    every basic operation to already-seen functions.  Returns the first
    witnessing circuit found, or None if none exists within the depth bound.
    """
    budget = budget or default_budget()
    n = algebra.size
    builder = CircuitBuilder(3)
    nn = n * n

    proj = [
        tuple(x for x in range(n) for _ in range(nn)),
        tuple(y for _ in range(n) for y in range(n) for _ in range(n)),
        tuple(z for _ in range(nn) for z in range(n)),
    ]
    seen: dict[tuple[int, ...], int] = {}
    for i, tab in enumerate(proj):
        seen[tab] = builder.var(i)
    for a in algebra.elements:
        seen.setdefault((a,) * (n * nn), builder.const(a))
    for op in algebra.ops:
        if op.arity == 0:
            seen.setdefault((op.table[0],) * (n * nn), builder.gate(op.name))

    def check(tab: tuple[int, ...], node: int) -> Optional[AlgCircuit]:
        if is_malcev_table(n, tab):
            return builder.finish(node)
        return None

    for tab, node in list(seen.items()):
        hit = check(tab, node)
        if hit is not None:
            return hit

    frontier = list(seen)
    for _depth in range(depth_bound):
        if not frontier:
            break
        current = list(seen)
        frontier_set = set(frontier)
        fresh: list[tuple[int, ...]] = []
        for op in algebra.ops:
            if op.arity == 0:
                continue
            for combo in product(current, repeat=op.arity):
                if not any(t in frontier_set for t in combo):
                    continue
                tab = tuple(
                    algebra.eval_op(op.name, [t[i] for t in combo])
                    for i in range(n * nn)
                )
                if tab in seen:
                    continue
                node = builder.gate(op.name, *(seen[t] for t in combo))
                seen[tab] = node
                charge(len(seen), budget.clone_functions, "Malcev search")
                hit = check(tab, node)
                if hit is not None:
                    return hit
                fresh.append(tab)
        frontier = fresh
    return None


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

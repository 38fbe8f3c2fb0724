"""Finite algebras with named operation tables.

The universe of an algebra of size n is {0, ..., n-1}.  An operation of arity
r is stored as a flat row-major table of length n**r: the value on arguments
(a_1, ..., a_r) sits at index sum(a_i * n**(r-1-i)).  Nullary operations are
permitted (table of length 1).

Polynomial tables are closed in numpy by one semi-naive kernel,
``_closure``, the only code that forms products of tuples under the basic
operations: it closes the unary clone in A^A, the Malcev search in
A^(A^3) and the commutator's matrix subalgebra M(alpha, beta) in A^4
(congruence.py), each under a named budget cap.  Where witness circuits
are wanted, or some operation is neither unary nor an associative binary
one, it forms every new tuple in breadth-first ``product`` order, which
fixes the first witness circuit of every table.  Otherwise it closes over
each binary operation's generators, which associativity makes exact and
which forms far fewer products.

A unary polynomial is its value table, a tuple, and the clone holds
tables only.  Witness circuits are a query, ``unary_witnesses``: the
breadth-first closure with witness nodes, stopped at the row that
completes the tables asked for.  ``Structure.witnesses`` keeps what it
returns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .circuits import (
    CONST,
    GATE,
    VAR,
    AlgCircuit,
    CircuitBuilder,
    argument_blocks,
    dump_json,
    eval_columns,
    subcircuit,
)
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
        dump_json(path, self.to_json())


def make_op(name: str, arity: int, size: int, fn) -> Operation:
    """Tabulate a Python function into an Operation."""
    table = tuple(fn(*args) for args in product(range(size), repeat=arity))
    return Operation(name, arity, table)


# ---------------------------------------------------------------------------
# Unary polynomial clone
# ---------------------------------------------------------------------------


class UnaryClone:
    """All unary polynomials of an algebra, as value tables: the closure of
    x, the constants and the nullary values under the basic operations
    (``_closure``), each table charged to "unary clone".  Iteration order
    is the canonical sort by value table, so searches over the clone are
    deterministic.
    """

    def __init__(self, algebra: FiniteAlgebra, budget: Optional[Budget] = None):
        self.algebra = algebra
        seen, _ = _seeded(algebra, 1)
        _closure(algebra, seen, budget, "unary clone")
        tables = seen.tables()
        # The value tables stacked in iteration order, one row a function.
        self.tables = tables[np.lexsort(tables.T[::-1])]
        self.functions = tuple(map(tuple, self.tables.tolist()))
        self._known = frozenset(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __len__(self) -> int:
        return len(self.functions)

    def lookup(self, table: Iterable[int]) -> Optional[tuple[int, ...]]:
        table = tuple(table)
        return table if table in self._known else None

    def find(self, predicate) -> Optional[tuple[int, ...]]:
        """First function (canonical order) satisfying the predicate."""
        for fn in self.functions:
            if predicate(fn):
                return fn
        return None

    def mapping(self, pairs: Sequence[tuple[int, int]]) -> Optional[tuple[int, ...]]:
        """First function with fn(a) == b for every requested (a, b): the
        first row of ``tables`` that a mask of the pairs keeps."""
        keep = np.ones(len(self.tables), bool)
        for a, b in pairs:
            keep &= self.tables[:, a] == b
        i = int(keep.argmax())
        return self.functions[i] if keep[i] else None


# Most table entries (padded rows times their width) one block of products
# holds; bounds the scratch memory of a block, about 10 bytes an entry.
CLOSURE_BLOCK = 1 << 16
# Most possible rows, n**width, of a store that keys rows by their codes.
DENSE_CODES = 1 << 16


class _Tables:
    """Distinct rows of ``width`` entries over n elements, in the order
    they were added.

    When there are at most ``DENSE_CODES`` possible rows, ``hashes`` gives
    each row's exact base-n code, and a bitmap of the codes marks the
    stored ones.  Otherwise each row is padded with zeros to whole 64-bit
    words and keyed by its hash, a weighted sum of its words modulo 2**64,
    in a sorted array of the stored rows' hashes.  Every hash match is
    checked word by word; a block in which two different rows share a hash
    is sorted out by comparing bytes instead.  Either way ``fresh`` finds
    the same rows.
    """

    def __init__(self, n: int, width: int):
        dtype = np.min_scalar_type(n - 1)
        self.width = width
        self.dense = n**width <= DENSE_CODES
        self.padded = width if self.dense else width + -width % (8 // dtype.itemsize)
        self.rows = np.zeros((16, self.padded), dtype)
        self.count = 0
        if self.dense:
            # Float weights keep the codes exact and run the product in BLAS.
            self._codes = n ** np.arange(width - 1, -1, -1.0)
            self._stored = np.zeros(n**width, bool)
            return
        z = np.arange(1, self.padded * dtype.itemsize // 8 + 1, dtype=np.uint64)
        z *= np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        self._weights = z ^ (z >> np.uint64(31))
        self._keys = np.empty(0, np.uint64)  # sorted hashes of the stored rows
        self._where = np.empty(0, np.intp)  # the stored row of each

    def hashes(self, rows: np.ndarray) -> np.ndarray:
        if self.dense:
            return (rows @ self._codes).astype(np.intp)
        return rows.view(np.uint64) @ self._weights

    def fresh(self, rows: np.ndarray, hashes: np.ndarray) -> np.ndarray:
        """Positions, ascending, of the rows that are neither stored nor
        equal to an earlier row."""
        if self.dense:
            at = np.flatnonzero(~self._stored[hashes])
            if len(at) < 2:
                return at
            return np.sort(at[np.unique(hashes[at], return_index=True)[1]])
        order = np.argsort(hashes)
        ordered = hashes[order]
        head = np.ones(len(order), bool)
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        first = np.minimum.reduceat(order, starts)
        keys = ordered[starts]
        at = np.searchsorted(self._keys, keys)
        old = at < len(self._keys)
        old[old] = self._keys[at[old]] == keys[old]
        words = rows.view(np.uint64)
        stored = self.rows.view(np.uint64)[self._where[at[old]]]
        if (words[order] == words[first[np.cumsum(head) - 1]]).all() and (
            words[first[old]] == stored
        ).all():
            return np.sort(first[~old])
        known = {row.tobytes() for row in self.rows[: self.count]}
        out = []
        for i, row in enumerate(rows):
            key = row.tobytes()
            if key not in known:
                known.add(key)
                out.append(i)
        return np.array(out, np.intp)

    def add(self, rows: np.ndarray, hashes: np.ndarray) -> None:
        end = self.count + len(rows)
        if end > len(self.rows):
            size = (max(end, 2 * len(self.rows)), self.padded)
            grown = np.zeros(size, self.rows.dtype)
            grown[: self.count] = self.rows[: self.count]
            self.rows = grown
        self.rows[self.count : end] = rows
        if self.dense:
            self._stored[hashes] = True
        else:
            order = np.argsort(hashes)
            at = np.searchsorted(self._keys, hashes[order]) + np.arange(len(order))
            rest = np.ones(end, bool)
            rest[at] = False
            keys, where = np.empty(end, np.uint64), np.empty(end, np.intp)
            keys[at], keys[rest] = hashes[order], self._keys
            where[at], where[rest] = self.count + order, self._where
            self._keys, self._where = keys, where
        self.count = end

    def put(self, rows: np.ndarray) -> np.ndarray:
        """Store the rows, of ``width`` entries, that are neither stored nor
        equal to an earlier one; returns their positions."""
        padded = np.zeros((len(rows), self.padded), self.rows.dtype)
        padded[:, : self.width] = rows
        hashes = self.hashes(padded)
        fresh = self.fresh(padded, hashes)
        self.add(padded[fresh], hashes[fresh])
        return fresh

    def tables(self) -> np.ndarray:
        return self.rows[: self.count, : self.width]


def _seeded(algebra: FiniteAlgebra, k: int) -> tuple[_Tables, list[tuple]]:
    """The k-ary tables of round 0, the projections, the constants and the
    nullary operations, stored once each, and their witness nodes."""
    n, width = algebra.size, algebra.size**k
    nullary = [op for op in algebra.ops if op.arity == 0]
    values = np.array([*range(n), *(op.table[0] for op in nullary)])
    seen = _Tables(n, width)
    grid = np.indices((n,) * k).reshape(k, width)
    fresh = seen.put(np.vstack([grid, np.repeat(values[:, None], width, 1)]))
    seeds = [(VAR, i) for i in range(k)] + [(CONST, a) for a in range(n)]
    seeds += [(GATE, op.name, ()) for op in nullary]
    nodes = [seeds[i] for i in fresh.tolist()]
    if n == 1:  # every seed has the one table; the last variable names it
        nodes[0] = (VAR, k - 1)
    return seen, nodes


def _unary_or_associative(ops: Iterable[Operation], n: int) -> bool:
    """True when every operation of arity >= 1 is unary or an associative
    binary one: f(f(x, y), z) = f(x, f(y, z)) on all of A**3."""
    for op in ops:
        if op.arity > 2:
            return False
        if op.arity == 2:
            t = np.asarray(op.table).reshape(n, n)
            if (t[t] != t[:, t]).any():
                return False
    return True


def _fresh_tuples(m: int, frontier: int, arity: int):
    """Pools whose products list, one after another and in ``product``
    order, the tuples of range(m)**arity with an entry at or after
    ``frontier``."""
    old, new, every = np.arange(frontier), np.arange(frontier, m), np.arange(m)
    if arity == 1:
        yield [new]
        return
    rest = list(_fresh_tuples(m, frontier, arity - 1))
    if len(rest) == 1:
        yield [old, *rest[0]]
    else:
        for p in range(frontier):
            for pools in rest:
                yield [old[p : p + 1], *pools]
    yield [new, *[every] * (arity - 1)]


def _closure(
    algebra: FiniteAlgebra,
    seen: _Tables,
    budget: Optional[Budget],
    label: str,
    *,
    nodes: Optional[list[tuple]] = None,
    depth_bound: Optional[int] = None,
    stop: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
    charge_seeds: bool = True,
) -> Optional[int]:
    """Close the rows of a seeded store under the basic operations, applied
    entrywise: the one kernel for every subpower the package generates.

    ``seen`` holds the seeds: round 0 of the k-ary tables (``_seeded``) or
    the generators of M(alpha, beta).  Each round, up to ``depth_bound``,
    applies the operations to tuples of rows stored before it with a row
    new in the round before (semi-naive), gathered on the flat operation
    table in blocks of at most ``CLOSURE_BLOCK`` entries; the rows already
    stored are dropped in numpy (``_Tables``), so only new rows are walked
    one by one.  Each is charged to ``label`` under
    ``budget.clone_functions``, and so is each seed if ``charge_seeds``.

    With ``nodes``, or when some operation is neither unary nor an
    associative binary one (``_unary_or_associative``), every such tuple
    is formed, in ``product`` order (``_fresh_tuples``): breadth-first.
    Otherwise a binary f only takes (s, g) with g in G_f, the rows not
    first made as an f-product: each round pairs every new row with all of
    G_f and every older row with each new member of G_f.  This finds the
    same rows S, whatever the seeds: each t in S is a product
    g_1 f ... f g_j of members of G_f, so by associativity
    f(s, t) = f(...f(s, g_1)..., g_j) is in S.

    ``nodes`` starts as the seeds' witness nodes, and each new row appends
    a gate whose children are row positions, so ``subcircuit(k, nodes, i)``
    is the first circuit that produced row i.  ``stop`` gets each new row
    once, padded, in stacks with the position of the first, and returns a
    boolean mask; the closure ends at the first row it accepts and returns
    its position, else None.  ``stop`` only ends the closure early.
    """
    budget = budget or default_budget()
    cap = budget.clone_functions
    if charge_seeds:
        charge(min(seen.count, cap + 1), cap, label)
    hits = np.flatnonzero(stop(seen.rows[: seen.count], 0)) if stop else ()
    if len(hits):
        return int(hits[0])

    n = algebra.size
    ops = [op for op in algebra.ops if op.arity]
    flats = [np.asarray(op.table, seen.rows.dtype) for op in ops]
    generated = nodes is None and _unary_or_associative(ops, n)
    gens = [np.zeros(0, np.intp) for _ in ops]
    made = [-1] * seen.count  # the operation first making each row
    frontier, rounds = 0, 0
    while seen.count > frontier and (depth_bound is None or rounds < depth_bound):
        rounds += 1
        m = seen.count
        current = seen.rows[:m]
        old, new = np.arange(frontier), np.arange(frontier, m)
        block = max(1, CLOSURE_BLOCK // seen.padded)
        for f, (op, flat) in enumerate(zip(ops, flats)):
            if generated and op.arity == 2:
                born = new[np.not_equal(made[frontier:m], f)]
                gens[f] = np.concatenate([gens[f], born])
                tuples = [[new, gens[f]], [old, born]]
            else:
                tuples = _fresh_tuples(m, frontier, op.arity)
            for pools in tuples:
                for args in argument_blocks(pools, block):
                    rows = flat[_table_index(current, args, n)].reshape(-1, seen.padded)
                    rows[:, seen.width :] = 0
                    hashes = seen.hashes(rows)
                    fresh = seen.fresh(rows, hashes)
                    if not len(fresh):
                        continue
                    hit = np.flatnonzero(stop(rows[fresh], seen.count)) if stop else ()
                    if len(hit):
                        fresh = fresh[: hit[0] + 1]
                    # The first count over the cap, as if each row were charged.
                    last = min(seen.count + len(fresh), max(seen.count, cap) + 1)
                    charge(last, cap, label)
                    if nodes is not None:
                        i, j = np.divmod(fresh, args[-1].size)
                        children = [a[i, 0].tolist() for a in args[:-1]]
                        children.append(args[-1][0, j].tolist())
                        nodes += [(GATE, op.name, c) for c in zip(*children)]
                    made += [f] * len(fresh)
                    seen.add(rows[fresh], hashes[fresh])
                    if len(hit):
                        return seen.count - 1
        frontier = m
    return None


def _table_index(current: np.ndarray, args: list[np.ndarray], n: int) -> np.ndarray:
    """Flat-table index of the operation on every argument tuple of a
    block, one row of entries per tuple."""
    at = current[args[0]].astype(np.intp)
    for a in args[1:]:
        at *= n
        at = at + current[a]
    return at


# ---------------------------------------------------------------------------
# Malcev polynomials
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
    exists within the depth bound or a round finds no new table.
    """
    n = algebra.size
    x, y = np.indices((n, n)).reshape(2, n * n)
    yxx, xxy = (y * n + x) * n + x, (x * n + x) * n + y

    def is_malcev(rows: np.ndarray, first: int) -> np.ndarray:
        return ((rows[:, yxx] == y) & (rows[:, xxy] == y)).all(axis=1)

    seen, nodes = _seeded(algebra, 3)
    hit = _closure(
        algebra, seen, budget, "Malcev search",
        nodes=nodes, depth_bound=depth_bound, stop=is_malcev, charge_seeds=False,
    )
    return None if hit is None else subcircuit(3, nodes, hit)


def unary_witnesses(
    algebra: FiniteAlgebra,
    tables: Sequence[Sequence[int]],
    budget: Optional[Budget] = None,
) -> list[AlgCircuit]:
    """The witness circuit in x0 of each unary table: the first circuit
    that makes it in the breadth-first closure of the unary tables, which
    forms every product in ``product`` order.  The closure, charged to
    "unary clone", stops at the row that completes the set asked for.
    Stopping only truncates it, so a circuit does not depend on what else
    is asked.  A table outside the unary clone raises ValueError, and one
    that is not a map of the universe to itself does before the closure.
    """
    for table in tables:
        if len(table) != algebra.size or not all(0 <= v < algebra.size for v in table):
            raise ValueError(
                f"table {tuple(table)} is not a map of {algebra.name}'s universe"
            )
    seen, nodes = _seeded(algebra, 1)
    asked = np.zeros((len(tables), seen.padded), seen.rows.dtype)
    asked[:, : algebra.size] = tables
    keys = np.sort(seen.hashes(asked))
    stored = dict.fromkeys(row.tobytes() for row in asked)  # each one's position
    left = len(stored)

    def completes(rows: np.ndarray, first: int) -> np.ndarray:
        """Marks the row that stores the last table asked for; a row is one
        of them when its hash is one of theirs and its bytes are."""
        nonlocal left
        hashes = seen.hashes(rows)
        near = np.flatnonzero(keys[np.searchsorted(keys, hashes) % len(keys)] == hashes)
        last = -1
        for i in near.tolist():
            if rows[i].tobytes() in stored:
                stored[rows[i].tobytes()], left, last = first + i, left - 1, i
        return np.arange(len(rows)) == (-1 if left else last)

    _closure(algebra, seen, budget, "unary clone", nodes=nodes, stop=completes)
    at = [stored[row.tobytes()] for row in asked]
    if None in at:
        missing = tuple(tables[at.index(None)])
        raise ValueError(f"table {missing} is not in the unary clone of {algebra.name}")
    return [subcircuit(1, nodes, i) for i in at]


def latin_squares(algebra: FiniteAlgebra) -> Iterator[Operation]:
    """The binary operations, in ``algebra.ops`` order, whose tables are
    Latin squares: every row and every column lists the universe."""
    n = algebra.size
    column = np.arange(n)[:, None]
    for op in algebra.ops:
        if op.arity == 2:
            square = np.asarray(op.table).reshape(n, n)
            if (np.sort(square, axis=0) == column).all() and (
                np.sort(square, axis=1) == column.T
            ).all():
                yield op


def latin_square(algebra: FiniteAlgebra) -> Optional[Operation]:
    """The first of ``latin_squares``.  An algebra with one has the Malcev
    term of ``quasigroup_malcev`` whatever the budget."""
    return next(latin_squares(algebra), None)


def quasigroup_malcev(
    algebra: FiniteAlgebra, budget: Optional[Budget] = None
) -> Optional[AlgCircuit]:
    r"""A quasigroup Malcev term: x * (y\z) when that is one, else
    q(x, y, z) = (x / (y\y)) * (y\z).

    ``*`` is the operation ``latin_square`` picks.  Its translations
    L_y: z -> y * z and R_u: x -> x * u permute the universe, so the
    divisions are powers of them: y\z = L_y^(e-1)(z), where e is the lcm
    of the orders of all the L_y, and x / u = R_u^(f-1)(x) likewise.
    Since y / (y\y) = y, q(x, x, z) = z and q(x, y, y) = x (Mal'cev 1954;
    Freese and McKenzie, "Commutator Theory for Congruence Modular
    Varieties", 1987).  The short term gives x * (x\z) = z always, and
    y * (x\x) = y when x\x is a right identity, as in every group and
    loop.

    The short term has e gates and q has 2e + f - 2.  The short one is
    returned if ``verify_malcev`` accepts it, else q; the result is None
    when no operation is a Latin square or the term would need more than
    ``budget.clone_functions`` gates.
    """
    budget = budget or default_budget()
    cap = budget.clone_functions
    op = latin_square(algebra)
    if op is None:
        return None
    square = np.asarray(op.table).reshape(algebra.size, algebra.size)
    e = _exponent(square, cap)
    if e is None:
        return None

    def term(f: int) -> AlgCircuit:
        r"""(x / (y\y)) * (y\z) with x / u = R_u^(f-1)(x): f = 1 gives the
        short term."""
        b = CircuitBuilder(3)
        x, y, z = (b.var(i) for i in range(3))

        def left_divide(u: int, v: int) -> int:
            for _ in range(e - 1):
                v = b.gate(op.name, u, v)
            return v

        if f > 1:
            u = left_divide(y, y)
            for _ in range(f - 1):
                x = b.gate(op.name, x, u)
        return b.finish(b.gate(op.name, x, left_divide(y, z)))

    short = term(1)
    if verify_malcev(algebra, short):
        return short
    f = _exponent(square.T, cap)
    if f is None or 2 * e + f - 2 > cap:
        return None
    circuit = term(f)
    return circuit if verify_malcev(algebra, circuit) else None


def _exponent(perms: np.ndarray, cap: int) -> Optional[int]:
    """The lcm of the orders of the permutations listed as rows, or None
    as soon as it exceeds ``cap``."""
    e = 1
    for perm in perms.tolist():
        seen = [False] * len(perm)
        for start in range(len(perm)):
            at, length = start, 0
            while not seen[at]:
                seen[at] = True
                at = perm[at]
                length += 1
            if length:
                e = math.lcm(e, length)
                if e > cap:
                    return None
    return e


def verify_malcev(algebra: FiniteAlgebra, circuit: AlgCircuit) -> bool:
    """True iff the ternary circuit satisfies the Malcev identities."""
    if circuit.k != 3:
        return False
    x, y = np.ix_(range(algebra.size), range(algebra.size))
    return all(
        (eval_columns(algebra, circuit, args) == y).all()
        for args in ((y, x, x), (x, x, y))
    )


def malcev_addition(algebra: FiniteAlgebra, malcev: AlgCircuit, zero: int) -> np.ndarray:
    """The size x size table of x + y = d(x, zero, y) for a Malcev circuit d."""
    x, y = np.ix_(range(algebra.size), range(algebra.size))
    return eval_columns(algebra, malcev, (x, zero, y))


def check_circuit(algebra: FiniteAlgebra, circuit: AlgCircuit) -> None:
    """Refuse, with ValueError, a circuit that does not live over the
    algebra: a constant outside 0..size-1, or a gate whose operation the
    algebra lacks or takes another number of arguments."""
    arity = {op.name: op.arity for op in algebra.ops}
    for node in circuit.nodes:
        if node[0] == CONST and not 0 <= node[1] < algebra.size:
            raise ValueError(
                f"circuit constant {node[1]} outside the universe "
                f"0..{algebra.size - 1}"
            )
        if node[0] == GATE and arity.get(node[1]) != len(node[2]):
            raise ValueError(
                f"no operation {node[1]!r} of arity {len(node[2])} in {algebra.name}"
            )


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
    mapping = part.labels()
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

"""Reference oracles: the per-entry closures the batched kernel replaced.

``close_unary`` and ``find_malcev_polynomial`` below are the earlier
implementations of ``UnaryClone`` and ``nudfa.algebra.find_malcev_polynomial``,
kept as they were apart from names, docstrings and default arguments.  They
evaluate every table entry with ``eval_op`` and serve as differential
oracles for the numpy kernel: the same tables, in the same order, with the
same witnesses and budget charges.  ``close_unary`` returns each unary
table with its witness circuit, as pairs in canonical order.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from nudfa.algebra import FiniteAlgebra
from nudfa.circuits import AlgCircuit, CircuitBuilder
from nudfa.limits import Budget, charge


def close_unary(
    algebra: FiniteAlgebra, budget: Budget
) -> tuple[tuple[tuple[int, ...], AlgCircuit], ...]:
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
        out.append((tab, builder.finish(seen[tab])))
    return tuple(out)


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
    algebra: FiniteAlgebra, depth_bound: int, budget: Budget
) -> Optional[AlgCircuit]:
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

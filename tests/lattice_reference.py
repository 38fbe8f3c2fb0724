"""Reference oracle: the all-pairs lattice construction the orbit one replaced.

``all_congruences`` below is the earlier implementation of
``nudfa.congruence.all_congruences``, kept as it was apart from its
docstring and the budget check: one principal congruence per pair, a
join closure over all pairs of elements, and a cubic cover loop.  Its join
and order test are the earlier ``Partition.join`` (a union of both label
vectors through ``Partition.from_pairs``) and ``Partition.leq`` (a block
map), so the oracle shares neither with the label-vector functions the
package now uses.  ``all_congruences_bruteforce`` is the older oracle
still: it filters every partition of the universe for compatibility.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from nudfa.algebra import FiniteAlgebra, respects
from nudfa.congruence import CongruenceLattice, congruence_generated, structure
from nudfa.partitions import Partition


def join(x: Partition, y: Partition) -> Partition:
    pairs = [(i, x.class_of[i]) for i in range(x.n)]
    pairs += [(i, y.class_of[i]) for i in range(x.n)]
    return Partition.from_pairs(x.n, pairs)


def leq(x: Partition, y: Partition) -> bool:
    seen: dict[int, int] = {}
    for i, c in enumerate(x.class_of):
        o = y.class_of[i]
        if seen.setdefault(c, o) != o:
            return False
    return True


def all_congruences(algebra: FiniteAlgebra) -> CongruenceLattice:
    n = algebra.size
    found: set[Partition] = {Partition.identity(n), Partition.total(n)}
    principals = set()
    translations = structure(algebra).translations
    for a, b in combinations(range(n), 2):
        principals.add(congruence_generated(translations, [(a, b)]))
    found |= principals
    frontier = set(found)
    while frontier:
        fresh = set()
        for x in frontier:
            for y in found:
                j = join(x, y)
                if j not in found and j not in fresh:
                    fresh.add(j)
        found |= fresh
        frontier = fresh
    elements = tuple(sorted(found))
    index = {c: i for i, c in enumerate(elements)}
    covers = []
    for i, lo in enumerate(elements):
        for j, hi in enumerate(elements):
            if i == j or not leq(lo, hi):
                continue
            if any(
                leq(lo, mid) and leq(mid, hi) and mid != lo and mid != hi
                for mid in elements
            ):
                continue
            covers.append((i, j))
    return CongruenceLattice(elements, index, tuple(covers))


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1} (restricted growth strings)."""

    def rec(x: int, cls: list[int]) -> Iterator[Partition]:
        if x == n:
            yield Partition(tuple(cls))
            return
        for c in sorted(set(cls)):
            cls.append(c)
            yield from rec(x + 1, cls)
            cls.pop()
        cls.append(x)
        yield from rec(x + 1, cls)
        cls.pop()

    if n == 0:
        yield Partition(())
        return
    yield from rec(1, [0])


def all_congruences_bruteforce(algebra: FiniteAlgebra) -> list[Partition]:
    """Filter every partition of the universe for compatibility."""
    return [p for p in all_partitions(algebra.size) if respects(algebra, p)]

"""Partitions of {0, ..., n-1} with lattice operations.

A partition is stored as the vector mapping each element to the least member
of its block, which makes equality, hashing and refinement tests cheap and
gives every partition a unique normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, order=True)
class Partition:
    """Equivalence relation on {0..n-1}; ``class_of[x]`` is the least member
    of the block of ``x``."""

    class_of: tuple[int, ...]

    def __post_init__(self) -> None:
        ids = self.class_of
        for x, c in enumerate(ids):
            if not (0 <= c <= x and ids[c] == c):
                raise ValueError(f"not in least-member normal form at {x}: {ids}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @staticmethod
    def total(n: int) -> "Partition":
        return Partition((0,) * n) if n else Partition(())

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        cls = list(range(n))
        for block in blocks:
            members = sorted(block)
            for x in members:
                cls[x] = members[0]
        return Partition(tuple(cls))

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        return Partition(tuple(find(x) for x in range(n)))

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.class_of)

    def same(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def blocks(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x, c in enumerate(self.class_of):
            out.setdefault(c, []).append(x)
        return [out[c] for c in sorted(out)]

    def block_of(self, x: int) -> list[int]:
        c = self.class_of[x]
        return [y for y, d in enumerate(self.class_of) if d == c]

    def num_blocks(self) -> int:
        return len(set(self.class_of))

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All related pairs (a, b) with a < b."""
        for block in self.blocks():
            yield from combinations(block, 2)

    # -- lattice structure -------------------------------------------------

    def leq(self, other: "Partition") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        seen: dict[int, int] = {}
        for x, c in enumerate(self.class_of):
            o = other.class_of[x]
            if seen.setdefault(c, o) != o:
                return False
        return True

    def meet(self, other: "Partition") -> "Partition":
        key: dict[tuple[int, int], int] = {}
        cls = []
        for x in range(self.n):
            k = (self.class_of[x], other.class_of[x])
            cls.append(key.setdefault(k, x))
        return Partition(tuple(cls))

    def join(self, other: "Partition") -> "Partition":
        pairs = [(x, self.class_of[x]) for x in range(self.n)]
        pairs += [(x, other.class_of[x]) for x in range(self.n)]
        return Partition.from_pairs(self.n, pairs)

    def is_identity(self) -> bool:
        return all(c == x for x, c in enumerate(self.class_of))

    def is_total(self) -> bool:
        return all(c == 0 for c in self.class_of)


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


def project(part: Partition, mapping: Sequence[int], m: int) -> Partition:
    """Image of ``part`` under a surjection x -> mapping[x] onto {0..m-1}.

    Only meaningful when the kernel of ``mapping`` refines ``part``; the
    result relates mapping[a] with mapping[b] for every related (a, b).
    """
    pairs = [(mapping[a], mapping[b]) for a, b in part.pairs()]
    return Partition.from_pairs(m, pairs)

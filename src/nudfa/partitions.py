"""Partitions of {0, ..., n-1} with lattice operations.

A partition is stored as the vector mapping each element to the least member
of its block, which makes equality, hashing and refinement tests cheap and
gives every partition a unique normal form.  ``label_join`` and
``label_leq`` are the one join and the one order test; they take such
vectors as plain tuples, so the lattice builder joins and compares
without making a Partition for each candidate.
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
        return Partition(label_join(range(n), pairs))

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

    def num_blocks(self) -> int:
        return len(set(self.class_of))

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All related pairs (a, b) with a < b."""
        for block in self.blocks():
            yield from combinations(block, 2)

    def labels(self) -> tuple[int, ...]:
        """The block index of each element, blocks numbered 0, 1, ... in
        order of their least member: the projection onto the quotient."""
        index = {c: i for i, c in enumerate(sorted(set(self.class_of)))}
        return tuple(index[c] for c in self.class_of)

    # -- lattice structure -------------------------------------------------

    def leq(self, other: "Partition") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        return label_leq(self.class_of, other.class_of)

    def meet(self, other: "Partition") -> "Partition":
        key: dict[tuple[int, int], int] = {}
        cls = []
        for x in range(self.n):
            k = (self.class_of[x], other.class_of[x])
            cls.append(key.setdefault(k, x))
        return Partition(tuple(cls))

    def join(self, other: "Partition") -> "Partition":
        return Partition(label_join(self.class_of, enumerate(other.class_of)))

    def is_identity(self) -> bool:
        return all(c == x for x, c in enumerate(self.class_of))


def label_leq(lo: Sequence[int], hi: Sequence[int]) -> bool:
    """Refinement order on least-member label vectors: each x lies in the
    hi-block of the least member of its lo-block."""
    return all(hi[x] == hi[c] for x, c in enumerate(lo))


def label_join(
    labels: Sequence[int], pairs: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
    """Least-member label vector of the equivalence generated by the
    least-member label vector ``labels`` and the pairs.

    A union-find forest starts from ``labels`` and merges each pair, hanging
    each root under the smaller one, so a parent never exceeds its child
    and one pass in increasing order resolves every root.
    """
    parent = list(labels)
    for a, b in pairs:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for x, p in enumerate(parent):
        parent[x] = parent[p]
    return tuple(parent)

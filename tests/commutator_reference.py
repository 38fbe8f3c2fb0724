"""Reference oracles: the term-condition commutator as first written.

``matrix_subalgebra`` and ``commutator`` below are the earlier
implementations of ``nudfa.congruence._matrix_subalgebra`` and
``nudfa.congruence.commutator``, kept as they were apart from names and
this docstring.  They decode every matrix into its four entries, combine
binary operations over one dense frontier-by-existing block a round, loop
in Python over every tuple of matrices for higher arities, and test the
forcing condition one matrix at a time.  They serve as differential
oracles for the semi-naive blocked closure; their ternary loop is slow, so
tests feed them ternary operations only on one or two elements.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from nudfa.algebra import FiniteAlgebra
from nudfa.congruence import congruence_generated, structure
from nudfa.partitions import Partition


def matrix_subalgebra(
    algebra: FiniteAlgebra, left: Partition, right: Partition
) -> np.ndarray:
    """Closure in A^4 of the generator matrices (a,a,b,b) for related (a,b)
    on the left and (u,v,u,v) for related (u,v) on the right; rows of every
    matrix are right-related, columns left-related."""
    n = algebra.size
    gens: set[int] = set()

    def code(x1: int, x2: int, x3: int, x4: int) -> int:
        return ((x1 * n + x2) * n + x3) * n + x4

    for block in left.blocks():
        for a in block:
            for b in block:
                gens.add(code(a, a, b, b))
    for block in right.blocks():
        for u in block:
            for v in block:
                gens.add(code(u, v, u, v))

    present = np.zeros(n**4, dtype=bool)
    codes = np.fromiter(gens, dtype=np.int64)
    present[codes] = True

    def coords(cs: np.ndarray) -> list[np.ndarray]:
        out = []
        rest = cs
        for _ in range(4):
            out.append(rest % n)
            rest = rest // n
        return out[::-1]

    tables = {op.name: np.array(op.table, dtype=np.int64) for op in algebra.ops}
    frontier = codes
    while frontier.size:
        existing = np.flatnonzero(present)
        new_mask = np.zeros(n**4, dtype=bool)
        for op in algebra.ops:
            t = tables[op.name]
            if op.arity == 0:
                v = int(t[0])
                new_mask[code(v, v, v, v)] = True
            elif op.arity == 1:
                cs = coords(frontier)
                res = sum(t[c] * n ** (3 - i) for i, c in enumerate(cs))
                new_mask[res] = True
            elif op.arity == 2:
                for xs, ys in ((frontier, existing), (existing, frontier)):
                    xc = coords(xs)
                    yc = coords(ys)
                    acc = np.zeros((xs.size, ys.size), dtype=np.int64)
                    for i in range(4):
                        acc = acc * n + t[xc[i][:, None] * n + yc[i][None, :]]
                    new_mask[acc.ravel()] = True
            else:
                # rare: recombine everything for higher arities
                cs = [coords(existing)] * op.arity
                for combo in product(range(existing.size), repeat=op.arity):
                    args = [existing[j] for j in combo]
                    cds = [coords(np.array([a]))[i][0] for a in args for i in range(4)]
                    vals = []
                    for i in range(4):
                        idx = 0
                        for j in range(op.arity):
                            idx = idx * n + cds[j * 4 + i]
                        vals.append(int(t[idx]))
                    new_mask[code(*vals)] = True
        new_mask &= ~present
        present |= new_mask
        frontier = np.flatnonzero(new_mask)
    return np.flatnonzero(present)


def commutator(
    algebra: FiniteAlgebra,
    left: Partition,
    right: Partition,
) -> Partition:
    """Term-condition commutator of two congruences.

    Least congruence d such that every matrix of the matrix subalgebra whose
    top row lies in d has its bottom row in d; computed by seeding with the
    bottom rows of matrices with equal top entries and re-closing until the
    forcing condition is stable.
    """
    n = algebra.size
    matrices = matrix_subalgebra(algebra, left, right)
    rows = np.empty((matrices.size, 4), dtype=np.int64)
    rest = matrices.copy()
    for i in range(3, -1, -1):
        rows[:, i] = rest % n
        rest //= n

    seeds = {
        (int(r[2]), int(r[3])) for r in rows if r[0] == r[1] and r[2] != r[3]
    }
    translations = structure(algebra).translations
    delta = congruence_generated(translations, seeds)
    while True:
        forced = set()
        for r in rows:
            if delta.same(int(r[0]), int(r[1])) and not delta.same(int(r[2]), int(r[3])):
                forced.add((int(r[2]), int(r[3])))
        if not forced:
            return delta
        seeds |= forced
        delta = congruence_generated(translations, seeds)

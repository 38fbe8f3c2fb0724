"""Groups built from permutation generators, checked against group theory.

Each group is the closure of a few permutations under composition, its
elements sorted as tuples and multiplied as maps (f * g is f after g), so
its Cayley table comes from the permutations alone.  In a group the
congruences are the coset partitions of the normal subgroups, and
[alpha, beta] is the coset partition of [M, N], the subgroup generated by
the m n m^-1 n^-1 with m in M = e/alpha and n in N = e/beta (Freese and
McKenzie, "Commutator Theory for Congruence Modular Varieties", 1987,
ch. 1); the lower central chain of 1 is the lower central series.  The
oracles here compute all of these with Python sets, apart from
``nudfa.congruence``.  The package reads group commutators off the group
itself, so the groups of order 8 are also held to the term-condition
reference of ``commutator_reference``.
"""

from __future__ import annotations

import itertools

import pytest

import commutator_reference as reference
from nudfa.algebra import FiniteAlgebra, Operation
from nudfa.congruence import (
    Structure,
    all_congruences,
    commutator,
    is_nilpotent_congruence,
    lower_central_chain,
)
from nudfa.limits import Budget
from nudfa.partitions import Partition

# The nonzero vectors of GF(3)^2 in ``product`` order.
VECTORS = [v for v in itertools.product(range(3), repeat=2) if any(v)]


def matrix_action(m):
    """The permutation v -> m v of ``VECTORS``, m a 2 x 2 matrix over GF(3)."""
    return tuple(
        VECTORS.index(tuple(sum(r * x for r, x in zip(row, v)) % 3 for row in m))
        for v in VECTORS
    )


# Generators, the group's order, its number of normal subgroups and
# whether it is nilpotent.  Q8 acts on itself by left multiplication, its
# elements 1, -1, i, -i, j, -j, k, -k numbered 0-7; D4 and D6 are the
# rotation and a reflection of a square and a hexagon; A4 is generated by
# a 3-cycle and a double transposition; in Z3:Z4 an element of order 4
# inverts a 3-cycle by conjugation.  D8 is the rotation and a reflection of
# an octagon.  Q16 acts on itself by left multiplication, a^i b^j numbered
# i + 8 j, where a^8 = 1, b^2 = a^4 and b a b^-1 = a^-1.  S4 is generated
# by a 4-cycle and a transposition, and SL(2,3) by the matrices
# [[1, 1], [0, 1]] and [[1, 0], [1, 1]] acting on the nonzero vectors of
# GF(3)^2.
GROUPS = {
    "Q8": ([(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)], 8, 6, True),
    "Z4xZ2": ([(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)], 8, 8, True),
    "D4": ([(1, 2, 3, 0), (0, 3, 2, 1)], 8, 6, True),
    "D6": ([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)], 12, 7, False),
    "A4": ([(1, 2, 0, 3), (1, 0, 3, 2)], 12, 3, False),
    "Z3:Z4": ([(1, 2, 0, 3, 4, 5, 6), (1, 0, 2, 4, 5, 6, 3)], 12, 5, False),
    "D8": ([(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)], 16, 7, True),
    "Q16": (
        [
            tuple((i + 1) % 8 + 8 * j for j in (0, 1) for i in range(8)),
            tuple(-i % 8 + 8 if j == 0 else (4 - i) % 8 for j in (0, 1) for i in range(8)),
        ],
        16,
        7,
        True,
    ),
    "S4": ([(1, 2, 3, 0), (1, 0, 2, 3)], 24, 4, False),
    "SL(2,3)": ([matrix_action(((1, 1), (0, 1))), matrix_action(((1, 0), (1, 1)))], 24, 4, False),
}
# Twelve to twenty-four elements lie above the default lattice cap of ten.
BUDGET = Budget(lattice_universe=24)


def compose(f, g):
    return tuple(f[g[x]] for x in range(len(g)))


def cayley(name):
    """The group the permutations generate: the identity closed under left
    multiplication by the generators, sorted, and its table."""
    gens = GROUPS[name][0]
    elements = {tuple(range(len(gens[0])))}
    frontier = set(elements)
    while frontier:
        frontier = {compose(g, x) for g in gens for x in frontier} - elements
        elements |= frontier
    elements = sorted(elements)
    index = {p: i for i, p in enumerate(elements)}
    table = tuple(index[compose(f, g)] for f in elements for g in elements)
    return FiniteAlgebra(name, len(elements), (Operation("*", 2, table),))


class Group:
    """The set oracles over a Cayley table."""

    def __init__(self, alg):
        n = self.n = alg.size
        self.mul = lambda x, y: alg.ops[0].table[x * n + y]
        self.e = next(x for x in range(n) if self.mul(x, 0) == 0)
        self.inv = {x: next(y for y in range(n) if self.mul(x, y) == self.e) for x in range(n)}

    def generated(self, gens):
        sub = {self.e} | set(gens)
        while True:
            grown = sub | {self.mul(x, y) for x in sub for y in sub}
            if grown == sub:
                return frozenset(sub)
            sub = grown

    def normal_subgroups(self):
        """Unions of conjugacy classes with e that are closed under the
        product."""
        classes = {
            frozenset(self.mul(self.mul(g, x), self.inv[g]) for g in range(self.n))
            for x in range(self.n)
        }
        others = [c for c in classes if self.e not in c]
        found = set()
        for k in range(len(others) + 1):
            for chosen in itertools.combinations(others, k):
                sub = frozenset({self.e}.union(*chosen))
                if self.generated(sub) == sub:
                    found.add(sub)
        return found

    def commutator(self, m, k):
        mul, inv = self.mul, self.inv
        return self.generated(mul(mul(x, y), mul(inv[x], inv[y])) for x in m for y in k)

    def cosets(self, sub):
        return Partition.from_blocks(
            self.n, {frozenset(self.mul(x, y) for y in sub) for x in range(self.n)}
        )

    def kernel(self, part):
        return frozenset(x for x in range(self.n) if part.same(x, self.e))


@pytest.mark.parametrize("name", GROUPS)
def test_congruences_are_the_coset_partitions_of_normal_subgroups(name):
    alg = cayley(name)
    group = Group(alg)
    normal = group.normal_subgroups()
    assert (alg.size, len(normal)) == GROUPS[name][1:3]
    assert set(all_congruences(alg, BUDGET).elements) == {group.cosets(k) for k in normal}


@pytest.mark.parametrize("name", GROUPS)
def test_commutators_are_the_commutator_subgroups(name):
    """Every pair, on the group's Structure, by the bare ``commutator``
    and on every view A/theta, where it is the coset partition of [M, N] T
    with T = e/theta; and the lower central chain of 1, which reaches 0
    exactly in the nilpotent groups."""
    alg = cayley(name)
    group = Group(alg)
    s = Structure(alg, BUDGET)
    lat = s.lattice
    kernel = {c: group.kernel(c) for c in lat.elements}
    for left, right in itertools.product(lat.elements, repeat=2):
        sub = group.commutator(kernel[left], kernel[right])
        assert s.commutator(left, right) == group.cosets(sub)
        assert commutator(alg, left, right) == group.cosets(sub)
        for theta in lat.elements:
            if theta.leq(left) and theta.leq(right):
                joined = group.generated(sub | kernel[theta])
                assert s.quotient(theta).commutator(left, right) == group.cosets(joined)
    series = [frozenset(range(alg.size))]
    while (nxt := group.commutator(series[-1], series[0])) not in series:
        series.append(nxt)
    assert lower_central_chain(s, lat.one) == [group.cosets(k) for k in series]
    assert is_nilpotent_congruence(s, lat.one) == GROUPS[name][3] == (series[-1] == {group.e})


@pytest.mark.parametrize("name", [name for name in GROUPS if GROUPS[name][1] == 8])
def test_order_eight_commutators_match_the_reference(name):
    alg = cayley(name)
    for left, right in itertools.product(all_congruences(alg).elements, repeat=2):
        assert commutator(alg, left, right) == reference.commutator(alg, left, right)

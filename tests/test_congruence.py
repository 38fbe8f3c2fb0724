"""Congruence lattices, commutators, and the derived classification helpers."""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nudfa.algebra import FiniteAlgebra, Operation, respects
from nudfa.congruence import (
    all_congruences,
    all_congruences_bruteforce,
    charr_set,
    distinguished_congruences,
    is_nilpotent_congruence,
    is_supernilpotent_algebra,
    pdiv,
    prime_power_decomposition,
    principal_congruence,
    solvability_class,
    supernilpotent_rank,
)
from nudfa.fixtures import get_fixture
from nudfa.partitions import Partition

ETA_MOD2 = Partition.from_blocks(6, [{0, 2, 4}, {1, 3, 5}])
ETA_MOD3 = Partition.from_blocks(6, [{0, 3}, {1, 4}, {2, 5}])

ALL_FIXTURES = ("Z2", "Z3", "Z4", "Z6", "Z6%2", "LAT2", "S3")


def lattice_of(name):
    alg = get_fixture(name).algebra
    return alg, all_congruences(alg)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_lattice_matches_bruteforce_enumeration(name):
    alg, lat = lattice_of(name)
    assert set(lat.elements) == set(all_congruences_bruteforce(alg))
    assert all(respects(alg, part) for part in lat.elements)


@st.composite
def small_algebras(draw):
    """A binary operation plus optional unary and ternary ones on 2..5
    elements.  Half the draws make every table respect the kernel of a
    random labelling, so that nontrivial congruences turn up often."""
    n = draw(st.integers(min_value=2, max_value=5))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {c: [x for x in range(n) if labels[x] == c] for c in labels}
    free = draw(st.booleans())
    arities = [2] + [r for r in (1, 3) if draw(st.booleans())]
    ops = []
    for r in arities:
        raw = draw(st.lists(st.integers(0, n - 1), min_size=n**r, max_size=n**r))
        if not free:
            lead: dict = {}
            for i, args in enumerate(itertools.product(range(n), repeat=r)):
                key = tuple(labels[a] for a in args)
                block = blocks[labels[lead.setdefault(key, raw[i])]]
                raw[i] = block[raw[i] % len(block)]
        ops.append(Operation(f"f{r}", r, tuple(raw)))
    return FiniteAlgebra(f"random{n}", n, tuple(ops))


@settings(max_examples=60, deadline=None)
@given(small_algebras(), st.data())
def test_translation_closure_matches_bruteforce_on_random_tables(alg, data):
    brute = all_congruences_bruteforce(alg)
    assert list(all_congruences(alg).elements) == sorted(brute)
    a = data.draw(st.integers(0, alg.size - 1))
    b = data.draw(st.integers(0, alg.size - 1))
    relating = [c for c in brute if c.same(a, b)]
    assert principal_congruence(alg, a, b) == functools.reduce(
        Partition.meet, relating
    )


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_lattice_is_closed_under_meet_and_join(name):
    _, lat = lattice_of(name)
    members = set(lat.elements)
    for a, b in itertools.combinations(lat.elements, 2):
        assert a.meet(b) in members
        assert a.join(b) in members


def test_plain_cyclic_group_of_order_six_has_four_congruences():
    alg, lat = lattice_of("Z6")
    assert len(lat.elements) == 4
    atoms = lat.atoms()
    assert set(atoms) == {ETA_MOD2, ETA_MOD3}
    assert {lat.characteristic(lat.zero, a) for a in atoms} == {2, 3}
    assert sorted(charr_set(alg, lat, lat.zero, lat.one)) == [2, 3]


def test_marked_order_six_lattice_is_a_three_chain():
    _, lat = lattice_of("Z6%2")
    assert len(lat.elements) == 3
    assert set(lat.elements) == {lat.zero, ETA_MOD2, lat.one}
    assert lat.characteristic(lat.zero, ETA_MOD2) == 3
    assert lat.characteristic(ETA_MOD2, lat.one) == 2


def test_characteristic_rejects_non_covers():
    _, lat = lattice_of("Z6")
    with pytest.raises(ValueError):
        lat.characteristic(lat.zero, lat.one)


def test_principal_congruences_of_the_cyclic_group():
    alg = get_fixture("Z6").algebra
    assert principal_congruence(alg, 0, 2) == ETA_MOD2
    assert principal_congruence(alg, 0, 3) == ETA_MOD3
    assert principal_congruence(alg, 0, 1).is_total()


@pytest.mark.parametrize("name", ("Z2", "Z3", "Z4", "Z6"))
def test_commutator_of_module_like_fixtures_vanishes(name):
    _, lat = lattice_of(name)
    assert lat.commutator(lat.one, lat.one) == lat.zero
    assert solvability_class(get_fixture(name).algebra, lat) == ("abelian",)


def derived_subgroup_partition(alg):
    """Independent oracle: cosets of the derived subgroup, computed directly
    from the multiplication table."""
    n = alg.size
    mul = lambda a, b: alg.eval_op("*", (a, b))
    (e,) = [
        x for x in range(n) if all(mul(x, y) == y == mul(y, x) for y in range(n))
    ]
    inv = {x: next(y for y in range(n) if mul(x, y) == e) for x in range(n)}
    gens = {
        mul(mul(x, y), mul(inv[x], inv[y]))
        for x in range(n)
        for y in range(n)
    }
    subgroup = {e}
    frontier = set(gens)
    while frontier:
        subgroup |= frontier
        frontier = {
            mul(a, g) for a in subgroup for g in gens
        } - subgroup
    cosets = {frozenset(mul(x, h) for h in subgroup) for x in range(n)}
    return Partition.from_blocks(n, cosets)


def test_symmetric_group_commutator_matches_derived_subgroup():
    alg, lat = lattice_of("S3")
    assert lat.commutator(lat.one, lat.one) == derived_subgroup_partition(alg)
    assert solvability_class(alg, lat)[0] == "solvable"


def test_two_element_lattice_has_trivial_commutator_theory():
    alg, lat = lattice_of("LAT2")
    assert lat.commutator(lat.one, lat.one) == lat.one
    assert solvability_class(alg, lat) == ("non-solvable",)
    assert not is_nilpotent_congruence(lat, lat.one)
    assert supernilpotent_rank(alg, lat) is None


def test_nilpotence_and_supernilpotence_classification():
    for name, nilpotent, supernil in [
        ("Z2", True, True),
        ("Z6", True, True),
        ("Z6%2", True, False),
        ("S3", False, False),
    ]:
        alg, lat = lattice_of(name)
        assert is_nilpotent_congruence(lat, lat.one) is nilpotent, name
        assert is_supernilpotent_algebra(alg, lat) is supernil, name


def test_supernilpotent_rank_values():
    for name, rank in [("Z2", 1), ("Z4", 1), ("Z6", 1), ("Z6%2", 2)]:
        alg, lat = lattice_of(name)
        assert supernilpotent_rank(alg, lat) == rank, name


def test_distinguished_congruences_of_the_marked_algebra():
    alg, lat = lattice_of("Z6%2")
    dist = distinguished_congruences(alg, lat)
    assert dist.largest_supernilpotent == ETA_MOD2
    assert dist.smallest_supernilpotent_quotient == ETA_MOD2
    assert sorted(dist.by_prime) == [2, 3]
    assert dist.by_prime[3] == ETA_MOD2
    assert dist.by_prime[2] == lat.zero


def test_quotient_by_a_congruence_is_a_homomorphic_image():
    alg, lat = lattice_of("Z6%2")
    quo, mapping = lat.quotient(ETA_MOD2)
    assert quo.size == 2
    assert all(mapping[x] == mapping[y] for x, y in ETA_MOD2.pairs())
    for op in alg.ops:
        for args in itertools.product(range(alg.size), repeat=op.arity):
            down = tuple(mapping[a] for a in args)
            assert mapping[alg.eval_op(op.name, args)] == quo.eval_op(
                op.name, down
            )


def test_prime_power_decomposition_of_the_order_six_group():
    alg, lat = lattice_of("Z6")
    dec = prime_power_decomposition(alg, lat)
    assert sorted(dec.primes) == [2, 3]
    assert sorted(f.size for f in dec.factors) == [2, 3]
    assert len(set(dec.iso)) == alg.size


def test_pdiv_is_the_product_of_primes_dividing_the_size():
    for name, value in [("Z2", 2), ("Z3", 3), ("Z4", 2), ("Z6", 6), ("S3", 6)]:
        assert pdiv(get_fixture(name).algebra) == value, name

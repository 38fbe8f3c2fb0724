"""Congruence lattices, commutators, and the derived classification helpers."""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import commutator_reference as reference
import lattice_reference
from conftest import dihedral4, permuting_algebras, random_algebra
from nudfa import congruence
from nudfa.algebra import FiniteAlgebra, Operation, make_op, quotient_algebra, respects
from nudfa.circuits import argument_blocks
from nudfa.cli import main
from nudfa.congruence import (
    Structure,
    all_congruences,
    all_congruences_bruteforce,
    charr_set,
    commutator,
    congruence_generated,
    distinguished_congruences,
    is_nilpotent_congruence,
    is_supernilpotent_algebra,
    pdiv,
    prime_power_decomposition,
    principal_congruence,
    solvability_class,
    structure,
    supernilpotent_rank,
)
from nudfa.fieldpoly import prime_divisors
from nudfa.fixtures import get_fixture
from nudfa.limits import Budget, BudgetExceeded
from nudfa.partitions import Partition

GOLDEN = Path(__file__).resolve().parent / "golden"

ETA_MOD2 = Partition.from_blocks(6, [{0, 2, 4}, {1, 3, 5}])
ETA_MOD3 = Partition.from_blocks(6, [{0, 3}, {1, 4}, {2, 5}])

ALL_FIXTURES = ("Z2", "Z3", "Z4", "Z6", "Z6%2", "LAT2", "S3")


def lattice_of(name):
    alg = get_fixture(name).algebra
    return alg, all_congruences(alg)


def structure_of(name):
    s = structure(get_fixture(name).algebra)
    return s, s.lattice


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_lattice_matches_bruteforce_enumeration(name):
    alg, lat = lattice_of(name)
    assert set(lat.elements) == set(all_congruences_bruteforce(alg))
    assert all(respects(alg, part) for part in lat.elements)


@st.composite
def small_algebras(draw):
    """A binary operation plus optional unary and ternary ones on 2..5
    elements."""
    n = draw(st.integers(min_value=2, max_value=5))
    return random_algebra(draw, n, [2] + [r for r in (1, 3) if draw(st.booleans())])


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


@settings(max_examples=80, deadline=None)
@given(st.one_of(permuting_algebras(), small_algebras()))
def test_lattice_matches_the_all_pairs_reference(alg):
    """Same elements in the same order, and the same covers, as the join
    closure over all pairs with its cubic cover loop."""
    lat, ref = all_congruences(alg), lattice_reference.all_congruences(alg)
    assert lat.elements == ref.elements
    assert lat.covers == ref.covers


def elementary_two_group(k):
    return FiniteAlgebra(f"Z2^{k}", 2**k, (make_op("+", 2, 2**k, int.__xor__),))


def z3_squared():
    def add(x, y):
        return ((x // 3 + y // 3) % 3) * 3 + (x + y) % 3

    return FiniteAlgebra("Z3xZ3", 9, (make_op("+", 2, 9, add),))


def test_lattices_of_elementary_abelian_two_groups():
    """Z2^4 has 67 subgroups with 240 covers, as the reference finds too,
    and Z2^5 has 374 with 2,077 covers; both lie above the default
    universe cap."""
    wide = Budget(lattice_universe=64)
    z2_4 = elementary_two_group(4)
    lat = all_congruences(z2_4, wide)
    ref = lattice_reference.all_congruences(z2_4)
    assert (len(lat), len(lat.covers)) == (67, 240)
    assert (lat.elements, lat.covers) == (ref.elements, ref.covers)
    lat = all_congruences(elementary_two_group(5), wide)
    assert (len(lat), len(lat.covers)) == (374, 2077)


@pytest.mark.parametrize(
    "make, generated",
    [(z3_squared, 4), (dihedral4, 4), (lambda: get_fixture("S3").algebra, 2)],
)
def test_one_principal_congruence_per_orbit_of_pairs(monkeypatch, make, generated):
    """Translations of a group permute it, so a lattice generates one
    principal congruence per orbit of pairs, not one per pair (36, 28
    and 15 here)."""
    calls = []
    inner = congruence.congruence_generated

    def counted(alg, pairs):
        calls.append(1)
        return inner(alg, pairs)

    alg = make()
    monkeypatch.setattr(congruence, "congruence_generated", counted)
    lat = all_congruences(alg)
    assert len(calls) == generated
    assert lat.elements == lattice_reference.all_congruences(alg).elements


def test_without_translations_a_congruence_is_any_equivalence():
    """Constants translate nothing, so the pairs generate an equivalence
    and nothing more."""
    alg = FiniteAlgebra("C4", 4, (Operation("c", 0, (2,)),))
    pairs = [(3, 1), (2, 3)]
    assert congruence_generated(alg, pairs) == Partition.from_pairs(4, pairs)
    assert congruence_generated(alg, []) == Partition.identity(4)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_lattice_is_closed_under_meet_and_join(name):
    _, lat = lattice_of(name)
    members = set(lat.elements)
    for a, b in itertools.combinations(lat.elements, 2):
        assert a.meet(b) in members
        assert a.join(b) in members


def test_plain_cyclic_group_of_order_six_has_four_congruences():
    s, lat = structure_of("Z6")
    assert len(lat.elements) == 4
    atoms = lat.atoms()
    assert set(atoms) == {ETA_MOD2, ETA_MOD3}
    assert {s.characteristic(lat.zero, a) for a in atoms} == {2, 3}
    assert sorted(charr_set(s, lat.zero, lat.one)) == [2, 3]


def test_marked_order_six_lattice_is_a_three_chain():
    s, lat = structure_of("Z6%2")
    assert len(lat.elements) == 3
    assert set(lat.elements) == {lat.zero, ETA_MOD2, lat.one}
    assert s.characteristic(lat.zero, ETA_MOD2) == 3
    assert s.characteristic(ETA_MOD2, lat.one) == 2


def test_characteristic_rejects_non_covers():
    s, lat = structure_of("Z6")
    with pytest.raises(ValueError):
        s.characteristic(lat.zero, lat.one)


def test_principal_congruences_of_the_cyclic_group():
    alg = get_fixture("Z6").algebra
    assert principal_congruence(alg, 0, 2) == ETA_MOD2
    assert principal_congruence(alg, 0, 3) == ETA_MOD3
    assert principal_congruence(alg, 0, 1).is_total()


@pytest.mark.parametrize("name", ("Z2", "Z3", "Z4", "Z6"))
def test_commutator_of_module_like_fixtures_vanishes(name):
    s, lat = structure_of(name)
    assert s.commutator(lat.one, lat.one) == lat.zero
    assert solvability_class(s) == ("abelian",)


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
    s, lat = structure_of("S3")
    assert s.commutator(lat.one, lat.one) == derived_subgroup_partition(s.algebra)
    assert solvability_class(s)[0] == "solvable"


def test_two_element_lattice_has_trivial_commutator_theory():
    s, lat = structure_of("LAT2")
    assert s.commutator(lat.one, lat.one) == lat.one
    assert solvability_class(s) == ("non-solvable",)
    assert not is_nilpotent_congruence(s, lat.one)
    assert supernilpotent_rank(s) is None


def test_nilpotence_and_supernilpotence_classification():
    for name, nilpotent, supernil in [
        ("Z2", True, True),
        ("Z6", True, True),
        ("Z6%2", True, False),
        ("S3", False, False),
    ]:
        s, lat = structure_of(name)
        assert is_nilpotent_congruence(s, lat.one) is nilpotent, name
        assert is_supernilpotent_algebra(s.algebra) is supernil, name


def test_supernilpotent_rank_values():
    for name, rank in [("Z2", 1), ("Z4", 1), ("Z6", 1), ("Z6%2", 2)]:
        assert supernilpotent_rank(structure_of(name)[0]) == rank, name


def test_distinguished_congruences_of_the_marked_algebra():
    s, lat = structure_of("Z6%2")
    dist = distinguished_congruences(s)
    assert dist.largest_supernilpotent == ETA_MOD2
    assert dist.smallest_supernilpotent_quotient == ETA_MOD2
    assert sorted(dist.by_prime) == [2, 3]
    assert dist.by_prime[3] == ETA_MOD2
    assert dist.by_prime[2] == lat.zero


def test_quotient_by_a_congruence_is_a_homomorphic_image():
    alg = get_fixture("Z6%2").algebra
    quo, mapping = quotient_algebra(alg, ETA_MOD2)
    assert quo.size == 2
    assert all(mapping[x] == mapping[y] for x, y in ETA_MOD2.pairs())
    for op in alg.ops:
        for args in itertools.product(range(alg.size), repeat=op.arity):
            down = tuple(mapping[a] for a in args)
            assert mapping[alg.eval_op(op.name, args)] == quo.eval_op(
                op.name, down
            )


def test_prime_power_decomposition_of_the_order_six_group():
    alg = get_fixture("Z6").algebra
    dec = prime_power_decomposition(alg)
    assert sorted(dec.primes) == [2, 3]
    assert sorted(len(set(proj)) for proj in dec.projections) == [2, 3]
    assert len(set(zip(*dec.projections))) == alg.size


def test_prime_power_decomposition_refuses_a_one_element_algebra():
    """No prime divides 1, so there is no family of kernels to search;
    the refusal names the case instead of failing on an empty family."""
    trivial = FiniteAlgebra("T1", 1, (Operation("+", 2, (0,)),))
    with pytest.raises(ValueError, match="T1 has one element"):
        prime_power_decomposition(trivial)


def test_the_one_element_refusal_names_the_callers_algebra():
    """Z6's quotient by the total congruence has T1's operations, so the
    two share one Structure; the refusal still names the algebra asked
    about, whichever of them the memo saw first."""
    quotient, _ = quotient_algebra(get_fixture("Z6").algebra, Partition.total(6))
    trivial = FiniteAlgebra("T1", 1, (Operation("+", 2, (0,)),))
    assert structure(quotient) is structure(trivial)
    with pytest.raises(ValueError, match="T1 has one element"):
        prime_power_decomposition(trivial)


def test_pdiv_is_the_product_of_primes_dividing_the_size():
    for name, value in [("Z2", 2), ("Z3", 3), ("Z4", 2), ("Z6", 6), ("S3", 6)]:
        assert pdiv(get_fixture(name).algebra) == value, name


def test_prime_divisors_single_out_prime_powers():
    """A block count is a prime power exactly when it has one prime
    divisor; 0 and 1 have none, and a block of size 1 has p-power size for
    every p.  A number is prime exactly when it is its only prime divisor,
    and squarefree exactly when it is their product."""
    assert prime_divisors(0) == prime_divisors(1) == []
    for p in (2, 3, 5, 7, 97):
        assert prime_divisors(p) == [p]
    assert prime_divisors(12) == [2, 3] and math.prod(prime_divisors(12)) != 12
    assert prime_divisors(30) == [2, 3, 5] and math.prod(prime_divisors(30)) == 30
    for m in range(2, 300):
        divisors = [q for q in range(2, m + 1) if m % q == 0]
        p = divisors[0]
        power = p
        while power < m:
            power *= p
        assert (prime_divisors(m) == [p]) == (power == m), m


# ---------------------------------------------------------------------------
# Term-condition commutator against the earlier implementation
# ---------------------------------------------------------------------------


def assert_matches_reference(alg):
    """M(alpha, beta) and [alpha, beta] for every pair of congruences; the
    reference commutator runs on the reference matrices just compared, so
    that each slow reference closure runs once."""
    lat = all_congruences(alg)
    for left, right in itertools.product(lat.elements, repeat=2):
        matrices = reference.matrix_subalgebra(alg, left, right)
        assert congruence._matrix_subalgebra(alg, left, right).tolist() == (
            matrices.tolist()
        )
        with mock.patch.object(reference, "matrix_subalgebra", lambda *_: matrices):
            expected = reference.commutator(alg, left, right)
        assert commutator(alg, left, right) == expected


@st.composite
def commutator_algebras(draw, ternary=False):
    """Nullary, unary and binary operations on 1..4 elements or, with
    ``ternary``, on two elements next to a ternary one: the reference
    applies a ternary operation to every triple of matrices in Python,
    about a second of work on two elements and minutes on three."""
    n = 2 if ternary else draw(st.integers(min_value=1, max_value=4))
    arities = [r for r in (0, 1, 2) if draw(st.booleans())]
    return random_algebra(draw, n, arities + [3] * ternary)


@settings(max_examples=40, deadline=None)
@given(commutator_algebras())
def test_commutators_match_the_reference(alg):
    assert_matches_reference(alg)


@settings(max_examples=3, deadline=None)
@given(commutator_algebras(ternary=True))
def test_ternary_commutators_match_the_reference(alg):
    assert_matches_reference(alg)


@pytest.mark.parametrize("block", (1, 2, 5, 7, 20, 60, 61))
def test_argument_blocks_enumerate_the_product_in_order(block):
    pools = [np.arange(3), np.arange(10, 14), np.arange(20, 25)]
    tuples = []
    for args in argument_blocks(pools, block):
        shaped = np.broadcast_arrays(*args)
        assert shaped[0].size <= block
        tuples += zip(*(a.ravel().tolist() for a in shaped))
    assert tuples == list(itertools.product(*(p.tolist() for p in pools)))
    empty = pools[0][:0]
    assert list(argument_blocks([empty, pools[1]], block)) == []
    assert list(argument_blocks([pools[0], empty], block)) == []


def test_forcing_takes_a_second_round():
    """In this 5-element groupoid the bottoms of the matrices with equal
    top entries generate a congruence that some matrix violates, so the
    forcing condition has to be re-closed."""
    table = (1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 1, 1,
             1, 1, 1, 4, 1, 1, 1, 1, 0, 1, 1)
    alg = FiniteAlgebra("F5", 5, (Operation("*", 2, table),))
    left, right = Partition((0, 0, 2, 0, 0)), Partition((0, 0, 2, 2, 0))
    x1, x2, x3, x4 = np.unravel_index(
        reference.matrix_subalgebra(alg, left, right), (5,) * 4
    )
    same_top = x1 == x2
    first = congruence_generated(
        alg, zip(x3[same_top].tolist(), x4[same_top].tolist())
    )
    result = commutator(alg, left, right)
    assert result == reference.commutator(alg, left, right) != first


@pytest.mark.parametrize("block", (1, 2, 5, 64))
def test_blocks_of_any_size_close_the_same_matrices(block):
    """Small blocks cut the frontier-by-existing products of every arity
    at many places; the closure stays the one of the default block."""
    rng = random.Random(block)
    ternary = tuple(rng.randrange(2) for _ in range(8))
    algebras = [
        get_fixture(name).algebra for name in ("Z2", "Z3", "LAT2", "Z4")
    ] + [FiniteAlgebra("T2", 2, (Operation("t", 3, ternary),))]
    for alg in algebras:
        lat = all_congruences(alg)
        for left, right in itertools.product(lat.elements, repeat=2):
            expected = congruence._matrix_subalgebra(alg, left, right).tolist()
            with mock.patch.object(congruence, "MATRIX_BLOCK", block):
                got = congruence._matrix_subalgebra(alg, left, right).tolist()
            assert got == expected, (alg.name, left, right)


# x + y + z on two elements: a ternary operation whose M(1, 1) has 8 of
# the 16 matrices, cheap for the reference.
MINORITY = FiniteAlgebra(
    "minority", 2,
    (Operation("m", 3, tuple(x ^ y ^ z for x, y, z in itertools.product(
        range(2), repeat=3))),),
)


@pytest.mark.parametrize("name", ALL_FIXTURES + ("minority",))
def test_fixture_commutators_match_the_reference(name):
    alg = MINORITY if name == "minority" else get_fixture(name).algebra
    assert_matches_reference(alg)


def moved(codes, n, move):
    """The sorted codes of the matrices (x1, x2, x3, x4) with their
    entries rearranged to ``move(x1, x2, x3, x4)``."""
    entries = np.unravel_index(codes, (n,) * 4)
    return np.sort(np.ravel_multi_index(move(*entries), (n,) * 4)).tolist()


def assert_reference_symmetries(alg, alpha, beta):
    """M(alpha, beta) of the reference closure is invariant under swapping
    its rows and swapping its columns, M(alpha, alpha) also under
    transposing, and M(beta, alpha) is the transpose of M(alpha, beta)."""
    n = alg.size
    m = reference.matrix_subalgebra(alg, alpha, beta)
    codes = m.tolist()
    assert moved(m, n, lambda x1, x2, x3, x4: (x3, x4, x1, x2)) == codes
    assert moved(m, n, lambda x1, x2, x3, x4: (x2, x1, x4, x3)) == codes
    transposed = moved(m, n, lambda x1, x2, x3, x4: (x1, x3, x2, x4))
    if alpha == beta:
        assert transposed == codes
    else:
        assert transposed == reference.matrix_subalgebra(alg, beta, alpha).tolist()


@settings(max_examples=40, deadline=None)
@given(commutator_algebras(), st.data())
def test_reference_matrix_subalgebras_have_the_swap_symmetries(alg, data):
    """The symmetries the closure's orbit representatives rest on, checked
    on the reference closure alone, for random congruences of random
    algebras."""
    elements = all_congruences(alg).elements
    alpha = data.draw(st.sampled_from(elements))
    beta = data.draw(st.sampled_from(elements))
    assert_reference_symmetries(alg, alpha, beta)


@pytest.mark.parametrize("name", ("minority", "S3"))
def test_reference_symmetries_for_every_pair_of_congruences(name):
    alg = MINORITY if name == "minority" else get_fixture(name).algebra
    for alpha, beta in itertools.product(all_congruences(alg).elements, repeat=2):
        assert_reference_symmetries(alg, alpha, beta)


def test_matrix_closure_memory_stays_bounded():
    """A random 7-element groupoid whose M(1, 1) is all of A^4 (2,401
    matrices).  The earlier closure built a dense frontier-by-existing
    block per round and peaked at 84 MiB here, growing as |M|^2; the row-
    pair closure works in blocks of ``MATRIX_BLOCK`` products (measured
    0.7 MiB)."""
    rng = random.Random(7)
    n = 7
    table = tuple(rng.randrange(n) for _ in range(n * n))
    alg = FiniteAlgebra("G7", n, (Operation("*", 2, table),))
    one = Partition.total(n)
    tracemalloc.start()
    try:
        size = congruence._matrix_subalgebra(alg, one, one).size
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert size == n**4
    assert peak < 8.0, peak


def test_commutators_are_computed_once_per_run(monkeypatch):
    """Within one ``con`` call each distinct set of tables gets one lattice
    and each (tables, alpha, beta) one commutator, the quotient of S3 by
    zero reusing the structure of S3; a second call starts from an empty
    memo and repeats exactly that work."""
    lattices, keys = [], []
    build, inner = congruence.all_congruences, congruence.commutator

    def tables(alg):
        return tuple((op.arity, op.table) for op in alg.ops)

    def counted_lattice(alg, budget=None):
        lattices.append(tables(alg))
        return build(alg, budget=budget)

    def counted(alg, left, right):
        keys.append((tables(alg), left, right))
        return inner(alg, left, right)

    asked = []
    ask = Structure.commutator

    def asking(self, left, right):
        asked.append(1)
        return ask(self, left, right)

    monkeypatch.setattr(congruence, "all_congruences", counted_lattice)
    monkeypatch.setattr(congruence, "commutator", counted)
    monkeypatch.setattr(Structure, "commutator", asking)
    runs = []
    for _ in range(2):
        lattices.clear()
        keys.clear()
        asked.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["con", "--algebra", "fixtures:S3"]) == 0
        runs.append((list(lattices), list(keys), len(asked)))
    (lat_first, first, asked_first), (lat_second, second, asked_second) = runs
    assert len(lat_first) == len(set(lat_first)) > 1
    assert len(first) == len(set(first)) > 0
    assert (lat_first, first, asked_first) == (lat_second, second, asked_second)
    assert asked_first > len(first)


def test_commutator_memo_is_keyed_by_the_tables(monkeypatch):
    """Z2 and LAT2 share their universe and congruences but not their
    structures; a renamed copy of LAT2 shares LAT2's, commutators
    included."""
    z2, lat2 = get_fixture("Z2").algebra, get_fixture("LAT2").algebra
    zero, one = Partition.identity(2), Partition.total(2)
    assert structure(z2) is not structure(lat2)
    assert structure(z2).commutator(one, one) == zero
    assert structure(lat2).commutator(one, one) == one
    monkeypatch.setattr(congruence, "_matrix_subalgebra", None)
    copy = FiniteAlgebra("copy", 2, lat2.ops)
    assert structure(copy) is structure(lat2)
    assert structure(copy).commutator(one, one) == one


def test_commutator_memo_never_exceeds_its_size(monkeypatch):
    """With room for two structures the memo evicts its oldest entries,
    and the output stays the recorded one."""
    monkeypatch.setattr(congruence, "STRUCTURE_MEMO_SIZE", 2)
    sizes = []
    make = Structure.__init__

    def watched(self, alg, budget):
        sizes.append(len(congruence._STRUCTURES))
        make(self, alg, budget)

    monkeypatch.setattr(Structure, "__init__", watched)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["con", "--algebra", "fixtures:S3"]) == 0
    assert buf.getvalue() == (GOLDEN / "expected" / "con_S3.out").read_text()
    assert len(congruence._STRUCTURES) <= 2
    assert max(sizes) <= 1 and len(sizes) > 2


def test_structures_are_keyed_by_the_budget():
    """A clone cap below S3's 324 unary polynomials fails under its own
    budget only: the default budget's structure still closes the clone,
    whichever of the two is asked first."""
    s3 = get_fixture("S3").algebra
    capped = Budget(clone_functions=100)
    for order in ((capped, None), (None, capped)):
        congruence._STRUCTURES.clear()  # a fresh run
        for budget in order:
            if budget is capped:
                with pytest.raises(BudgetExceeded):
                    structure(s3, budget).clone
            else:
                assert len(structure(s3, budget).clone) == 324

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
from conftest import (
    count_lattices,
    count_quotient_algebras,
    count_root_structures,
    dihedral4,
    permuting_algebras,
    random_algebra,
    z5_z2_z3,
)
from test_algebra import BINARY
from nudfa import algebra, congruence, fixtures
from nudfa.algebra import (
    FiniteAlgebra,
    Operation,
    latin_square,
    make_op,
    quotient_algebra,
    respects,
)
from nudfa.circuits import argument_blocks
from nudfa.cli import main
from nudfa.congruence import (
    Structure,
    all_congruences,
    charr_set,
    commutator,
    congruence_generated,
    distinguished_congruences,
    is_nilpotent_congruence,
    is_pupi,
    is_supernilpotent_algebra,
    is_supernilpotent_congruence,
    lower_central_chain,
    prime_power_decomposition,
    structure,
    supernilpotent_rank,
)
from nudfa.fieldpoly import pdiv, prime_divisors
from nudfa.fixtures import fixture_names, get_fixture, resolve_algebra
from nudfa.limits import Budget, BudgetExceeded
from nudfa.partitions import Partition

GOLDEN = Path(__file__).resolve().parent / "golden"

ETA_MOD2 = Partition.from_blocks(6, [{0, 2, 4}, {1, 3, 5}])
ETA_MOD3 = Partition.from_blocks(6, [{0, 3}, {1, 4}, {2, 5}])

ALL_FIXTURES = ("Z2", "Z3", "Z4", "Z6", "Z6%2", "LAT2", "S3")


# Every fixture and the table-built algebras of the golden ``con`` cases.
CON_ALGEBRAS = (*fixture_names(), "D4", "Z3xZ3", "G7")


def algebra_spec(name):
    """The ``--algebra`` argument naming a fixture or a golden input."""
    if name in fixture_names():
        return f"fixtures:{name}"
    return str(GOLDEN / "inputs" / f"algebra_{name}.json")


def lattice_of(name):
    alg = get_fixture(name).algebra
    return alg, all_congruences(alg)


def structure_of(name):
    s = structure(get_fixture(name).algebra)
    return s, s.lattice


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_lattice_matches_bruteforce_enumeration(name):
    alg, lat = lattice_of(name)
    assert set(lat.elements) == set(lattice_reference.all_congruences_bruteforce(alg))
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
    brute = lattice_reference.all_congruences_bruteforce(alg)
    assert list(all_congruences(alg).elements) == sorted(brute)
    a = data.draw(st.integers(0, alg.size - 1))
    b = data.draw(st.integers(0, alg.size - 1))
    relating = [c for c in brute if c.same(a, b)]
    principal = congruence_generated(structure(alg).translations, [(a, b)])
    assert principal == functools.reduce(Partition.meet, relating)


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

    def counted(translations, pairs):
        calls.append(1)
        return inner(translations, pairs)

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
    translations = structure(alg).translations
    assert congruence_generated(translations, pairs) == Partition.from_pairs(4, pairs)
    assert congruence_generated(translations, []) == Partition.identity(4)


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
    atoms = lat.covers_of(lat.zero)
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
    """A non-cover, a partition outside the lattice and, on a quotient
    view, a congruence below its floor are all refused with the same
    ValueError, never a KeyError."""
    s, lat = structure_of("Z6")
    stranger = Partition.from_blocks(6, [{0, 1}])
    assert stranger not in lat
    view = s.quotient(ETA_MOD2)
    for where, lo, hi in (
        (s, lat.zero, lat.one),
        (s, stranger, lat.one),
        (s, lat.zero, stranger),
        (view, lat.zero, ETA_MOD2),
        (view, ETA_MOD2, ETA_MOD2),
    ):
        with pytest.raises(ValueError, match="^not a covering pair of the lattice$"):
            where.characteristic(lo, hi)
    assert view.characteristic(ETA_MOD2, lat.one) == 2


@pytest.mark.parametrize("name", CON_ALGEBRAS)
def test_intervals_and_covers_match_the_refinement_order(name):
    """``interval``, ``cover_pairs`` and ``cover_set`` read the order data;
    brute-force ``leq`` tests give the same answers, and the same covers."""
    lat = structure(resolve_algebra(algebra_spec(name))).lattice
    elements = lat.elements
    pairs = [(elements[a], elements[b]) for a, b in lat.covers]
    assert all(lat.zero.leq(c) and c.leq(lat.one) for c in elements)
    for lo, hi in itertools.product(elements, repeat=2):
        between = [c for c in elements if lo.leq(c) and c.leq(hi)]
        assert lat.interval(lo, hi) == between
        assert lat.cover_pairs(lo, hi) == [
            (a, b) for a, b in pairs if lo.leq(a) and b.leq(hi)
        ]
        assert ((lo, hi) in lat.cover_set) == (between == [hi, lo])


def test_principal_congruences_of_the_cyclic_group():
    translations = structure(get_fixture("Z6").algebra).translations
    assert congruence_generated(translations, [(0, 2)]) == ETA_MOD2
    assert congruence_generated(translations, [(0, 3)]) == ETA_MOD3
    assert congruence_generated(translations, [(0, 1)]) == Partition.total(6)


@pytest.mark.parametrize("name", ("Z2", "Z3", "Z4", "Z6"))
def test_commutator_of_module_like_fixtures_vanishes(name):
    s, lat = structure_of(name)
    assert s.commutator(lat.one, lat.one) == lat.zero


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


def test_two_element_lattice_has_trivial_commutator_theory():
    s, lat = structure_of("LAT2")
    assert s.commutator(lat.one, lat.one) == lat.one
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
    # On one element 0 = 1, so the empty chain reaches the top.
    trivial = FiniteAlgebra("T1", 1, (Operation("+", 2, (0,)),))
    assert supernilpotent_rank(structure(trivial)) == 0


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
    assert mapping == ETA_MOD2.labels() == (0, 1, 0, 1, 0, 1)
    for op in alg.ops:
        for args in itertools.product(range(alg.size), repeat=op.arity):
            down = tuple(mapping[a] for a in args)
            assert mapping[alg.eval_op(op.name, args)] == quo.eval_op(
                op.name, down
            )


def test_prime_power_decomposition_of_the_order_six_group():
    alg = get_fixture("Z6").algebra
    dec = prime_power_decomposition(structure(alg), alg.name)
    assert sorted(dec.primes) == [2, 3]
    assert sorted(len(set(proj)) for proj in dec.projections) == [2, 3]
    assert len(set(zip(*dec.projections))) == alg.size


def test_prime_power_decomposition_refuses_a_one_element_algebra():
    """No prime divides 1, so there is no family of kernels to search;
    the refusal names the case instead of failing on an empty family."""
    trivial = FiniteAlgebra("T1", 1, (Operation("+", 2, (0,)),))
    with pytest.raises(ValueError, match="T1 has one element"):
        prime_power_decomposition(structure(trivial), trivial.name)


def test_the_one_element_refusal_names_the_callers_algebra(monkeypatch):
    """Z6's quotient by the total congruence has T1's operations, so the
    two share one Structure, made for the quotient in a fresh run; the
    refusal still names the algebra asked about.  The view of Z6 by its
    total congruence is refused under the caller's name too, not Z6's."""
    monkeypatch.setattr(congruence, "_STRUCTURES", {})
    z6 = get_fixture("Z6").algebra
    quotient, _ = quotient_algebra(z6, Partition.total(6))
    trivial = FiniteAlgebra("T1", 1, (Operation("+", 2, (0,)),))
    assert structure(quotient) is structure(trivial)
    assert structure(trivial).algebra is quotient
    with pytest.raises(ValueError, match="T1 has one element"):
        prime_power_decomposition(structure(trivial), trivial.name)
    view = structure(z6).quotient(Partition.total(6))
    with pytest.raises(ValueError, match=f"^{quotient.name} has one element"):
        prime_power_decomposition(view, quotient.name)


def test_decompositions_on_views_match_the_quotient_algebras():
    """For every congruence theta < 1 of every algebra, A/theta read on
    A's lattice splits into the factors of the quotient algebra's own
    structure, projections numbered alike, or both refuse alike."""
    agree = refused = 0
    for name in CON_ALGEBRAS:
        alg = resolve_algebra(algebra_spec(name))
        s = structure(alg)
        for theta in s.lattice.elements[1:]:
            quotient, _ = quotient_algebra(alg, theta)
            outcomes = []
            for view in (s.quotient(theta), structure(quotient)):
                try:
                    outcomes.append(prime_power_decomposition(view, quotient.name))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (name, theta)
            if isinstance(outcomes[0], str):
                refused += 1
            else:
                agree += 1
    assert (agree, refused) == (21, 2)


def test_pdiv_is_the_product_of_primes_dividing_the_size():
    for name, value in [("Z2", 2), ("Z3", 3), ("Z4", 2), ("Z6", 6), ("S3", 6)]:
        assert pdiv(get_fixture(name).algebra.size) == value, name


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


# The associative operations of ``BINARY``: semilattices, left-zero and
# rectangular bands, multiplication mod n and null semigroups.
SEMIGROUPS = ("max", "min", "left zero", "band", "product", "null")


@st.composite
def commutator_algebras(draw, ternary=False):
    """Nullary, unary and binary operations on 1..4 elements or, with
    ``ternary``, on two elements next to a ternary one: the reference
    applies a ternary operation to every triple of matrices in Python,
    about a second of work on two elements and minutes on three.  Random
    tables are almost never associative, so half the binary operations
    without a ternary one are relabelled ``SEMIGROUPS``, whose matrices
    the closure kernel closes over their generators."""
    n = 2 if ternary else draw(st.integers(min_value=1, max_value=4))
    arities = [r for r in (0, 1, 2) if draw(st.booleans())]
    alg = random_algebra(draw, n, arities + [3] * ternary)
    if ternary or 2 not in arities or not draw(st.booleans()):
        return alg
    kind, perm = draw(st.sampled_from(SEMIGROUPS)), draw(st.permutations(range(n)))
    table = tuple(
        perm[BINARY[kind](perm.index(x), perm.index(y), n)]
        for x, y in itertools.product(range(n), repeat=2)
    )
    ops = tuple(Operation("f2", 2, table) if op.arity == 2 else op for op in alg.ops)
    return FiniteAlgebra(f"semigroup{n}", n, ops)


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
        structure(alg).translations, zip(x3[same_top].tolist(), x4[same_top].tolist())
    )
    result = commutator(alg, left, right)
    assert result == reference.commutator(alg, left, right) != first


@pytest.mark.parametrize("block", (1, 2, 5, 64))
def test_blocks_of_any_size_close_the_same_matrices(block):
    """Small blocks of ``block`` matrices cut the products of every arity
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
            size = block * algebra._Tables(alg.size, 4).padded
            with mock.patch.object(algebra, "CLOSURE_BLOCK", size):
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


def symmetric3():
    """S3 as the permutations of three points in sorted order, composed as
    maps, and each one's parity, which labels the cosets of A3."""
    perms = sorted(itertools.permutations(range(3)))
    table = [perms.index(tuple(f[g[x]] for x in range(3))) for f in perms for g in perms]
    parity = [sum(f[i] > f[j] for i, j in itertools.combinations(range(3), 2)) % 2
              for f in perms]
    return table, parity


@st.composite
def latin_expansions(draw):
    """A Latin square on n <= 6 elements next to nullary, unary and binary
    operations; its name starts with the kind drawn:

    - ``latin``: a random isotope of Z_n, its table with rows, columns and
      values each permuted, by permutations that map the residues modulo d
      onto each other, so that it keeps the congruence modulo d.  d is a
      proper divisor of n above 1 where there is one, else 1, and then the
      permutations are any.
    - ``group``: Z_n, or Z2 x Z2 or S3 where n fits, relabelled.
    - ``affine``: Z_n or Z2 x Z2, relabelled, beside operations affine over
      it, x -> k x + c and (x, y) -> a x + b y + c, so that the affine
      certificate of ``Structure`` holds.

    Beside the first two, the operations are random and half the time keep
    the congruence of the residues modulo d (of the second factor for
    Z2 x Z2, of A3 for S3), and a ternary one is drawn only for n <= 3."""
    n = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.sampled_from([k for k in range(2, n) if n % k == 0] or [1]))
    kind = draw(st.sampled_from(["latin", "group", "affine"]))
    arities = [k for k in (0, 1, 2) if draw(st.booleans())]
    if kind == "latin":

        def permutation():
            residues = draw(st.permutations(range(d)))
            within = [draw(st.permutations(range(n // d))) for _ in range(d)]
            return [residues[x % d] + d * within[x % d][x // d] for x in range(n)]

        r, c, v = permutation(), permutation(), permutation()
        table = [v[(r[x] + c[y]) % n] for x, y in itertools.product(range(n), repeat=2)]
        perm, labels = list(range(n)), [x % d for x in range(n)]
    else:
        groups = {"Z": ([(x + y) % n for x in range(n) for y in range(n)],
                        [x % d for x in range(n)])}
        if n == 4:
            groups["Z2xZ2"] = ([x ^ y for x in range(4) for y in range(4)], [0, 1, 0, 1])
        if n == 6 and kind == "group":
            groups["S3"] = symmetric3()
        table, labels = groups[draw(st.sampled_from(sorted(groups)))]
        perm = draw(st.permutations(range(n)))
    # The element x of the table is called perm[x], and u names back[u].
    back = [perm.index(u) for u in range(n)]
    cells = itertools.product(back, repeat=2)
    square = Operation("*", 2, tuple(perm[table[x * n + y]] for x, y in cells))
    if kind == "affine":

        def affine(r):
            """k_1 x_1 + ... + k_r x_r + c, a multiple k x summed from the
            identity 0 of the group."""
            *ks, c = (draw(st.integers(0, n - 1)) for _ in range(r + 1))
            values = []
            for xs in itertools.product(back, repeat=r):
                acc = c
                for k, x in zip(ks, xs):
                    for _ in range(k):
                        acc = table[acc * n + x]
                values.append(perm[acc])
            return tuple(values)

        others = [Operation(f"f{r}", r, affine(r)) for r in arities]
    else:
        arities += [3] * (n <= 3 and draw(st.booleans()))
        others = random_algebra(draw, n, arities, [labels[x] for x in back]).ops
    ops = draw(st.permutations([square, *others]))
    return FiniteAlgebra(f"{kind}{n}", n, tuple(ops))


@settings(max_examples=80, deadline=None)
@given(latin_expansions())
def test_delta_commutators_match_the_matrix_path(alg):
    """Every pair of congruences, in both orders: the commutator read off
    Delta, or off the group, equals the term-condition commutator of the
    M(alpha, beta) path forced on the same algebra and the reference's.
    So does the Structure's, on A and on every view A/theta, where the
    M(alpha, beta) path forces from theta and the reference is joined
    with it; M(alpha, beta) does not depend on theta, so each is closed
    once.  The affine certificate holds on every affine draw, and wherever
    it holds the reference's [1, 1] is 0.  The reference closes ternary
    operations in a Python loop over triples of matrices, minutes of work
    on three elements, so next to a ternary operation its forcing loop runs
    on the matrices of ``_matrix_subalgebra``, which
    ``test_ternary_commutators_match_the_reference`` checks against it."""
    assert latin_square(alg) is not None
    ternary = any(op.arity == 3 for op in alg.ops)
    closure = congruence._matrix_subalgebra if ternary else reference.matrix_subalgebra
    s = Structure(alg, Budget())
    lat = s.lattice
    expected, closed = {}, {}
    for key in itertools.product(lat.elements, repeat=2):
        left, right = key
        got = commutator(alg, left, right)
        closed[key] = congruence._matrix_subalgebra(alg, left, right)
        with mock.patch.object(congruence, "_matrix_subalgebra", lambda *_: closed[key]):
            assert got == congruence._matrix_commutator(alg, left, right)
        with mock.patch.object(reference, "matrix_subalgebra", closure):
            expected[key] = reference.commutator(alg, left, right)
        assert got == expected[key]
    for theta in lat.elements:
        view = s.quotient(theta)
        for key in itertools.product(view.lattice.elements, repeat=2):
            left, right = key
            with mock.patch.object(congruence, "_matrix_subalgebra", lambda *_: closed[key]):
                forced = congruence._matrix_commutator(alg, left, right, theta)
            assert view.commutator(left, right) == forced
            assert forced == expected[key].join(theta)
    assert s.affine or not alg.name.startswith("affine")
    assert expected[lat.one, lat.one] == lat.zero or not s.affine


@st.composite
def congruence_keeping_algebras(draw):
    """Algebras on 2-4 elements without a Latin square, whose tables keep
    the kernel of a drawn labelling half the time, so that quotients
    with nontrivial lattices turn up; a ternary operation only on 2
    elements."""
    n = draw(st.integers(min_value=2, max_value=4))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    arities = draw(st.sampled_from([[1], [2], [1, 2], [0, 2]] + [[3]] * (n == 2)))
    return random_algebra(draw, n, arities, labels)


def _lift(part, mapping):
    """The congruence of A above the kernel of ``mapping`` that a
    congruence of the quotient corresponds to."""
    return Partition.from_blocks(
        len(mapping),
        [[x for x, b in enumerate(mapping) if b in block] for block in part.blocks()],
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    latin_expansions(),
    congruence_keeping_algebras().filter(lambda alg: latin_square(alg) is None),
))
def test_quotient_views_answer_as_the_quotient_algebras(alg):
    """For every congruence theta, the view ``quotient(theta)`` read on A
    agrees with the Structure of the built quotient A/theta, lifted through
    the projection: lattice and covers, relative commutators of every pair
    above theta, nilpotence, characteristics (or their refusal), the
    prime-uniform splits of every interval, and supernilpotence."""
    budget = Budget()
    s = Structure(alg, budget)
    for theta in s.lattice.elements:
        view = s.quotient(theta)
        quo, mapping = quotient_algebra(alg, theta)
        sq = Structure(quo, budget)
        lat, qlat = view.lattice, sq.lattice
        up = {q: _lift(q, mapping) for q in qlat.elements}
        assert (lat.zero, lat.one) == (theta, s.lattice.one)
        assert set(lat.elements) == set(up.values())
        assert {(lat.elements[a], lat.elements[b]) for a, b in lat.covers} == {
            (up[qlat.elements[a]], up[qlat.elements[b]]) for a, b in qlat.covers
        }
        for qa, qb in itertools.product(qlat.elements, repeat=2):
            assert view.commutator(up[qa], up[qb]) == up[sq.commutator(qa, qb)]
        for qa in qlat.elements:
            assert is_nilpotent_congruence(view, up[qa]) == is_nilpotent_congruence(sq, qa)
            assert _outcome(is_supernilpotent_congruence, view, up[qa]) == _outcome(
                is_supernilpotent_congruence, sq, qa
            )
        for a, b in qlat.covers:
            lo, hi = qlat.elements[a], qlat.elements[b]
            assert _outcome(view.characteristic, up[lo], up[hi]) == _outcome(
                sq.characteristic, lo, hi
            )
        for lo, hi in itertools.product(qlat.elements, repeat=2):
            if lo.leq(hi):
                assert _outcome(is_pupi, view, up[lo], up[hi]) == _outcome(
                    is_pupi, sq, lo, hi
                )


@pytest.mark.parametrize("name", CON_ALGEBRAS)
def test_distinguished_congruences_match_the_built_quotients(name):
    """The least congruence with a supernilpotent quotient, found as
    before: by building each quotient algebra and its own Structure."""
    alg = resolve_algebra(algebra_spec(name))
    s = Structure(alg, Budget())
    ok = [
        c for c in s.lattice.elements
        if is_supernilpotent_algebra(quotient_algebra(alg, c)[0])
    ]
    least = [c for c in ok if all(c.leq(d) for d in ok)]
    got = _outcome(lambda: s.distinguished.smallest_supernilpotent_quotient)
    if len(least) == 1:
        assert got == least[0]
    else:
        assert got[0] == "ValueError"


def test_relative_commutators_outside_modular_varieties_are_not_joins():
    """On this product of a two- and a three-element algebra, which has no
    Latin square, C(1, beta; [1, beta] v theta) fails: the relative
    commutator is the lift of A/theta's [1, beta/theta], strictly above
    [1, beta] v theta, so the floor must enter the forcing loop."""
    table = (5, 3, 5, 5, 3, 5, 5, 4, 3, 5, 4, 3, 5, 3, 3, 5, 3, 3,
             2, 0, 2, 2, 0, 2, 2, 1, 0, 2, 1, 0, 2, 0, 0, 2, 0, 0)
    alg = FiniteAlgebra("B2xC3", 6, (Operation("*", 2, table),))
    theta = Partition((0, 1, 0, 0, 4, 0))
    beta = Partition((0, 1, 0, 0, 1, 0))
    one = Partition.total(6)
    s = Structure(alg, Budget())
    assert latin_square(alg) is None
    assert s.commutator(one, beta).join(theta) == theta
    assert s.quotient(theta).commutator(one, beta) == beta
    assert commutator(alg, one, beta, theta) == beta
    quo, mapping = quotient_algebra(alg, theta)
    b = Partition.from_blocks(quo.size, [{mapping[x] for x in blk} for blk in beta.blocks()])
    assert Structure(quo, Budget()).commutator(Partition.total(quo.size), b) == b


def test_thirty_elements_are_nilpotent_without_matrices(monkeypatch):
    """The lower central chain of Z5 x Z2 x Z3 with g has 1, 5 and 30
    blocks, and no commutator on it closes a matrix subalgebra: the M(1, 1)
    path took about a minute here."""

    def refuse(*_):
        raise AssertionError("closed a matrix subalgebra")

    monkeypatch.setattr(congruence, "_matrix_subalgebra", refuse)
    s = Structure(z5_z2_z3(), Budget(lattice_universe=64))
    one = s.lattice.one
    assert len(s.lattice) == 5
    assert [c.num_blocks() for c in lower_central_chain(s, one)] == [1, 5, 30]
    assert is_nilpotent_congruence(s, one)


def test_one_element_matrix_closures_split_their_codes_right():
    """On one element every code is 0 and every table has one entry; a
    unary and a ternary operation side by side close to the one matrix.
    An earlier closure read unary and binary operations through tables on
    A^2, split a ternary one into two digits instead of four there, and
    raised IndexError."""
    alg = FiniteAlgebra(
        "T1", 1, (Operation("u", 1, (0,)), Operation("t", 3, (0,)))
    )
    one = Partition.total(1)
    assert latin_square(alg) is None
    assert congruence._matrix_subalgebra(alg, one, one).tolist() == [0]
    assert commutator(alg, one, one) == one


def test_algebras_without_a_latin_square_close_matrices(monkeypatch):
    """Only algebras without a Latin square close M(alpha, beta): ``con``
    (lattice, characteristics, rank, distinguished congruences) on every
    fixture with a Latin square and on the golden D4 and Z3 x Z3 never
    reaches the closure, while the commutators of LAT2 and G7 still come
    from it."""
    closed = []
    inner = congruence._matrix_subalgebra

    def counted(alg, left, right, budget):
        closed.append(alg.name)
        return inner(alg, left, right, budget)

    monkeypatch.setattr(congruence, "_matrix_subalgebra", counted)
    latin = [name for name in CON_ALGEBRAS if name not in ("LAT2", "G7")]
    assert sorted(latin) == ["D4", "S3", "Z2", "Z3", "Z3xZ3", "Z4", "Z6", "Z6%2"]
    for name in latin:
        assert latin_square(resolve_algebra(algebra_spec(name))) is not None
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["con", "--algebra", algebra_spec(name)]) == 0
    assert closed == []
    g7 = FiniteAlgebra.load(str(GOLDEN / "inputs" / "algebra_G7.json"))
    for alg in (get_fixture("LAT2").algebra, g7):
        assert latin_square(alg) is None
        one = Partition.total(alg.size)
        commutator(alg, one, one)
    assert closed == ["LAT2", "G7"]


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
    """M(alpha, beta) is invariant under swapping its rows and swapping
    its columns, since congruences are symmetric, and M(alpha, alpha)
    under transposing; checked on the reference closure alone, for random
    congruences of random algebras."""
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
    matrices).  An earlier closure built a dense frontier-by-existing
    block per round and peaked at 84 MiB here, growing as |M|^2; the
    closure kernel of algebra.py works in blocks of ``CLOSURE_BLOCK``
    entries, 16,384 matrices of four (measured 0.9 MiB).  The Delta path
    on Z3 x Z3 with alpha = beta = 1 joins labels on the 81 pairs of A(1),
    ``MATRIX_BLOCK`` images at a time (measured 0.33 MiB); it is held to
    1 MiB."""
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
    z3z3 = z3_squared()
    one = Partition.total(9)
    tracemalloc.start()
    try:
        result = congruence._diagonal_commutator(z3z3, one, one)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert result == Partition.identity(9)
    assert peak < 1.0, peak


def test_the_matrix_closure_is_charged_to_the_clone_cap():
    """M(1, 1) of the golden G7 groupoid is all 2,401 matrices of A^4,
    its 91 generators among them.  The closure charges each matrix to
    "matrix subalgebra" under the Structure's ``clone_functions``, the
    generators first, as a clone's seeds are: cap 90 fails on the
    generators, cap 2,400 on the last matrix, and cap 2,401 lets the
    closure through to [1, 1] = 1."""
    g7 = FiniteAlgebra.load(str(GOLDEN / "inputs" / "algebra_G7.json"))
    one = Partition.total(g7.size)
    for cap, count in ((90, 91), (2400, 2401)):
        message = f"^matrix subalgebra: {count} exceeds cap {cap}$"
        with pytest.raises(BudgetExceeded, match=message):
            Structure(g7, Budget(clone_functions=cap)).commutator(one, one)
    assert Structure(g7, Budget(clone_functions=2401)).commutator(one, one) == one


def test_commutators_are_computed_once_per_run(monkeypatch):
    """Within one ``con`` call S3 gets one lattice, its quotients being
    intervals of it, and each (tables, alpha, beta, floor) one commutator;
    a second call starts from an empty memo and repeats exactly that
    work."""
    lattices, keys = [], []
    build, inner = congruence.all_congruences, congruence.commutator

    def tables(alg):
        return tuple((op.arity, op.table) for op in alg.ops)

    def counted_lattice(alg, budget=None):
        lattices.append(tables(alg))
        return build(alg, budget=budget)

    def counted(alg, left, right, floor=None, budget=None):
        keys.append((tables(alg), left, right, floor))
        return inner(alg, left, right, floor, budget)

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
    assert lat_first == [tables(get_fixture("S3").algebra)]
    assert len(first) == len(set(first)) > 0
    assert (lat_first, first, asked_first) == (lat_second, second, asked_second)
    assert asked_first > len(first)


@pytest.mark.parametrize("name", CON_ALGEBRAS)
def test_con_builds_one_lattice_and_no_quotient_algebra(monkeypatch, name):
    """The distinguished congruences read each quotient A/theta on A's own
    lattice, and a fixture's first-use check reads the same Structure, so
    ``con`` builds A's lattice once and no quotient algebra."""
    monkeypatch.setattr(fixtures, "_CHECKED", set())
    lattices = count_lattices(monkeypatch)
    quotients = count_quotient_algebras(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["con", "--algebra", algebra_spec(name)]) == 0
    assert (len(lattices), quotients) == (1, [])


@pytest.mark.parametrize(
    "program, quotients",
    [("count_ones_z6_14.json", 0), ("demo_and2_z6%2.json", 1)],
)
def test_compile_builds_one_quotient_algebra_per_chain_level(
    monkeypatch, program, quotients
):
    """``compile`` builds a program over A/gamma_j for each level j > 0 of
    the chain and no other quotient algebra: the supernilpotent Z6 has no
    chain, and the chain of Z6%2 is 0 < mod 2.  Every structural question
    goes to A's one Structure or a view of it, so A's lattice is the only
    one built.  The descent test over Z12%3 counts 2 quotients for its
    chain of length two, and one lattice and one root Structure too."""
    calls = count_quotient_algebras(monkeypatch)
    lattices = count_lattices(monkeypatch)
    roots = count_root_structures(monkeypatch)
    path = GOLDEN / "inputs" / program
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compile", "--program", str(path), "--verify-n", "20"]) == 0
    assert len(calls) == quotients
    assert (len(lattices), len(roots)) == (1, 1)


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
    """With room for two structures the memo evicts its oldest entries
    while the ``fixtures`` listing asks for one structure per fixture, and
    the output stays the recorded one."""
    monkeypatch.setattr(congruence, "STRUCTURE_MEMO_SIZE", 2)
    sizes = []

    class Watched(dict):
        def __setitem__(self, key, value):
            sizes.append(len(self))
            super().__setitem__(key, value)

    monkeypatch.setattr(congruence, "_STRUCTURES", Watched())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["fixtures"]) == 0
    assert buf.getvalue() == (GOLDEN / "expected" / "fixtures.out").read_text()
    assert len(congruence._STRUCTURES) <= 2
    assert max(sizes) <= 1 and len(sizes) > 2


def test_structures_are_keyed_by_the_budget():
    """A clone cap below S3's 324 unary polynomials fails under its own
    budget only: the default budget's structure still closes the clone,
    whichever of the two is asked first.  A lattice built under a wider
    budget asks the default one's structure for nothing."""
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
    congruence._STRUCTURES.clear()
    structure(s3, Budget(lattice_universe=64)).lattice
    assert len(congruence._STRUCTURES) == 1

"""Operation tables, unary clone generation, difference-polynomial search."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import closure_reference as reference
from conftest import dihedral4, permuting_algebras
from test_groups import GROUPS, cayley
from nudfa import algebra, congruence
from nudfa.algebra import (
    FiniteAlgebra,
    Operation,
    UnaryClone,
    find_malcev_polynomial,
    latin_square,
    make_op,
    quasigroup_malcev,
    quotient_algebra,
    verify_malcev,
)
from nudfa.circuits import GATE, CircuitBuilder, eval_circuit, eval_columns
from nudfa.cli import main
from nudfa.congruence import Structure
from nudfa.fixtures import fixture_names, get_fixture
from nudfa.limits import Budget, BudgetExceeded, default_budget
from nudfa.localize import minimal_sets
from nudfa.partitions import Partition

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_make_op_and_eval():
    alg = FiniteAlgebra(
        "Z4", 4, (make_op("+", 2, 4, lambda a, b: (a + b) % 4),)
    )
    assert alg.eval_op("+", (3, 2)) == 1
    assert alg.op("+").arity == 2
    with pytest.raises(KeyError):
        alg.op("*")


def test_json_round_trip():
    alg = get_fixture("Z6%2").algebra
    back = FiniteAlgebra.from_json(alg.to_json())
    assert back == alg


def test_unary_clone_of_cyclic_group_is_affine_maps():
    z6 = get_fixture("Z6").algebra
    clone = UnaryClone(z6, default_budget())
    tables = set(clone)
    assert tables == {
        tuple((k * x + c) % 6 for x in range(6))
        for k in range(6)
        for c in range(6)
    }


def test_unary_clone_lookup_and_find():
    zm = get_fixture("Z6%2").algebra
    clone = UnaryClone(zm, default_budget())
    ident = clone.lookup(tuple(range(6)))
    assert ident == tuple(range(6))
    # 0 and 2 are congruent mod 2 but their images 0 and 1 are not, so no
    # polynomial realizes this table
    missing = clone.lookup((0, 0, 1, 0, 0, 0))
    assert missing is None
    halver = clone.find(lambda fn: frozenset(fn) == frozenset({0, 2, 4}))
    assert halver is not None
    assert all(v in (0, 2, 4) for v in halver)
    # Parity is a congruence, so no polynomial maps 0 and 2 to 1 and 0.
    assert clone.find(lambda fn: (fn[0], fn[2]) == (1, 0)) is None


def test_clone_functions_certified_by_witness_circuits():
    zm = get_fixture("Z6%2").algebra
    for values, witness in witnessed(zm):
        for x in range(6):
            assert eval_circuit(zm, witness, (x,)) == values[x]


def ternary_circuit_json(op, gates):
    nodes = [["var", i] for i in range(3)] + [["gate", op, list(c)] for c in gates]
    return {"k": 3, "nodes": nodes, "output": len(nodes) - 1}


GROUP_DIFFERENCE = [[1, 1], [1, 2], [0, 3], [3, 4], [5, 6]]


def test_difference_polynomial_search_and_verify():
    """The first witness in breadth-first product order is pinned exactly."""
    cases = [
        (get_fixture("Z6").algebra, "+", GROUP_DIFFERENCE),
        (get_fixture("Z6%2").algebra, "+", GROUP_DIFFERENCE),
        (get_fixture("S3").algebra, "*", GROUP_DIFFERENCE),
        (dihedral4(), "*", [[1, 1], [1, 2], [3, 4], [0, 5]]),
    ]
    for algebra, op, gates in cases:
        found = find_malcev_polynomial(algebra, budget=default_budget())
        assert found is not None and verify_malcev(algebra, found)
        assert found.to_json() == ternary_circuit_json(op, gates), algebra.name
    lat2 = get_fixture("LAT2").algebra
    assert find_malcev_polynomial(lat2, budget=default_budget()) is None
    b = CircuitBuilder(2)  # a circuit in two variables is no Malcev term
    assert not verify_malcev(lat2, b.finish(b.var(0)))


def outcome(search, *args):
    """The search's result, or the message of the budget it exceeded."""
    try:
        return search(*args)
    except BudgetExceeded as exc:
        return f"BudgetExceeded: {exc}"


def witnessed(alg: FiniteAlgebra, budget: Budget | None = None):
    """The algebra's unary clone as pairs of a table and its witness, in
    canonical order, as ``reference.close_unary`` returns it: the clone's
    tables, and their witnesses asked for in one query.  Both closures
    run at the call, under whatever is patched there."""
    s = Structure(alg, budget or default_budget())
    tables = list(s.clone)
    return tuple(zip(tables, s.witnesses(tables)))


def kernel_closure(
    alg: FiniteAlgebra, budget: Budget | None = None, witnessed: bool = True, **options
):
    """The closure kernel run on the unary tables of round 0: the tables
    in the order found, the witness nodes and the accepted table's index.
    ``witnessed`` records the nodes, so the kernel takes its breadth-first
    pools; else it takes the generator pools where the operations allow,
    and the nodes are None."""
    seen, nodes = algebra._seeded(alg, 1)
    nodes = nodes if witnessed else None
    hit = algebra._closure(alg, seen, budget, "unary clone", nodes=nodes, **options)
    return seen.tables(), nodes, hit


def rectangular_band(x: int, y: int, base: int) -> int:
    """In the given base, the high digits of x and the last digit of y."""
    return x - x % base + y % base


# Binary operations on Z_n that closure_cases draws besides random tables.
# All but subtraction are associative; only the cyclic group is a group.
# The band and the left-zero band are the ones that do not commute.
BINARY = {
    "group": lambda x, y, n: (x + y) % n,
    "max": lambda x, y, n: max(x, y),
    "min": lambda x, y, n: min(x, y),
    "left zero": lambda x, y, n: x,
    "band": lambda x, y, n: rectangular_band(x, y, 2 if n % 2 == 0 else n),
    "product": lambda x, y, n: x * y % n,
    "null": lambda x, y, n: 0,
    "difference": lambda x, y, n: (x - y) % n,
}


@st.composite
def closure_cases(draw, associative=False):
    """A small random algebra, a depth bound and a budget cap.

    Its operations have arity 0-3, at most two of them binary, so unary
    and binary ones mix.  At least half of the binary operations are
    relabelled cyclic groups, which have a Malcev polynomial.  The others
    are random or, relabelled, one of ``BINARY``: associative ones
    (semilattices, left-zero and rectangular bands, multiplication mod n,
    null semigroups), whose clones close over generators and whose witness
    queries end the breadth-first closure at the clone's last table, and
    subtraction mod n, which is left to the plain closure.  Ternary operations come only with |A| <= 3: the
    reference closure of a ternary operation on four elements applies it
    to up to 256**3 tuples.

    With ``associative`` there are one or two binary operations, each one
    of the associative ``BINARY``, and no ternary one, and the cap is n**n,
    room for every unary function, so that the clone, not the budget,
    ends the breadth-first closure.
    """
    n = draw(st.integers(min_value=2, max_value=4))

    def table(r):
        kind = "random"
        if r == 2 and associative:
            kind = draw(st.sampled_from([k for k in BINARY if k != "difference"]))
        elif r == 2:
            group = draw(st.booleans())
            kind = "group" if group else draw(st.sampled_from(["random", *BINARY]))
        if kind != "random":
            perm = draw(st.permutations(range(n)))
            return tuple(
                perm[BINARY[kind](perm.index(x), perm.index(y), n)]
                for x in range(n)
                for y in range(n)
            )
        values = st.lists(st.integers(0, n - 1), min_size=n**r, max_size=n**r)
        return tuple(draw(values))

    if associative:
        arities = [r for r in (0, 1, 2) if draw(st.booleans())] + [2]
    else:
        arities = [r for r in (0, 1, 2, 2, 3) if draw(st.booleans()) and (r < 3 or n <= 3)]
    ops = tuple(Operation(f"f{i}", r, table(r)) for i, r in enumerate(arities))
    depth = draw(st.integers(min_value=1, max_value=4))
    cap = n**n if associative else draw(st.integers(min_value=1, max_value=150))
    budget = Budget(clone_functions=cap)
    return FiniteAlgebra(f"R{n}", n, ops), depth, budget


@settings(max_examples=60, deadline=None)
@given(closure_cases())
def test_closures_match_the_per_entry_reference(case):
    """Same tables, witnesses and first Malcev witness as the per-entry
    closure, or the same budget failure."""
    alg, depth, budget = case
    clone = outcome(witnessed, alg, budget)
    assert clone == outcome(reference.close_unary, alg, budget)
    if not isinstance(clone, str):
        assert all(type(v) is int for values, _ in clone for v in values)
    found = outcome(find_malcev_polynomial, alg, depth, budget)
    assert found == outcome(reference.find_malcev_polynomial, alg, depth, budget)


@pytest.mark.parametrize(
    "name, caps",
    [
        ("Z6%2", (1, 6, 7, 8, 60, 107, 108, 500)),
        ("S3", (1, 7, 8, 90)),
        ("Z4", (114, 115)),  # the Malcev witness of Z4 is its 115th table
    ],
)
def test_budget_failures_match_the_per_entry_reference(name, caps):
    """The clone charges its seeds and the Malcev search does not; both
    charge once per new table, before the Malcev test."""
    alg = get_fixture(name).algebra
    for cap in caps:
        budget = Budget(clone_functions=cap)
        assert outcome(witnessed, alg, budget) == outcome(
            reference.close_unary, alg, budget
        )
        assert outcome(find_malcev_polynomial, alg, 4, budget) == outcome(
            reference.find_malcev_polynomial, alg, 4, budget
        )


def test_one_element_algebra_matches_the_per_entry_reference():
    """All projections share one table; the last variable names it."""
    alg = FiniteAlgebra("1", 1, (Operation("c", 0, (0,)), Operation("*", 2, (0,))))
    budget = default_budget()
    assert witnessed(alg, budget) == reference.close_unary(alg, budget)
    found = find_malcev_polynomial(alg, 4, budget)
    assert found == reference.find_malcev_polynomial(alg, 4, budget)
    assert found.to_json() == {"k": 3, "nodes": [["var", 2]], "output": 0}


def test_closures_keep_copies_not_batch_views():
    """Peak traced memory of three searches.  A kept row that is a view of
    its block of ``CLOSURE_BLOCK`` entries keeps the whole block alive; with
    copies the Z6%2 Malcev search peaks at about 1.3 MiB, the S3 clone,
    closed over generators, at about 0.17 MiB, and the breadth-first closure
    its witnesses run, whose scratch memory is mostly the gather index of
    one block, at about 0.8 MiB.  The per-entry closure of the S3 clone
    peaked near 20 MiB."""
    peaks = {}
    for name, fixture, search in (
        ("Z6%2", "Z6%2", find_malcev_polynomial),
        ("S3", "S3", lambda alg: UnaryClone(alg).functions),
        ("S3 witnesses", "S3", kernel_closure),
    ):
        alg = get_fixture(fixture).algebra
        tracemalloc.start()
        try:
            search(alg)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert peaks.pop("Z6%2") < 2.0 and max(peaks.values()) < 1.0, peaks


@functools.cache
def reference_outcome(name: str, search: str, cap: int = 100_000):
    """The per-entry reference's result on a fixture, computed once."""
    alg = get_fixture(name).algebra
    if search == "clone":
        return outcome(reference.close_unary, alg, Budget(clone_functions=cap))
    return outcome(
        reference.find_malcev_polynomial, alg, 4, Budget(clone_functions=cap)
    )


def test_clone_witnesses_are_built_only_when_read(monkeypatch):
    """Building the S3 clone and every minimal set of its lattice reads
    value tables only, so the witness closure, the kernel run that records
    witness nodes, does not run and no circuit is assembled.  One query
    for every table runs it once and builds each witness once; asking
    again, for all or some of them, runs nothing.  The witnesses equal the
    per-entry reference's."""
    alg = get_fixture("S3").algebra
    finished, built, closures = [], [], []
    finish, subcircuit, closure = CircuitBuilder.finish, algebra.subcircuit, algebra._closure
    monkeypatch.setattr(
        CircuitBuilder, "finish", lambda *a: finished.append(a) or finish(*a)
    )
    monkeypatch.setattr(
        algebra, "subcircuit", lambda *a: built.append(a) or subcircuit(*a)
    )

    def witnessing(*a, **k):
        if k.get("nodes") is not None:
            closures.append(a)
        return closure(*a, **k)

    monkeypatch.setattr(algebra, "_closure", witnessing)
    s = Structure(alg, default_budget())
    clone, lat = s.clone, s.lattice
    for lo, hi in lat.covers:
        assert minimal_sets(s, lat.elements[lo], lat.elements[hi])
    assert (len(finished), len(built), len(closures)) == (0, 0, 0)
    tables = list(clone)
    witnesses = s.witnesses(tables)
    assert s.witnesses(tables) == witnesses
    assert s.witnesses(tables[::7]) == witnesses[::7]
    assert (len(finished), len(built), len(closures)) == (0, len(clone), 1)
    monkeypatch.undo()
    assert tuple(zip(tables, witnesses)) == reference_outcome("S3", "clone")


def table_set(tables: np.ndarray) -> set[tuple[int, ...]]:
    return set(map(tuple, tables.tolist()))


def generated_and_closed(alg: FiniteAlgebra, budget: Budget):
    """The tables the closure kernel finds on an algebra over its
    generator pools and over its breadth-first pools."""
    generated, _, _ = kernel_closure(alg, budget, witnessed=False)
    closed, _, _ = kernel_closure(alg, budget)
    return generated, closed


def closed_under_seeds(alg: FiniteAlgebra, tables: np.ndarray) -> bool:
    """True when the tables of an algebra with one associative binary
    operation * hold x and every constant, and s * g for every table s
    among them and every such seed g.  Every unary polynomial is then
    among them, for by associativity it is a product g_1 * ... * g_j of
    seeds.  Each row is coded as one integer in base n."""
    n = alg.size
    mul = np.asarray(alg.ops[0].table).reshape(n, n)
    seeds = np.vstack([np.arange(n), np.repeat(np.arange(n)[:, None], n, axis=1)])
    code = lambda rows: rows.astype(np.int64) @ n ** np.arange(n, dtype=np.int64)
    codes = code(tables)
    products = np.vstack([mul[tables, g] for g in seeds])
    return bool(np.isin(code(seeds), codes).all() and np.isin(code(products), codes).all())


def band_with_a_unary() -> FiniteAlgebra:
    """The 2 x 2 rectangular band with a unary operation.  u(x) is a
    generator of the band's products found in round 1, and without the
    products of the tables found before it with it, such as x u(x), the
    closure misses one of the 256 functions."""
    table = tuple(BINARY["band"](x, y, 4) for x in range(4) for y in range(4))
    ops = (Operation("*", 2, table), Operation("u", 1, (0, 2, 3, 0)))
    return FiniteAlgebra("band", 4, ops)


@pytest.mark.parametrize(
    "alg",
    [get_fixture(name).algebra for name in fixture_names()]
    + [cayley(name) for name in GROUPS]
    + [band_with_a_unary()],
    ids=lambda alg: alg.name,
)
def test_generated_tables_are_the_breadth_first_tables(alg):
    """Every fixture, every group of ``test_groups`` and a band with a
    unary operation have only unary and associative operations, and the
    kernel's generator pools find the tables of its breadth-first pools,
    each once.  Both gather their products in blocks of at most
    ``CLOSURE_BLOCK`` entries.  The breadth-first closure of A4 runs for
    minutes, so its 36,864 tables are held to ``closed_under_seeds``
    instead.  The clones of S4 and SL(2,3) exceed the default cap, and
    both closures fail on it alike."""
    assert algebra._unary_or_associative(alg.ops, alg.size)
    entries, index = [], algebra._table_index

    def gathered(current, args, n):
        at = index(current, args, n)
        entries.append(at.size)
        return at

    with mock.patch.object(algebra, "_table_index", gathered):
        if alg.name == "A4":
            generated, _, _ = kernel_closure(alg, Budget(), witnessed=False)
            assert len(generated) == len(table_set(generated)) == 36_864
            assert closed_under_seeds(alg, generated)
        elif alg.name in ("S4", "SL(2,3)"):
            failed = "BudgetExceeded: unary clone: 100001 exceeds cap 100000"
            assert outcome(kernel_closure, alg, Budget(), False) == failed
            assert outcome(kernel_closure, alg, Budget()) == failed
        else:
            generated, closed = generated_and_closed(alg, Budget())
            assert len(generated) == len(closed)
            assert table_set(generated) == table_set(closed)
    assert max(entries) <= algebra.CLOSURE_BLOCK


@settings(max_examples=40, deadline=None)
@given(closure_cases(associative=True), st.data())
def test_associative_clones_match_under_caps_below_their_size(case, data):
    """On associative draws closing over generators finds the tables of
    the breadth-first closure.  A cap drawn up to their number, so below
    n**n, ends the clone as it ends the per-entry reference."""
    alg, _, budget = case
    generated, closed = generated_and_closed(alg, budget)
    assert len(generated) == len(closed) and table_set(generated) == table_set(closed)
    budget = Budget(clone_functions=data.draw(st.integers(1, len(generated))))
    clone = outcome(witnessed, alg, budget)
    assert clone == outcome(reference.close_unary, alg, budget)


def test_a_cap_at_the_size_of_the_s3_clone_matches_the_reference():
    """The S3 clone has 324 functions: cap 323 fails on the last one with
    the reference's message, and cap 324 lets the clone through."""
    alg = get_fixture("S3").algebra
    for cap in (323, 324):
        clone = outcome(witnessed, alg, Budget(clone_functions=cap))
        assert clone == reference_outcome("S3", "clone", cap), cap
    failed = reference_outcome("S3", "clone", 323)
    assert failed == "BudgetExceeded: unary clone: 324 exceeds cap 323"


@pytest.mark.parametrize("name", fixture_names())
def test_mapping_is_the_first_function_through_the_pairs(name):
    """``mapping`` masks the clone's table rows; it picks the function the
    loop over ``functions`` in canonical order picks, for every pair of
    constraints (a, b), (c, d), and None when no function fits."""
    clone = UnaryClone(get_fixture(name).algebra)
    n = clone.algebra.size

    def first(pairs):
        for fn in clone.functions:
            if all(fn[a] == b for a, b in pairs):
                return fn
        return None

    assert clone.mapping([]) is clone.functions[0]
    for pairs in itertools.product(itertools.product(range(n), repeat=2), repeat=2):
        assert clone.mapping(pairs) is first(pairs), pairs


def block_of(rows: int, k: int, n: int) -> int:
    """``CLOSURE_BLOCK`` for blocks of ``rows`` k-ary tables over n
    elements, at the padded width of the store that holds them."""
    return rows * algebra._Tables(n, n**k).padded


# The dense limit of the stores: the default, under which clones of up to
# six elements are keyed by their codes, and 0, under which every store
# hashes its rows.
DENSE_LIMITS = (algebra.DENSE_CODES, 0)


@pytest.mark.parametrize("rows", (1, 2, 3, 7, None))
def test_blocks_of_any_size_close_the_same_tables(rows):
    """Blocks of a few rows cut the products at many places; both searches
    still match the per-entry reference.  Z4's Malcev witness is its 115th
    table: at 2 and 7 rows it is the last row of its block, at 1 row every
    table is a block of its own, and the caps 114 and 115 make the budget
    fail on it or let it through.  The S3 clone takes 105k products, so it
    runs only with blocks of 7 rows and the default.  The clones run under
    both ``DENSE_LIMITS``, so in the store keyed by codes and in the hashed
    one; the Malcev searches, of four and six elements, are hashed under
    either."""
    cases = [("Z4", (114, 115, 100_000)), ("Z6%2", (100_000,))]
    if rows in (7, None):
        cases.append(("S3", ()))
    for name, caps in cases:
        alg = get_fixture(name).algebra
        for limit in DENSE_LIMITS:
            with mock.patch.object(algebra, "DENSE_CODES", limit):
                size = block_of(rows, 1, alg.size) if rows else algebra.CLOSURE_BLOCK
                with mock.patch.object(algebra, "CLOSURE_BLOCK", size):
                    clone = outcome(witnessed, alg)
            assert clone == reference_outcome(name, "clone"), (name, limit)
        size = block_of(rows, 3, alg.size) if rows else algebra.CLOSURE_BLOCK
        for cap in caps:
            with mock.patch.object(algebra, "CLOSURE_BLOCK", size):
                found = outcome(
                    find_malcev_polynomial, alg, 4, Budget(clone_functions=cap)
                )
            assert found == reference_outcome(name, "Malcev", cap), (name, cap)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(closure_cases(), closure_cases(associative=True)),
    st.sampled_from((1, 2, 3, 7)),
    st.sampled_from(DENSE_LIMITS),
)
def test_random_closures_in_small_blocks_match_the_reference(case, rows, limit):
    """Half the draws are of associative algebras whose clones finish, so
    that the breadth-first closure run for their witnesses often ends at
    the clone's last table, at a block boundary.  Every witness is asked
    for in the small blocks, so the breadth-first closure runs in them too.  The
    dense limit is drawn from ``DENSE_LIMITS``: by default every clone of
    these draws and the Malcev search on two elements are keyed by codes,
    and under 0 they are hashed."""
    alg, depth, budget = case
    with mock.patch.object(algebra, "DENSE_CODES", limit):
        with mock.patch.object(algebra, "CLOSURE_BLOCK", block_of(rows, 1, alg.size)):
            clone = outcome(witnessed, alg, budget)
        with mock.patch.object(algebra, "CLOSURE_BLOCK", block_of(rows, 3, alg.size)):
            found = outcome(find_malcev_polynomial, alg, depth, budget)
    assert clone == outcome(reference.close_unary, alg, budget)
    assert found == outcome(reference.find_malcev_polynomial, alg, depth, budget)


def rows_gathered(search):
    """The search's outcome and the rows of products its closure gathered
    (one a tuple of argument tables), counted at ``_table_index``."""
    rows, index = [0], algebra._table_index

    def counted(current, args, n):
        at = index(current, args, n)
        rows[0] += at.size // at.shape[-1]
        return at

    with mock.patch.object(algebra, "_table_index", counted):
        return outcome(search), rows[0]


def dihedral6() -> FiniteAlgebra:
    """The symmetries of a hexagon, x -> e x + a on Z6 with e = +-1, coded
    6 (e < 0) + a and composed as maps."""
    maps = [tuple((e * x + a) % 6 for x in range(6)) for e in (1, -1) for a in range(6)]
    table = tuple(maps.index(tuple(f[g[x]] for x in range(6))) for f in maps for g in maps)
    return FiniteAlgebra("D6", 12, (Operation("*", 2, table),))


def z5_subtraction() -> FiniteAlgebra:
    """Subtraction mod 5, which is not associative."""
    return FiniteAlgebra("Z5-", 5, (make_op("-", 2, 5, lambda x, y: (x - y) % 5),))


# sha256 of the JSON list of [values, witness] of every function of the D6
# clone, in order, as the per-entry reference closes it (5 s, so the digest
# is kept instead): hashlib.sha256(json.dumps([[list(values),
# witness.to_json()] for values, witness in reference.close_unary(dihedral6(),
# Budget())], sort_keys=True).encode()).hexdigest()
D6_REFERENCE_CLONE = "11949395608a66af321694f2c677741aae935c4664f5c65c6b2a20ff020bf92d"


def test_witness_reads_end_the_breadth_first_closure_at_the_clone_size():
    """The plain closure of the S3 clone gathers 104,976 rows of products,
    though 10,215 find all 324 functions; a query for every witness ends
    it within a quarter of them, at the row that stores the last of the
    324.  The 648-function D6 clone, 648**2 = 419,904 rows plainly,
    matches the per-entry reference within an eighth.  Building the S3 and
    D6 clones closes over generators and gathers under a thirty-second of
    the plain rows.  Subtraction mod 5 is not associative, so building its
    clone takes every row of the plain closure, and so may its query."""
    s3, d6, sub5 = get_fixture("S3").algebra, dihedral6(), z5_subtraction()
    clones = {}
    for alg, most, built in (
        (s3, 104_976 // 4, 104_976 // 32),
        (d6, 419_904 // 8, 419_904 // 32),
        (sub5, 625, 625),
    ):
        s = Structure(alg, Budget())
        clone, gathered = rows_gathered(lambda: s.clone)
        assert gathered <= built, (alg.name, gathered)
        tables = list(clone)
        witnesses, rows = rows_gathered(lambda: s.witnesses(tables))
        assert rows <= most, (alg.name, rows)
        clones[alg.name] = tuple(zip(tables, witnesses))
    assert gathered == 625 and clones["Z5-"] == reference.close_unary(sub5, Budget())
    assert clones["S3"] == reference_outcome("S3", "clone")
    d6_clone = [[list(values), witness.to_json()] for values, witness in clones["D6"]]
    digest = hashlib.sha256(json.dumps(d6_clone, sort_keys=True).encode()).hexdigest()
    assert digest == D6_REFERENCE_CLONE


def test_one_witness_ends_the_closure_early():
    """A query for the table in the middle of the D8 clone's canonical
    order gathers 22,287 rows, within a tenth of the 383,707 the query for
    every table gathers (the plain closure gathers 2048**2 = 4,194,304),
    and its witness is the one the query for every table returns."""
    alg = cayley("D8")
    tables = list(UnaryClone(alg))
    middle = len(tables) // 2
    every, all_rows = rows_gathered(lambda: algebra.unary_witnesses(alg, tables))
    (one,), rows = rows_gathered(lambda: algebra.unary_witnesses(alg, [tables[middle]]))
    assert rows <= all_rows // 10, (rows, all_rows)
    assert one == every[middle]


def test_witnesses_of_tables_the_closure_does_not_store_are_refused():
    """A table outside the clone has no witness: the query runs the whole
    closure, then refuses it with ValueError naming it, whatever else it
    asks for.  Each store of ``DENSE_LIMITS`` tells it apart."""
    alg = get_fixture("S3").algebra
    clone = UnaryClone(alg)
    outside = (0, 1, 0, 0, 0, 0)
    assert clone.lookup(outside) is None
    for limit in DENSE_LIMITS:
        with mock.patch.object(algebra, "DENSE_CODES", limit):
            for asked in ([outside], [clone.functions[5], outside]):
                with pytest.raises(ValueError, match=r"table \(0, 1, 0, 0, 0, 0\) is not"):
                    Structure(alg, default_budget()).witnesses(asked)


@pytest.mark.parametrize(
    "table", [(0, 1, 2, 3, 4, -1), (0, 1, 2, 3, 4, 9), (0, 1, 2, 3, 4)],
    ids=["negative", "past_the_universe", "short"],
)
def test_malformed_tables_are_refused_before_the_closure(table):
    """A table with an entry outside Z6's universe, or of the wrong
    length, is refused with ValueError naming it before a row is
    gathered, also beside a table of the clone."""
    z6 = get_fixture("Z6").algebra
    gathered = []
    index = algebra._table_index
    counted = lambda *args: gathered.append(1) or index(*args)
    with mock.patch.object(algebra, "_table_index", counted):
        for asked in ([table], [tuple(range(6)), table]):
            with pytest.raises(ValueError, match=re.escape(f"table {table} is not a map")):
                algebra.unary_witnesses(z6, asked)
    assert gathered == []


def test_colliding_hashes_are_told_apart():
    """With a hash that maps many different tables together, every block
    is sorted out by comparing rows, and the closures stay exact.  Stores
    keyed by codes do not hash, so every store is made to hash its rows."""
    weak = lambda self, rows: rows.view(np.uint64).sum(axis=1) % np.uint64(5)
    with mock.patch.object(algebra._Tables, "hashes", weak), mock.patch.object(
        algebra, "DENSE_CODES", 0
    ):
        for name in ("Z4", "Z6%2", "S3"):
            alg = get_fixture(name).algebra
            assert witnessed(alg) == reference_outcome(name, "clone"), name
        found = find_malcev_polynomial(get_fixture("Z4").algebra, 4, Budget())
    assert found == reference_outcome("Z4", "Malcev")


def cube_table(alg: FiniteAlgebra, circuit) -> list[int]:
    """A ternary circuit's values on A^3 in ``product`` order."""
    n = alg.size
    return eval_columns(alg, circuit, np.indices((n,) * 3).reshape(3, -1)).tolist()


def relabelled(alg: FiniteAlgebra, seed: int) -> FiniteAlgebra:
    """An isomorphic copy of the algebra: element x is renamed perm[x]."""
    n = alg.size
    perm = random.Random(seed).sample(range(n), n)
    back = [perm.index(x) for x in range(n)]

    def renamed(op):
        return lambda *args: perm[alg.eval_op(op.name, [back[a] for a in args])]

    ops = tuple(make_op(op.name, op.arity, n, renamed(op)) for op in alg.ops)
    return FiniteAlgebra(f"{alg.name}'", n, ops)


def cyclic(k: int) -> FiniteAlgebra:
    return FiniteAlgebra(f"Z{k}", k, (make_op("+", 2, k, lambda x, y: (x + y) % k),))


def cyclic_product(a: int, b: int) -> FiniteAlgebra:
    def add(x, y):
        return ((x // b + y // b) % a) * b + (x + y) % b

    return FiniteAlgebra(f"Z{a}xZ{b}", a * b, (make_op("+", 2, a * b, add),))


def retraction(k: int, d: int) -> FiniteAlgebra:
    """Z_k expanded by x -> x mod d, the pattern of Z6%2."""
    ops = cyclic(k).ops + (make_op(f"%{d}", 1, k, lambda x: x % d),)
    return FiniteAlgebra(f"Z{k}%{d}", k, ops)


TABLE_QUASIGROUPS = {
    "D4": dihedral4,
    "Z5'": lambda: relabelled(cyclic(5), 5),
    "Z8'": lambda: relabelled(cyclic(8), 8),
    "Z2xZ4'": lambda: relabelled(cyclic_product(2, 4), 24),
    "Z3xZ3'": lambda: relabelled(cyclic_product(3, 3), 33),
    "Z4%2'": lambda: relabelled(retraction(4, 2), 42),
    "Z6%3'": lambda: relabelled(retraction(6, 3), 63),
}


@pytest.mark.parametrize(
    "name", ("Z2", "Z3", "Z4", "Z6", "Z6%2", "S3", *TABLE_QUASIGROUPS)
)
def test_the_built_term_has_the_table_of_the_searched_witness(name):
    """Only the Malcev circuit's table reaches the CLI outputs, so building
    the quasigroup term instead of searching keeps them byte-identical."""
    make = TABLE_QUASIGROUPS.get(name)
    alg = make() if make else get_fixture(name).algebra
    malcev = Structure(alg, default_budget()).malcev
    assert malcev == quasigroup_malcev(alg)
    assert cube_table(alg, malcev) == cube_table(alg, find_malcev_polynomial(alg))


def left_subtraction(k: int) -> FiniteAlgebra:
    """Z_k under x o y = y - x: a quasigroup whose left identity 0 is no
    right identity."""
    return FiniteAlgebra(f"Z{k}-", k, (make_op("-", 2, k, lambda x, y: (y - x) % k),))


def test_a_term_longer_than_the_budget_falls_back_to_the_search():
    """Every translation of Z6 has order dividing 6, so e = 6 and the short
    term x * (y\\z) has 6 gates.  Over Z5 under y - x the short term fails
    the identities (y o (x\\x) = 2x - y), and the full one, with e = 5 and
    f = 2, has 2e + f - 2 = 10 gates.  Below either cap the Structure
    searches under the same budget, and fails or finds as the search alone
    does."""
    marked, subtraction = get_fixture("Z6%2").algebra, left_subtraction(5)
    for alg, gates in ((marked, 6), (subtraction, 10)):
        assert quasigroup_malcev(alg, Budget(clone_functions=gates)).gate_count == gates
        for cap in (gates - 1, 2):
            budget = Budget(clone_functions=cap)
            assert quasigroup_malcev(alg, budget) is None
            found = outcome(lambda: Structure(alg, budget).malcev)
            assert found == outcome(find_malcev_polynomial, alg, 4, budget)
    assert "BudgetExceeded" in outcome(
        lambda: Structure(marked, Budget(clone_functions=5)).malcev
    )


def test_compile_builds_the_term_and_lattices_still_search(monkeypatch):
    """The golden Z6%2 compile prints its recorded bytes and never calls
    the search.  LAT2 and G7 have no Latin square, so their Structures
    search as before: LAT2 has no Malcev polynomial and G7 exceeds the
    default cap."""
    calls = {"built": 0, "searched": 0}
    build, search = congruence.quasigroup_malcev, congruence.find_malcev_polynomial

    def counted(key, inner):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(congruence, "quasigroup_malcev", counted("built", build))
    monkeypatch.setattr(congruence, "find_malcev_polynomial", counted("searched", search))
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("NUDFA_BUDGET", raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["compile", "--program", "inputs/demo_and2_z6%2.json", "--verify-n", "20"])
    assert buf.getvalue() == (GOLDEN / "expected" / "compile_and2_z6%2.out").read_text()
    assert code == 0 and calls == {"built": 1, "searched": 0}
    for alg in (get_fixture("LAT2").algebra, FiniteAlgebra.load("inputs/algebra_G7.json")):
        expected = outcome(search, alg, 4, default_budget())
        assert outcome(lambda: Structure(alg, default_budget()).malcev) == expected
    assert calls == {"built": 3, "searched": 2}
    assert "BudgetExceeded" in expected


def latin_operations(alg: FiniteAlgebra) -> list[str]:
    """The binary operations whose every row and column lists the universe."""
    n, universe = alg.size, list(range(alg.size))
    return [
        op.name
        for op in alg.ops
        if op.arity == 2
        and all(sorted(op.table[i * n : (i + 1) * n]) == universe for i in range(n))
        and all(sorted(op.table[i::n]) == universe for i in range(n))
    ]


@settings(max_examples=60, deadline=None)
@given(permuting_algebras())
def test_the_term_is_built_exactly_over_latin_squares(alg):
    """From the first Latin square, and only when there is one."""
    latin, built = latin_operations(alg), quasigroup_malcev(alg)
    square = latin_square(alg)
    assert (square and square.name) == (latin[0] if latin else None)
    if not latin:
        assert built is None
    else:
        assert verify_malcev(alg, built)
        assert {node[1] for node in built.nodes if node[0] == GATE} == {latin[0]}


@settings(max_examples=60, deadline=None)
@given(permuting_algebras(), st.integers(min_value=1, max_value=500))
def test_without_the_built_term_the_structure_searches(alg, cap):
    """Same circuit or budget failure as the search alone."""
    budget = Budget(clone_functions=cap)
    built = quasigroup_malcev(alg, budget)
    malcev = outcome(lambda: Structure(alg, budget).malcev)
    if built is None:
        assert malcev == outcome(find_malcev_polynomial, alg, 4, budget)
    else:
        assert malcev == built and built.gate_count <= cap


def test_quotient_algebra_is_homomorphic_image():
    z6 = get_fixture("Z6").algebra
    part = Partition.from_blocks(6, [[0, 2, 4], [1, 3, 5]])
    quo, mapping = quotient_algebra(z6, part)
    assert quo.size == 2
    for a in range(6):
        for b in range(6):
            assert (
                quo.eval_op("+", (mapping[a], mapping[b]))
                == mapping[z6.eval_op("+", (a, b))]
            )

"""Registry self-tests, alias folding, and the URI resolvers."""

from __future__ import annotations

import itertools

import pytest

from nudfa.algebra import verify_malcev
from nudfa.congruence import all_congruences, structure
from nudfa.fixtures import (
    demo_names,
    demo_program,
    fixture_names,
    get_fixture,
    resolve_algebra,
)
from nudfa.programs import truth_table


def test_registry_contents():
    assert fixture_names() == ["LAT2", "S3", "Z2", "Z3", "Z4", "Z6", "Z6%2"]
    assert demo_names() == ["and2_z6", "and2_z6%2", "or2_lat2", "parity2_z2"]


@pytest.mark.parametrize("name", ["LAT2", "S3", "Z2", "Z3", "Z4", "Z6", "Z6%2"])
def test_recorded_invariants_hold(name):
    fx = get_fixture(name)
    assert fx.name == name
    assert fx.description
    assert len(all_congruences(fx.algebra).elements) == fx.congruence_count
    malcev = structure(fx.algebra).malcev
    if malcev is not None:
        assert verify_malcev(fx.algebra, malcev)


def test_only_the_lattice_lacks_a_difference_circuit():
    without = [
        n for n in fixture_names() if structure(get_fixture(n).algebra).malcev is None
    ]
    assert without == ["LAT2"]


def test_alias_folding():
    assert get_fixture("Z6mod2").name == "Z6%2"
    assert get_fixture("z6MOD2").name == "Z6%2"
    assert get_fixture("lat2").name == "LAT2"
    assert get_fixture(" s3 ").name == "S3"
    assert truth_table(demo_program("AND2_Z6MOD2")) == truth_table(
        demo_program("and2_z6%2")
    )


def test_unknown_names_raise_key_errors():
    with pytest.raises(KeyError):
        get_fixture("Z8")
    with pytest.raises(KeyError):
        demo_program("xor9")


def test_resolvers_understand_the_uri_scheme(tmp_path):
    alg = resolve_algebra("fixtures:Z6")
    assert alg.size == 6
    path = tmp_path / "alg.json"
    alg.dump(str(path))
    loaded = resolve_algebra(str(path))
    assert loaded.size == alg.size
    assert [op.name for op in loaded.ops] == [op.name for op in alg.ops]


def test_group_fixtures_really_are_groups():
    for name in ("Z2", "Z3", "Z4", "Z6", "S3"):
        alg = get_fixture(name).algebra
        op = alg.ops[0].name
        n = alg.size
        mul = lambda a, b: alg.eval_op(op, (a, b))
        for a, b, c in itertools.product(range(n), repeat=3):
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
        identities = [
            e for e in range(n)
            if all(mul(e, x) == x == mul(x, e) for x in range(n))
        ]
        assert len(identities) == 1
        e = identities[0]
        assert all(any(mul(x, y) == e for y in range(n)) for x in range(n))


def test_marked_fixture_adds_the_parity_retraction():
    alg = get_fixture("Z6%2").algebra
    assert [op.name for op in alg.ops] == ["+", "%2"]
    for x in range(6):
        assert alg.eval_op("%2", (x,)) == x % 2


def test_lattice_fixture_operations():
    alg = get_fixture("LAT2").algebra
    names = sorted(op.name for op in alg.ops)
    assert len(names) == 2
    meet, join = names[0], names[1]
    for x, y in itertools.product((0, 1), repeat=2):
        assert alg.eval_op(meet, (x, y)) in (0, 1)
        assert alg.eval_op(join, (x, y)) in (0, 1)
    # one operation is min, the other max
    tables = {
        op.name: tuple(
            alg.eval_op(op.name, (x, y))
            for x, y in itertools.product((0, 1), repeat=2)
        )
        for op in alg.ops
    }
    assert sorted(tables.values()) == [(0, 0, 0, 1), (0, 1, 1, 1)]


def test_symmetric_group_composition_convention():
    alg = get_fixture("S3").algebra
    perms = sorted(itertools.permutations(range(3)))
    for i, left in enumerate(perms):
        for j, right in enumerate(perms):
            composed = tuple(left[right[x]] for x in range(3))
            assert perms[alg.eval_op("*", (i, j))] == composed


def test_demo_programs_have_two_bits_and_verified_tables():
    expected = {
        "and2_z6": [False, False, False, True],
        "and2_z6%2": [False, False, False, True],
        "or2_lat2": [False, True, True, True],
        "parity2_z2": [False, True, True, False],
    }
    for name, table in expected.items():
        prog = demo_program(name)
        assert prog.n == 2
        assert truth_table(prog) == table

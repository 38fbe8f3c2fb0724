"""Rewriting passes: random circuits in, exact tables and valid shapes out."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conj_reference
import poly_reference
from conftest import scalar

from nudfa import lowering
from nudfa.fieldpoly import MultilinearPoly, mask_bits
from nudfa.limits import Budget, BudgetExceeded
from nudfa.lowering import (
    VERIFY_INPUT_BOUND,
    AtomPool,
    _conj_modsum_coset,
    _conj_modsum_mod2,
    _verify_tables,
    apply_func,
    conj_modsum,
    collapse_5to3,
    emit_modsum,
    finalize_boolean_sum,
    make_atom,
    modm_andd_to_sum,
    unmod,
)
from nudfa.modcircuit import (
    AND,
    MOD,
    SUMP,
    SUMPC,
    CCircuit,
    Gate,
    cc_truth_table,
    validate_shape,
)


def rand_subset(rng, m):
    return frozenset(x for x in range(m) if rng.random() < 0.45)


def rand_mod_gate(rng, lo, hi, layer, m):
    width = rng.randint(1, 3)
    wires = tuple(
        (rng.randrange(lo, hi), rng.randint(1, m)) for _ in range(width)
    )
    return Gate(MOD, layer, wires, m=m, accepting=rand_subset(rng, m))


def rand_mod_mod(rng, n, m, p):
    """MOD(m) layer feeding one MOD(p) output gate."""
    inner = rng.randint(1, 3)
    gates = [rand_mod_gate(rng, 0, n, 1, m) for _ in range(inner)]
    out_wires = tuple(
        (n + i, rng.randint(1, p)) for i in range(inner) if rng.random() < 0.8
    ) or ((n, 1),)
    gates.append(
        Gate(MOD, 2, out_wires, m=p, accepting=rand_subset(rng, p))
    )
    return CCircuit(n, tuple(gates), n + inner, f"MOD({m})∘MOD({p})")


def rand_mod_and(rng, n, m):
    """MOD(m) layer feeding one AND output gate."""
    inner = rng.randint(1, 3)
    gates = [rand_mod_gate(rng, 0, n, 1, m) for _ in range(inner)]
    out_wires = tuple((n + i, 1) for i in range(inner))
    gates.append(Gate(AND, 2, out_wires))
    return CCircuit(n, tuple(gates), n + inner, f"MOD({m})∘AND(*)")


def rand_five_layer(rng, n, m, p, nu):
    """AND∘MOD(m)∘MOD(p)∘AND∘SUMPC(p, nu) with random wiring throughout."""
    gates = []
    ands1 = rng.randint(1, 3)
    for _ in range(ands1):
        width = rng.randint(1, min(2, n))
        gates.append(
            Gate(AND, 1, tuple((rng.randrange(n), 1) for _ in range(width)))
        )
    mods = rng.randint(1, 3)
    for _ in range(mods):
        gates.append(rand_mod_gate(rng, n, n + ands1, 2, m))
    ps = rng.randint(1, 3)
    base = n + ands1
    for _ in range(ps):
        gates.append(rand_mod_gate(rng, base, base + mods, 3, p))
    ands2 = rng.randint(1, 2)
    base = n + ands1 + mods
    for _ in range(ands2):
        width = rng.randint(1, 2)
        gates.append(
            Gate(
                AND, 4,
                tuple((rng.randrange(base, base + ps), 1) for _ in range(width)),
            )
        )
    base = n + ands1 + mods + ps
    wires = tuple((base + i, 1) for i in range(ands2))
    coeffs = tuple(
        tuple(rng.randrange(p) for _ in range(nu)) for _ in wires
    )
    gates.append(
        Gate(
            SUMPC, 5, wires, p=p, nu=nu, coeffs=coeffs,
            offset=tuple(rng.randrange(p) for _ in range(nu)),
            target=tuple(rng.randrange(p) for _ in range(nu)),
        )
    )
    return CCircuit(
        n, tuple(gates), n + len(gates) - 1,
        f"AND(*)∘MOD({m})∘MOD({p})∘AND(*)∘SUMPC({p})",
    )


def assert_exact(after, before_table, report, pass_name):
    assert report.pass_name == pass_name
    assert report.verified is True
    ok, problems = validate_shape(after)
    assert ok, problems
    assert [scalar(v) for v in cc_truth_table(after)] == [
        scalar(v) for v in before_table
    ]


def test_mod_and_collapses_to_mod_sum():
    rng = random.Random(2)
    for _ in range(6):
        m, p = rng.choice([(2, 3), (3, 2), (6, 5)])
        circ = rand_mod_and(rng, rng.randint(2, 4), m)
        lowered, report = modm_andd_to_sum(circ, p)
        assert_exact(lowered, cc_truth_table(circ), report, "modm_andd_to_sum")


def test_unmod_removes_the_outer_mod_gate():
    rng = random.Random(3)
    for _ in range(6):
        m, p = rng.choice([(2, 3), (3, 2), (6, 5)])
        circ = rand_mod_mod(rng, rng.randint(2, 4), m, p)
        lowered, report = unmod(circ)
        assert_exact(lowered, cc_truth_table(circ), report, "unmod")


def test_finalize_turns_a_boolean_sum_into_a_mod_gate():
    rng = random.Random(4)
    for _ in range(4):
        m, p = rng.choice([(2, 3), (3, 2)])
        circ = rand_mod_mod(rng, 3, m, p)
        lowered, _ = unmod(circ)
        closed = finalize_boolean_sum(lowered)
        assert closed.gates[-1].kind == MOD
        assert cc_truth_table(closed) == cc_truth_table(circ)
        ok, problems = validate_shape(closed, f"MOD({m})∘MOD({p})")
        assert ok, problems


def test_finalize_rejects_non_sum_outputs():
    rng = random.Random(5)
    circ = rand_mod_mod(rng, 3, 2, 3)
    with pytest.raises(ValueError):
        finalize_boolean_sum(circ)


def test_apply_func_composes_boolean_functions():
    rng = random.Random(6)
    for _ in range(5):
        m, p = rng.choice([(2, 3), (3, 2)])
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        fs = []
        for _ in range(k):
            circ = rand_mod_mod(rng, n, m, p)
            fs.append(finalize_boolean_sum(unmod(circ)[0]))
        g_table = [rng.randrange(2) for _ in range(1 << k)]
        combined, report = apply_func(g_table, fs)
        assert report.pass_name.startswith("apply_func")
        assert report.verified is True
        tables = [cc_truth_table(f) for f in fs]
        want = [
            g_table[sum(tables[j][w] << j for j in range(k))]
            for w in range(1 << n)
        ]
        assert [scalar(v) for v in cc_truth_table(combined)] == want
        ok, problems = validate_shape(combined)
        assert ok, problems


def test_five_layer_collapse_to_three():
    rng = random.Random(7)
    for _ in range(5):
        m, p = rng.choice([(2, 3), (3, 2)])
        nu = rng.choice([1, 2])
        circ = rand_five_layer(rng, rng.randint(2, 4), m, p, nu)
        lowered, report = collapse_5to3(circ, None)
        assert_exact(lowered, cc_truth_table(circ), report, "collapse_5to3")
        assert lowered.declared_shape.count("∘") == 2


def atom_value(atom, word):
    """An atom's indicator on the word whose bit i is (word >> i) & 1."""
    total = sum(c for key, c in atom.coeffs if word & key == key)
    return int(total % atom.m in atom.accepting)


def sum_table(pool, modsum, n):
    """A sum over pool ids on every word of n bits, term by term."""
    return [
        sum(
            c * math.prod(atom_value(pool.atoms[i], word) for i in mask_bits(key))
            for key, c in modsum.terms.items()
        ) % modsum.p
        for word in range(1 << n)
    ]


def test_the_two_conjunction_routes_agree_on_every_word():
    """For m = 2 and odd p, a conjunction of atoms has two routes: the
    Gray-code expansion and the coset normal form.  Both give the
    conjunction on every word, but mostly through different atoms, so
    dropping either route would change the circuits it emits."""
    rng = random.Random(12)
    differ = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        p = rng.choice((3, 5, 7))
        atoms = []
        for _ in range(rng.randint(1, 4)):
            form = {
                sum(1 << i for i in rng.sample(range(n), rng.randint(1, min(2, n)))): 1
                for _ in range(rng.randint(1, 3))
            }
            atom = make_atom(2, form, rand_subset(rng, 2))
            if atom is not None and atom not in atoms:
                atoms.append(atom)
        if not atoms:
            continue
        want = [
            int(all(atom_value(a, word) for a in atoms)) for word in range(1 << n)
        ]
        forms = []
        for route in (_conj_modsum_mod2, _conj_modsum_coset):
            pool = AtomPool()
            for atom in atoms:
                pool.get(atom)
            modsum = route(pool, atoms, p)
            assert modsum.degree() <= 1
            assert sum_table(pool, modsum, n) == want
            forms.append({
                tuple(pool.atoms[i] for i in mask_bits(key)): c
                for key, c in modsum.terms.items()
            })
        differ += forms[0] != forms[1]
    assert differ > 0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sets(st.frozensets(st.integers(0, 5), min_size=1, max_size=3),
                    min_size=1, max_size=4),
            st.sampled_from([frozenset(), frozenset({0}), frozenset({1}),
                             frozenset({0, 1})]),
        ),
        max_size=6,
    ),
    st.sampled_from([3, 5, 7]),
)
def test_the_mod2_conjunction_matches_the_frozenset_walk(specs, p):
    """Int masks over numbered monomials give the terms, in the same order,
    and pool the same atoms in the same order as the frozenset walk."""
    atoms = [
        make_atom(2, poly_reference.as_masks(dict.fromkeys(keys, 1)), acc)
        for keys, acc in specs
    ]
    pools = [AtomPool(), AtomPool()]
    for pool in pools:
        for atom in atoms[::2]:  # some atoms pooled before the call
            pool.get(atom)
    got = _conj_modsum_mod2(pools[0], atoms, p)
    want = conj_reference.conj_modsum_mod2(pools[1], atoms, p)
    assert list(got.terms.items()) == list(want.terms.items())
    assert pools[0].atoms == pools[1].atoms


def test_passes_reject_mismatched_shapes():
    rng = random.Random(8)
    and_circ = CCircuit(
        2, (Gate(AND, 1, ((0, 1), (1, 1))),), 2, "AND(*)"
    )
    with pytest.raises(ValueError):
        unmod(and_circ)
    with pytest.raises(ValueError):
        modm_andd_to_sum(and_circ, 3)
    with pytest.raises(ValueError):
        collapse_5to3(and_circ)
    with pytest.raises(ValueError, match="degree 2"):
        emit_modsum(2, 3, 2, AtomPool(), MultilinearPoly(2, {0b11: 1}),
                    and_layer=False)


def test_an_emptied_mod_layer_keeps_its_declared_modulus(monkeypatch):
    """c's one inner gate, 3 x_0 = 0 (mod 3), is constant, so the lowering
    empties c's MOD(3) layer.  Its m then comes from the declared shape, not
    from the ingestion memo, and a wildcard there is refused."""

    def mod3_mod5(wires, accepting):
        gates = (
            Gate(MOD, 1, wires, m=3, accepting=frozenset(accepting)),
            Gate(MOD, 2, ((2, 1),), m=5, accepting=frozenset({1})),
        )
        circ = CCircuit(2, gates, 3, "MOD(3)∘MOD(5)")
        return finalize_boolean_sum(unmod(circ)[0])

    a = mod3_mod5(((0, 1), (1, 1)), {1})
    c = mod3_mod5(((0, 3),), {0})
    assert [g.layer for g in c.gates] == [2]
    monkeypatch.setattr(lowering, "_INGEST_CACHE", {})
    combined, report = apply_func([0, 0, 0, 1], [a, c])
    assert report.verified is True
    assert [scalar(v) for v in cc_truth_table(combined)] == [0, 1, 1, 0]
    with pytest.raises(ValueError, match="modulus is not declared"):
        apply_func([0, 0, 0, 1], [a, replace(c, declared_shape="MOD(*)∘MOD(5)")])


def test_unmod_rejects_shared_primes():
    # inner and outer moduli must be coprime
    gates = (
        Gate(MOD, 1, ((0, 1),), m=2, accepting=frozenset({1})),
        Gate(MOD, 2, ((1, 1),), m=2, accepting=frozenset({1})),
    )
    circ = CCircuit(1, gates, 2, "MOD(2)∘MOD(2)")
    with pytest.raises(ValueError):
        unmod(circ)


def test_reports_track_sizes():
    rng = random.Random(9)
    circ = rand_mod_mod(rng, 3, 2, 3)
    lowered, report = unmod(circ)
    assert report.input_size == circ.size
    assert report.output_size == lowered.size
    assert report.input_shape == "MOD(2)∘MOD(3)"


def test_verification_compares_every_coordinate_and_stays_lazy():
    """An AND∘SUMP circuit of (x0 + 2 x1, x0 + x1 + x0 x1) mod 3, the
    table (r % 3, r * r % 3) of the word r."""
    table = [(r % 3, r * r % 3) for r in range(4)]
    ands = tuple(Gate(AND, 1, tuple((i, 1) for i in mask_bits(k))) for k in (1, 2, 3))
    sump = Gate(SUMP, 2, ((2, 1), (3, 1), (4, 1)), p=3, nu=2,
                coeffs=((1, 1), (2, 1), (0, 1)), offset=(0, 0))
    circuit = CCircuit(2, ands + (sump,), 5, "AND(2)∘SUMP(3)")
    assert _verify_tables(circuit, lambda: table, 2) is True
    wrong = np.array(table)
    wrong[2, 1] = (wrong[2, 1] + 1) % 3
    with pytest.raises(AssertionError, match=r"disagrees at \[0, 1\]"):
        _verify_tables(circuit, lambda: wrong, 2)
    too_wide = VERIFY_INPUT_BOUND + 1
    assert _verify_tables(circuit, lambda: 1 // 0, too_wide) is None


def conj_profile():
    """Two atoms mod 3, x0 and x1 each accepting {1, 2}: over p = 5 their
    conjunction table charges 9 and its coset form 11."""
    pool = AtomPool()
    ids = [pool.get(make_atom(3, {1 << i: 1}, {1, 2})) for i in (0, 1)]
    return pool, ids


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_the_conjunction_charges_its_coset_form_to_the_callers_budget(warm):
    """A cap of 10 admits the table but not the form, whether or not a
    form of the same profile was built under the default budget before."""
    pool, ids = conj_profile()
    lowering._conj_normal_form.cache_clear()
    if warm:
        assert conj_modsum(pool, ids, 5).degree() == 1
    with pytest.raises(BudgetExceeded, match="coset indicator form: 11 exceeds cap 10"):
        conj_modsum(pool, ids, 5, Budget(monomials=10))
    assert conj_modsum(pool, ids, 5, Budget(monomials=11)).degree() == 1

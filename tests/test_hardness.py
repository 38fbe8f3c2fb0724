"""Gadget constructions: lattice programs, interpolation, two-prime search."""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import product

import pytest
from conftest import z5_z2_z3

from nudfa import algebra, hardness
from nudfa.algebra import FiniteAlgebra
from nudfa.circuits import eval_circuit
from nudfa.compile import HypothesisViolation, compile_nilpotent
from nudfa.congruence import Structure, structure
from nudfa.fieldpoly import Cnf3, parse_dimacs
from nudfa.fixtures import demo_program, get_fixture
from nudfa.hardness import (
    GadgetSearchError,
    beta_interpolate,
    build_two_prime_program,
    cnf_to_lattice_program,
    complete_interpolation_config,
    find_two_prime_witness,
)
from nudfa.limits import Budget, BudgetExceeded


def random_cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        clauses.append(
            tuple(
                rng.choice([-1, 1]) * rng.randint(1, num_vars)
                for _ in range(3)
            )
        )
    return Cnf3(num_vars, tuple(clauses))


# -- formulas as lattice programs --------------------------------------------


def test_lattice_program_accepts_exactly_the_satisfying_words():
    rng = random.Random(42)
    for _ in range(6):
        n = rng.randint(2, 5)
        cnf = random_cnf(rng, n, rng.randint(1, 6))
        prog = cnf_to_lattice_program(cnf)
        assert prog.n == n
        assert prog.circuit.k == 2 * n
        assert prog.algebra.size == 2
        for word in product((0, 1), repeat=n):
            assert prog.accepts(word) == cnf.satisfied(word)


def test_empty_formula_is_always_satisfied():
    prog = cnf_to_lattice_program(Cnf3(2, ()))
    assert all(prog.accepts(w) for w in product((0, 1), repeat=2))


def test_dimacs_formula_round_trips_through_the_gadget():
    cnf = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    prog = cnf_to_lattice_program(cnf)
    for word in product((0, 1), repeat=3):
        assert prog.accepts(word) == cnf.satisfied(word)


# -- interpolation across a three-congruence chain ---------------------------


def marked_interpolation(algebra, in_pair=(0, 1), base=0, mark=2):
    """Z6%2's interpolation data on its one chain 0 < (mod 2) < 1, by
    default with the input pair (0, 1), base 0 and mark 2, as
    ``find_two_prime_witness`` asks for a side's data."""
    lat = structure(algebra).lattice
    (mod2,) = lat.subcovers_of(lat.one)
    return complete_interpolation_config(
        algebra, lat.zero, mod2, lat.one, in_pair=in_pair, base=base, mark=mark
    )


@pytest.fixture(scope="module")
def marked_config():
    fx = get_fixture("Z6%2")
    return fx, marked_interpolation(fx.algebra)


def test_marked_algebra_interpolation_config_values(marked_config):
    _, cfg = marked_config
    assert (cfg.in_zero, cfg.in_one) == (0, 1)
    assert (cfg.base, cfg.mark) == (0, 2)
    assert (cfg.in_char, cfg.out_char) == (2, 3)
    assert sorted(cfg.in_min.universe) == [0, 1]
    assert sorted(cfg.out_min.universe) == [0, 2, 4]
    assert cfg.cycle == (0, 1)
    assert cfg.g_fn == (0, 1, 0, 1, 0, 1)
    assert cfg.b_fn == (2, 0, 2, 0, 2, 0)
    assert cfg.fix_fn == (0, 0, 2, 2, 4, 4)


@pytest.mark.parametrize("s", [1, 2])
def test_every_two_letter_pattern_interpolates(marked_config, s):
    fx, cfg = marked_config
    letters = (cfg.base, cfg.mark)
    for pattern in product(letters, repeat=1 << s):
        circ = beta_interpolate(cfg, pattern)
        assert circ.k == s
        for bits in product(range(2), repeat=s):
            point = tuple(cfg.in_one if b else cfg.in_zero for b in bits)
            got = eval_circuit(fx.algebra, circ, point)
            idx = 0
            for b in bits:  # first input most significant
                idx = idx * 2 + b
            assert cfg.lower.same(got, pattern[idx])


def test_repeated_interpolations_run_the_witness_closure_once(
    marked_config, monkeypatch
):
    """The circuits of the configuration's five unary polynomials are asked
    for in one query, kept on its Structure, and not asked for again: eight
    interpolations on a fresh Structure run the witness closure, the kernel
    run over unary tables that records witness nodes, once, and build what
    they build on the shared one."""
    _, cfg = marked_config
    fresh = replace(cfg, structure=Structure(cfg.algebra, cfg.structure.budget))
    closures, closure = [], algebra._closure

    def witnessing(*a, **k):
        if k.get("nodes") is not None and a[3] == "unary clone":
            closures.append(a)
        return closure(*a, **k)

    monkeypatch.setattr(algebra, "_closure", witnessing)
    patterns = list(product((cfg.base, cfg.mark), repeat=4))[::2]
    got = [beta_interpolate(fresh, pattern) for pattern in patterns]
    assert len(closures) == 1
    assert got == [beta_interpolate(cfg, pattern) for pattern in patterns]


def test_interpolation_rejects_malformed_tables(marked_config):
    _, cfg = marked_config
    with pytest.raises(ValueError):
        beta_interpolate(cfg, [cfg.base, cfg.mark, cfg.base])
    with pytest.raises(ValueError):
        beta_interpolate(cfg, [cfg.base, 5])


def test_two_prime_program_replays_the_formula_up_to_ten_variables(marked_config):
    """Z6%2's one configuration taken as both sides is no two-prime witness:
    the two sides share their minimal set and their prime.  The program is
    still built, and the replay against the formula refuses it; above ten
    variables the replay is skipped and the program is returned."""
    fx, cfg = marked_config
    clauses = ((1, -2, 3), (-1, 2, -3))
    with pytest.raises(
        AssertionError,
        match=r"^two-prime program disagrees with the formula at \(0, 1, 0\)$",
    ):
        build_two_prime_program(fx.algebra, (cfg, cfg), Cnf3(3, clauses))
    prog = build_two_prime_program(fx.algebra, (cfg, cfg), Cnf3(11, clauses))
    assert (prog.n, prog.size, prog.accepting) == (11, 548, frozenset({cfg.base}))


@pytest.mark.parametrize(
    "in_pair, base, mark, stage",
    [((0, 2), 0, 2, "input-pair"), ((0, 1), 0, 1, "mark"), ((0, 1), 0, 0, "mark")],
)
def test_given_letters_off_the_chain_are_refused(in_pair, base, mark, stage):
    """On Z6%2's chain, 0 and 2 lie in one class of (mod 2), so they are no
    input pair; the trace through 0 is {0, 2, 4}, so 1 is no mark, and
    neither is the base itself."""
    with pytest.raises(GadgetSearchError) as info:
        marked_interpolation(get_fixture("Z6%2").algebra, in_pair, base, mark)
    assert info.value.stage == stage


def test_lattice_fixture_has_no_interpolation_data():
    lat2 = get_fixture("LAT2").algebra
    lat = structure(lat2).lattice
    with pytest.raises(GadgetSearchError) as info:
        complete_interpolation_config(
            lat2, lat.zero, lat.zero, lat.one, in_pair=(0, 1), base=0, mark=1
        )
    assert info.value.stage == "malcev"


def test_gadget_search_error_carries_stage_and_detail():
    err = GadgetSearchError("orbit", "no cycle found")
    assert err.stage == "orbit"
    assert err.detail == "no cycle found"
    assert "orbit" in str(err)


# -- two-prime witness search ------------------------------------------------


def test_no_small_fixture_admits_a_two_prime_witness():
    expected_stage = {
        "Z2": "supernilpotent-rank",
        "Z3": "supernilpotent-rank",
        "Z4": "supernilpotent-rank",
        "Z6": "supernilpotent-rank",
        "Z6%2": "two-primes-below",
        "LAT2": "nilpotent",
        "S3": "nilpotent",
    }
    for name, stage in expected_stage.items():
        fx = get_fixture(name)
        with pytest.raises(GadgetSearchError) as info:
            find_two_prime_witness(fx.algebra)
        assert info.value.stage == stage, (name, info.value)


def test_witness_failure_details_explain_the_refusal():
    with pytest.raises(GadgetSearchError) as res:
        find_two_prime_witness(get_fixture("Z6").algebra)
    assert "sr=1" in res.value.detail and "rank exactly 2" in res.value.detail
    with pytest.raises(GadgetSearchError) as resm:
        find_two_prime_witness(get_fixture("Z6%2").algebra)
    assert "characteristic set [3]" in resm.value.detail
    assert "two distinct primes" in resm.value.detail


def test_the_thirty_element_algebra_passes_every_lattice_stage(monkeypatch):
    """Z5 x Z2 x Z3 with g passes every stage of the search through
    "input-pair" on both sides.  The first minimal set it then asks for, on
    side 0's floor (10 blocks) and peak subcover (5 blocks) through element
    0, needs more of the unary clone than the budget allows."""
    calls = []
    through = hardness.minimal_set_through

    def spy(s, lo, hi, e):
        calls.append((lo.num_blocks(), hi.num_blocks(), e))
        return through(s, lo, hi, e)

    monkeypatch.setattr(hardness, "minimal_set_through", spy)
    budget = Budget(lattice_universe=30, clone_functions=2000)
    with pytest.raises(BudgetExceeded, match="^unary clone: 2001 exceeds cap 2000$"):
        find_two_prime_witness(z5_z2_z3(), budget)
    assert calls == [(10, 5, 0)]


def test_results_name_the_callers_algebra():
    """A renamed copy of a fixture shares the fixture's structure, made
    first, but every result and refusal names the copy."""
    lat2, marked = get_fixture("LAT2"), get_fixture("Z6%2")
    for fx in (lat2, marked):
        structure(fx.algebra).lattice
    lat2_copy = FiniteAlgebra("copy", 2, lat2.algebra.ops)
    marked_copy = FiniteAlgebra("marked copy", 6, marked.algebra.ops)
    assert structure(lat2_copy) is structure(lat2.algebra)
    with pytest.raises(GadgetSearchError) as info:
        find_two_prime_witness(lat2_copy)
    assert info.value.detail == "copy is not nilpotent"
    prog = demo_program("or2_lat2")
    with pytest.raises(HypothesisViolation, match="^copy is not nilpotent$"):
        compile_nilpotent(replace(prog, algebra=lat2_copy))
    cfg = marked_interpolation(marked_copy)
    assert cfg.algebra is marked_copy
    assert cfg.structure is structure(marked.algebra)

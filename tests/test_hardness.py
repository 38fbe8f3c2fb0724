"""Gadget constructions: lattice programs, interpolation, two-prime search."""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import product

import pytest

from nudfa.algebra import FiniteAlgebra
from nudfa.circuits import eval_circuit
from nudfa.compile import HypothesisViolation, compile_nilpotent
from nudfa.congruence import structure
from nudfa.fieldpoly import Cnf3, parse_dimacs
from nudfa.fixtures import demo_program, get_fixture
from nudfa.hardness import (
    GadgetSearchError,
    WitnessFailure,
    beta_interpolate,
    cnf_to_lattice_program,
    find_interpolation_configs,
    find_two_prime_witness,
)


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


@pytest.fixture(scope="module")
def marked_config():
    fx = get_fixture("Z6%2")
    configs, notes = find_interpolation_configs(fx.algebra)
    assert notes == ["chain 2 < 1 < 0: validated"]
    assert len(configs) == 1
    return fx, configs[0]


def test_marked_algebra_interpolation_config_values(marked_config):
    _, cfg = marked_config
    assert (cfg.in_zero, cfg.in_one) == (0, 1)
    assert (cfg.base, cfg.mark) == (0, 2)
    assert (cfg.in_char, cfg.out_char) == (2, 3)
    assert sorted(cfg.in_min.universe) == [0, 1]
    assert sorted(cfg.out_min.universe) == [0, 2, 4]
    assert cfg.cycle == (0, 1)
    assert cfg.anchor == 2
    assert cfg.g_fn.values == (0, 1, 0, 1, 0, 1)
    assert cfg.h_fn.values == (0, 2, 0, 2, 0, 2)
    assert cfg.b_fn.values == (2, 0, 2, 0, 2, 0)
    assert cfg.fix_fn.values == (0, 0, 2, 2, 4, 4)
    assert cfg.h_adjusted is False


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


def test_interpolation_rejects_malformed_tables(marked_config):
    _, cfg = marked_config
    with pytest.raises(ValueError):
        beta_interpolate(cfg, [cfg.base, cfg.mark, cfg.base])
    with pytest.raises(ValueError):
        beta_interpolate(cfg, [cfg.base, 5])


def test_lattice_fixture_has_no_interpolation_chains():
    lat2 = get_fixture("LAT2").algebra
    configs, notes = find_interpolation_configs(lat2)
    assert configs == []
    assert any("permutability" in n for n in notes)


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
        result = find_two_prime_witness(fx.algebra)
        assert isinstance(result, WitnessFailure), name
        assert result.stage == stage, (name, result)


def test_witness_failure_details_explain_the_refusal():
    fx = get_fixture("Z6")
    res = find_two_prime_witness(fx.algebra)
    assert "sr=1" in res.detail and "rank exactly 2" in res.detail
    fxm = get_fixture("Z6%2")
    resm = find_two_prime_witness(fxm.algebra)
    assert "characteristic set [3]" in resm.detail
    assert "two distinct primes" in resm.detail


def test_results_name_the_callers_algebra():
    """A renamed copy of a fixture shares the fixture's structure, made
    first, but every result and refusal names the copy."""
    lat2, marked = get_fixture("LAT2"), get_fixture("Z6%2")
    for fx in (lat2, marked):
        structure(fx.algebra).lattice
    lat2_copy = FiniteAlgebra("copy", 2, lat2.algebra.ops)
    marked_copy = FiniteAlgebra("marked copy", 6, marked.algebra.ops)
    assert structure(lat2_copy) is structure(lat2.algebra)
    assert find_two_prime_witness(lat2_copy).detail == "copy is not nilpotent"
    prog = demo_program("or2_lat2")
    with pytest.raises(HypothesisViolation, match="^copy is not nilpotent$"):
        compile_nilpotent(replace(prog, algebra=lat2_copy))
    (cfg,), _ = find_interpolation_configs(marked_copy)
    assert cfg.algebra is marked_copy
    assert cfg.structure is structure(marked.algebra)

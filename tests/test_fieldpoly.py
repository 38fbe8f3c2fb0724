"""Finite-field polynomial toolkit: interpolation, coset sums, CNF algebra."""

from __future__ import annotations

import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interpolate_reference as reference
from nudfa import fieldpoly
from nudfa.fieldpoly import (
    Cnf3,
    MultilinearPoly,
    accumulate,
    clause_poly,
    coset_indicator_form,
    divisibility_coeffs,
    flat_index,
    multilinear_interpolate,
    parse_dimacs,
    pseudo_and,
)
from nudfa.limits import Budget

# One int64 working copy of a 2^20-row table is 8 MiB.
PEAK_INTERPOLATION_BYTES = 12 * 1024 * 1024


def all_words(n):
    return itertools.product((0, 1), repeat=n)


def value_at(poly, point):
    """The polynomial's value at one point, term by term."""
    terms = poly.terms.items()
    return sum(c * math.prod(point[i] for i in k) for k, c in terms) % poly.p


# -- multilinear polynomials -------------------------------------------------


def test_interpolation_matches_the_table_pointwise():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            table = [rng.randrange(p) for _ in range(1 << n)]
            poly = multilinear_interpolate(table, p)
            assert poly.degree() <= n
            for row in range(1 << n):
                point = [(row >> i) & 1 for i in range(n)]
                assert value_at(poly, point) == table[row] % p


def test_interpolation_of_named_tables():
    parity = multilinear_interpolate([0, 1, 1, 0], 2)
    assert parity.terms == {frozenset({0}): 1, frozenset({1}): 1}
    conj = multilinear_interpolate([0, 0, 0, 1], 3)
    assert conj.terms == {frozenset({0, 1}): 1}


def test_interpolation_rejects_non_power_of_two_tables():
    for size in (3, 6):
        for table in ([1] * size, np.ones(size, dtype=np.int64)):
            with pytest.raises(ValueError, match="power of two"):
                multilinear_interpolate(table, 2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 12),
    p=st.sampled_from((2, 3, 5, 7, 251)),
    kind=st.sampled_from(("list", "int64", "uint8")),
    density=st.sampled_from((0.0, 0.01, 0.5, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_interpolation_matches_the_reference_transform(n, p, kind, density, seed):
    """Same coefficients in the same term order as the per-row loop, for
    sparse and dense tables whose entries may be negative or at least p."""
    rng = np.random.default_rng(seed)
    lo, hi = (0, 256) if kind == "uint8" else (-300, 301)
    values = rng.integers(lo, hi, size=1 << n) * (rng.random(1 << n) < density)
    table = {
        "list": values.tolist(),
        "int64": values.astype(np.int64),
        "uint8": values.astype(np.uint8),
    }[kind]
    poly = multilinear_interpolate(table, p)
    expected = reference.multilinear_interpolate(values.tolist(), p)
    assert poly.p == p
    assert list(poly.terms.items()) == list(expected.terms.items())
    assert all(type(c) is int for c in poly.terms.values())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 10),
    k=st.integers(1, 4),
    p=st.sampled_from((2, 3, 5)),
    onehot=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_transform_interpolates_every_column(n, k, p, onehot, seed):
    """A 2-D table, integer or the boolean class indicators the compiler
    transforms, gives each column's polynomial: the reference's
    coefficients in the reference's term order."""
    rng = np.random.default_rng(seed)
    if onehot:
        table = rng.integers(0, k + 1, size=(1 << n, 1)) == np.arange(k)
    else:
        table = rng.integers(-300, 301, size=(1 << n, k))
    coeffs = fieldpoly.moebius_transform(table, p)
    assert coeffs.shape == table.shape
    for c in range(k):
        poly = fieldpoly.coefficient_poly(coeffs[:, c], p)
        expected = reference.multilinear_interpolate(table[:, c].tolist(), p)
        assert list(poly.terms.items()) == list(expected.terms.items())


def test_interpolation_memory_stays_bounded():
    """The conjunction of 20 bits takes one working copy of its table, not
    a (2^n x n) bit matrix."""
    n = Budget().truth_table_bits
    table = np.zeros(1 << n, dtype=np.int64)
    table[-1] = 1
    tracemalloc.start()
    try:
        poly = multilinear_interpolate(table, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poly.terms == {frozenset(range(n)): 1}
    assert peak < PEAK_INTERPOLATION_BYTES, peak


def test_ring_operations_agree_with_pointwise_arithmetic():
    rng = random.Random(5)
    p, n = 5, 3
    for _ in range(10):
        f = multilinear_interpolate([rng.randrange(p) for _ in range(8)], p)
        g = multilinear_interpolate([rng.randrange(p) for _ in range(8)], p)
        c = rng.randrange(p)
        for point in all_words(n):
            fv, gv = value_at(f, point), value_at(g, point)
            assert value_at(f.add(g), point) == (fv + gv) % p
            assert value_at(f.sub(g), point) == (fv - gv) % p
            assert value_at(f.scale(c), point) == c * fv % p
            assert value_at(f.mul(g), point) == fv * gv % p
            assert value_at(f.power(3), point) == pow(fv, 3, p)


def test_substitution_composes_polynomials():
    p = 3
    f = MultilinearPoly.affine(p, {0: 1, 1: 1})  # x0 + x1
    g = MultilinearPoly.variable(p, 2)
    h = f.substitute({0: g})
    for point in all_words(3):
        assert value_at(h, point) == (point[2] + point[1]) % p


# -- coset indicator sums ----------------------------------------------------


def test_flat_index_is_big_endian():
    assert flat_index((1, 2), 3) == 5
    assert flat_index((2, 1, 0), 6) == 78
    assert flat_index((), 4) == 0


def coset_value(form, xs, m, p):
    """A coset-indicator form's value at one point, term by term."""
    return sum(
        mu
        for (beta, u), mu in form.items()
        if (sum(b * x for b, x in zip(beta, xs)) + u) % m == 0
    ) % p


@pytest.mark.parametrize("m,p", [(2, 3), (3, 2), (6, 5)])
@pytest.mark.parametrize("s", [1, 2])
def test_coset_form_reproduces_random_functions(m, p, s):
    rng = random.Random(100 * m + p + s)
    for _ in range(5):
        table = [rng.randrange(p) for _ in range(m**s)]
        form = coset_indicator_form(table, m, s, p)
        for (beta, u), mu in form.items():
            assert len(beta) == s and all(0 <= b < m for b in beta)
            assert 0 <= u < m and 0 < mu < p
        for xs in itertools.product(range(m), repeat=s):
            assert coset_value(form, xs, m, p) == table[flat_index(xs, m)]


def test_a_wrong_coset_form_is_caught_at_its_first_point(monkeypatch):
    """The check over the whole grid still fires.  A zero indicator of
    Z_3^2 that also holds on the line y_0 == 0 turns the form of
    [x == (1, 2)] into [x == (1, 2)] + [x_0 == 1] over GF(2), wrong at the
    three points with x_0 == 1; the first of them in row-major order is
    (1, 0)."""
    real = fieldpoly._zero_indicator_terms

    def corrupted(q, k, p):
        terms = dict(real(q, k, p))
        accumulate(terms, ((1,) + (0,) * (k - 1), 0), 1, p)
        return terms

    table = [0] * 9
    table[flat_index((1, 2), 3)] = 1
    assert coset_value(coset_indicator_form(table, 3, 2, 2), (1, 2), 3, 2) == 1
    monkeypatch.setattr(fieldpoly, "_zero_indicator_terms", corrupted)
    with pytest.raises(AssertionError, match=re.escape("wrong at (1, 0)")):
        coset_indicator_form(table, 3, 2, 2)


def test_coset_form_rejects_bad_parameters():
    with pytest.raises(ValueError):
        coset_indicator_form([0, 1, 0, 1], 4, 1, 3)  # wrong table length
    with pytest.raises(ValueError):
        coset_indicator_form([0, 1], 2, 1, 4)  # composite p
    with pytest.raises(ValueError):
        coset_indicator_form([0, 1, 2], 3, 1, 3)  # shared prime


# -- divisibility polynomials ------------------------------------------------


@pytest.mark.parametrize("p,nu", [(2, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("ell", [4, 7])
def test_divisibility_polynomial_tracks_zero_counts(p, nu, ell):
    """The symmetric polynomial with coefficient a_k on every monomial of
    k variables takes sum_k a_k C(w, k) at a word of weight w."""
    bound = p**nu
    alphas = divisibility_coeffs(ell, p, nu)
    assert len(alphas) <= bound
    for point in all_words(ell):
        ones = sum(point)
        value = sum(a * math.comb(ones, k) for k, a in enumerate(alphas)) % p
        zeros = ell - ones
        assert value == (0 if zeros % bound == 0 else 1)


def test_divisibility_coeffs_reject_bad_parameters():
    with pytest.raises(ValueError):
        divisibility_coeffs(5, 4, 1)
    with pytest.raises(ValueError):
        divisibility_coeffs(5, 2, 0)


# -- CNF handling ------------------------------------------------------------


def test_cnf_validation_and_counting():
    cnf = Cnf3(3, ((1, -2, 3), (2, 2, 2)))
    assert cnf.satisfied([1, 1, 1])
    assert not cnf.satisfied([0, 0, 0])  # second clause forces x2
    assert cnf.unsat_count([0, 0, 0]) == 1
    with pytest.raises(ValueError):
        Cnf3(2, ((1, -3, 2),))
    with pytest.raises(ValueError):
        Cnf3(2, ((0, 1, 2),))


def test_parse_dimacs_pads_and_validates():
    text = """c tiny example
p cnf 3 2
1 -2 0
2 3 0
"""
    cnf = parse_dimacs(text)
    assert cnf.num_vars == 3
    assert len(cnf.clauses) == 2
    assert all(len(c) == 3 for c in cnf.clauses)
    assert set(cnf.clauses[0]) == {1, -2}
    assert set(cnf.clauses[1]) == {2, 3}
    # Four tokens, three distinct literals: the repeat goes, x3 stays.
    cnf = parse_dimacs("p cnf 3 1\n1 2 1 3 0\n")
    assert cnf.clauses == ((1, 2, 3),)
    assert cnf.satisfied((0, 0, 1))
    assert parse_dimacs("p cnf 2 1\n2 2 -1 0\n").clauses == ((2, 2, -1),)
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_clause_polynomial_is_the_satisfaction_indicator():
    rng = random.Random(9)
    for p in (2, 3):
        for _ in range(10):
            n = rng.randint(2, 4)
            clause = tuple(
                rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(3)
            )
            poly = clause_poly(p, clause)
            for point in all_words(n):
                want = 1 if Cnf3.clause_value(clause, point) else 0
                assert value_at(poly, point) == want


@pytest.mark.parametrize("p,nu", [(2, 1), (2, 2), (3, 1)])
def test_pseudo_and_vanishes_on_divisible_unsat_counts(p, nu):
    cnf = parse_dimacs(
        "p cnf 4 5\n1 2 3 0\n-1 2 4 0\n-2 -3 4 0\n1 -4 3 0\n-1 -2 -3 0\n"
    )
    bound = p**nu
    poly = pseudo_and(cnf, p, nu)
    assert poly.degree() <= 3 * (bound - 1)
    for point in all_words(cnf.num_vars):
        want_zero = cnf.unsat_count(point) % bound == 0
        assert (value_at(poly, point) == 0) == want_zero

"""Polynomials over GF(p) used by the circuit lowerings.

Three tools live here:

- ``MultilinearPoly``, the package's one GF(p) polynomial type over boolean
  variables, with interpolation from truth tables (every boolean function
  has a unique multilinear form).  Its variables are input bits or, in the
  lowering, pool ids of MOD(m) atoms, and a monomial is the int mask of its
  variables.  ``monomial_key`` is the one order in which monomials are
  listed, and ``accumulate`` adds into a sparse dict of coefficients;
- the coset-indicator normal form: any f: Z_m^s -> Z_p with gcd(m, p) = 1
  as a Z_p-combination of indicators [beta . x + u == 0 (mod m)], built by a
  recursion on the arity for each prime factor of m and glued by CRT;
- divisibility polynomials and the pseudo-AND of a 3-CNF: a multilinear
  polynomial over GF(p) of degree <= 3(p^nu - 1) that vanishes exactly when
  the number of unsatisfied clauses is divisible by p^nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .limits import Budget, charge, default_budget


def prime_divisors(m: int) -> list[int]:
    """The distinct primes dividing m, ascending; [] for m < 2.  m is prime
    exactly when this is [m]."""
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


def pdiv(size: int) -> int:
    """Product of the distinct primes dividing ``size``; ``size`` is
    squarefree exactly when this is ``size``."""
    return math.prod(prime_divisors(size))


def accumulate(acc: dict, key, c: int, mod: int) -> None:
    """Add c to ``acc[key]`` mod ``mod``, dropping the key when it reaches 0."""
    v = (acc.get(key, 0) + c) % mod
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


# ---------------------------------------------------------------------------
# Multilinear polynomials
# ---------------------------------------------------------------------------


def mask_bits(mask: int) -> list[int]:
    """The variables of a monomial mask, ascending: bit i is variable i."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def monomial_key(mask: int) -> tuple[int, list[int]]:
    """The order of monomials everywhere they are listed: by degree, then by
    their sorted variables."""
    return mask.bit_count(), mask_bits(mask)


class MultilinearPoly:
    """Multilinear polynomial over GF(p): dict from monomials to nonzero
    coefficients.  A monomial is an int mask whose bit i stands for
    variable i, so 0 is the constant term and ``k1 | k2`` the product of
    two monomials.  p is checked to be prime when a polynomial is built
    from outside; the ring operations build their results from terms
    already reduced mod that p."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: Optional[dict[int, int]] = None):
        if prime_divisors(p) != [p]:
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.terms: dict[int, int] = {
            key: coeff % p for key, coeff in (terms or {}).items() if coeff % p
        }

    @staticmethod
    def _of(p: int, terms: dict[int, int]) -> "MultilinearPoly":
        """A polynomial over the already checked prime p whose terms are
        reduced and nonzero."""
        res = MultilinearPoly.__new__(MultilinearPoly)
        res.p = p
        res.terms = terms
        return res

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(p: int, c: int) -> "MultilinearPoly":
        return MultilinearPoly(p, {0: c})

    @staticmethod
    def variable(p: int, i: int) -> "MultilinearPoly":
        return MultilinearPoly(p, {1 << i: 1})

    @staticmethod
    def affine(p: int, coeffs: dict, const: int = 0) -> "MultilinearPoly":
        terms = {1 << i: c for i, c in coeffs.items()}
        terms[0] = const
        return MultilinearPoly(p, terms)

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        return max((k.bit_count() for k in self.terms), default=0)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultilinearPoly") -> None:
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def add(self, other: "MultilinearPoly") -> "MultilinearPoly":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c, self.p)
        return MultilinearPoly._of(self.p, out)

    def scale(self, c: int) -> "MultilinearPoly":
        p = self.p
        c %= p
        if c == 0:
            return MultilinearPoly._of(p, {})
        return MultilinearPoly._of(p, {k: v * c % p for k, v in self.terms.items()})

    def sub(self, other: "MultilinearPoly") -> "MultilinearPoly":
        return self.add(other.scale(-1))

    def mul(
        self, other: "MultilinearPoly", budget: Optional[Budget] = None
    ) -> "MultilinearPoly":
        """Product with the multilinear reduction x*x = x: the product of
        two monomials is the union of their masks."""
        self._check(other)
        budget = budget or default_budget()
        p = self.p
        out: dict[int, int] = {}
        # ``accumulate`` inlined: this is the hot loop of ``collapse_5to3``
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 | k2
                v = (out.get(k, 0) + c1 * c2) % p
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
            charge(len(out), budget.monomials, "multilinear product")
        return MultilinearPoly._of(p, out)

    def power(self, e: int, budget: Optional[Budget] = None) -> "MultilinearPoly":
        res = MultilinearPoly.constant(self.p, 1)
        for _ in range(e):
            res = res.mul(self, budget)
        return res

    def substitute(
        self,
        mapping: dict[int, "MultilinearPoly"],
        budget: Optional[Budget] = None,
    ) -> "MultilinearPoly":
        """Replace each variable by a polynomial (multilinear composition;
        only sound when the substituted values are 0/1-valued)."""
        p = self.p
        res = MultilinearPoly._of(p, {})
        for k, c in self.terms.items():
            term = MultilinearPoly._of(p, {0: c})
            for v in mask_bits(k):
                term = term.mul(mapping.get(v, MultilinearPoly._of(p, {1 << v: 1})), budget)
            res = res.add(term)
        return res


def moebius_transform(table, p: int) -> np.ndarray:
    """Multilinear coefficients mod p of each column of a truth table.

    Axis 0 indexes the assignments over {0,1}^n, variable 0 least
    significant; a 2-D table holds one function per column, so one
    transform interpolates them all.  Entry S of the result is the
    coefficient of the monomial with variable mask S, in 0..p-1.

    The subset Moebius transform is linear, so it runs with one reduction
    at each end: the table is reduced mod p into a copy, then one vector
    step per variable (viewed as (-1, 2, 2^i), the half with bit i set
    loses the half without it) with no modulus, then one final mod p.
    After i steps an entry is a signed sum of 2^i reduced entries, so the
    copy is int32 whenever (p - 1) << n < 2^31, and int64 otherwise; the
    result keeps that narrow type.  A p too large for int64 is refused.
    """
    size = len(table)
    n = size.bit_length() - 1
    if size == 0 or 1 << n != size:
        raise ValueError("table length must be a power of two")
    if (p - 1) << n < 1 << 31:
        dtype = np.int32
    elif (p - 1) << n < 1 << 63:
        dtype = np.int64
    else:
        raise ValueError(f"p = {p} is too large for a table of {size} rows")
    # the reduction runs in int64 and casts block by block into the narrow
    # copy, so no int64 copy of the whole table is made
    t = np.remainder(table, p, dtype=np.int64, out=np.empty(np.shape(table), dtype),
                     casting="unsafe")
    for i in range(n):
        halves = t.reshape(-1, 2, 1 << i, *t.shape[1:])
        halves[:, 1] -= halves[:, 0]
    t %= p
    return t


def coefficient_poly(coeffs: np.ndarray, p: int) -> MultilinearPoly:
    """The polynomial of one column of ``moebius_transform``, its terms in
    ascending mask order."""
    masks = np.flatnonzero(coeffs)
    return MultilinearPoly(p, dict(zip(masks.tolist(), coeffs[masks].tolist())))


def multilinear_interpolate(table: Sequence[int], p: int) -> MultilinearPoly:
    """Unique multilinear polynomial matching a truth table over {0,1}^n
    (row index = assignment, variable 0 least significant), terms in
    ascending mask order."""
    return coefficient_poly(moebius_transform(table, p), p)


# ---------------------------------------------------------------------------
# Coset-indicator normal form over Z_m
# ---------------------------------------------------------------------------


def flat_index(xs: Sequence[int], m: int) -> int:
    idx = 0
    for x in xs:
        idx = idx * m + x
    return idx


def _zero_indicator_terms(q: int, k: int, p: int) -> dict:
    """Indicator of the zero tuple of Z_q^k as a combination of coset
    indicators, built by the arity-lowering recursion; q prime, q != p."""
    qinv = pow(q, -1, p)
    terms: dict[tuple[tuple[int, ...], int], int] = {((1,), 0): 1}
    for _ in range(2, k + 1):
        nxt: dict[tuple[tuple[int, ...], int], int] = {}
        for (beta, u), mu in terms.items():
            head, last = beta[:-1], beta[-1]
            for i in range(q):
                accumulate(nxt, (head + (last, (last * i) % q), u), mu * qinv, p)
            for i in range(1, q):
                accumulate(nxt, (head + (0, last), (u + last * i) % q), -mu * qinv, p)
        terms = nxt
    return terms


def coset_indicator_form(
    values: Sequence[int],
    m: int,
    s: int,
    p: int,
    budget: Optional[Budget] = None,
) -> dict[tuple[tuple[int, ...], int], int]:
    """Express f: Z_m^s -> Z_p (flat row-major table) in coset-indicator
    normal form; m squarefree and coprime to the prime p.

    Returns ``{(beta, u): mu}`` with f(x) = sum of mu * [beta . x + u == 0
    (mod m)]: each beta a tuple in Z_m^s, u in Z_m and mu a nonzero
    element of GF(p).

    First the zero-tuple indicator of Z_m^s is assembled: for each prime
    q | m the recursion gives the indicator of Z_q^s, which embeds into Z_m
    through multiplication by m/q, and the product over the primes collapses
    because an indicator product is the indicator of the CRT sum.  Shifting
    the zero indicator through every point and weighting by f recovers f.
    The result is checked at every point of Z_m^s before return.
    """
    budget = budget or default_budget()
    if prime_divisors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    if math.gcd(m, p) != 1:
        raise ValueError("m and p must be coprime")
    if len(values) != m**s:
        raise ValueError(f"table must have {m ** s} entries")

    if pdiv(m) != m:
        raise ValueError(f"{m} is not squarefree")
    zero_terms: dict[tuple[tuple[int, ...], int], int] = {((0,) * s, 0): 1}
    for q in prime_divisors(m):
        lift = m // q
        branch = {
            (tuple(b * lift % m for b in beta), u * lift % m): mu
            for (beta, u), mu in _zero_indicator_terms(q, s, p).items()
        }
        merged: dict[tuple[tuple[int, ...], int], int] = {}
        for (b1, u1), mu1 in zero_terms.items():
            for (b2, u2), mu2 in branch.items():
                key = (
                    tuple((x + y) % m for x, y in zip(b1, b2)),
                    (u1 + u2) % m,
                )
                accumulate(merged, key, mu1 * mu2, p)
            charge(len(merged), budget.monomials, "coset indicator product")
        zero_terms = merged

    # column idx of the grid is the point of row-major index idx
    grid = np.indices((m,) * s).reshape(s, m**s)
    out: dict[tuple[tuple[int, ...], int], int] = {}
    for point, fval in zip(grid.T.tolist(), values):
        fval %= p
        if not fval:
            continue
        for (beta, u), mu in zero_terms.items():
            shift = (u - sum(b * a for b, a in zip(beta, point))) % m
            accumulate(out, (beta, shift), fval * mu, p)
        charge(len(out), budget.monomials, "coset indicator form")

    # the form on the whole grid: the terms sharing a beta make one lookup
    # table over beta . x, in which [beta . x + u == 0] is entry -u
    tables: dict[tuple[int, ...], np.ndarray] = {}
    for (beta, u), mu in out.items():
        tables.setdefault(beta, np.zeros(m, dtype=np.int64))[-u % m] += mu
    got = np.zeros(m**s, dtype=np.int64)
    for beta, table in tables.items():
        got += table[np.asarray(beta, dtype=np.int64) @ grid % m]
    bad = np.flatnonzero((got - np.asarray(values, dtype=np.int64)) % p)
    if len(bad):
        point = tuple(grid[:, bad[0]].tolist())
        raise AssertionError(f"coset indicator form wrong at {point}")
    return out


# ---------------------------------------------------------------------------
# Divisibility polynomials and the CNF pseudo-AND
# ---------------------------------------------------------------------------


def divisibility_coeffs(ell: int, p: int, nu: int) -> list[int]:
    """Coefficients a_k (k = 0..p^nu - 1) of the symmetric multilinear
    polynomial over GF(p) in ell variables that vanishes exactly when the
    number of zero inputs is divisible by p^nu.

    Staged interpolation by support size: evaluating at an all-ones vector
    of weight k forces a_k once a_0..a_{k-1} are fixed.  Degree p^nu - 1
    suffices; the closing loop checks every weight 0..ell and raises if the
    truncation is wrong.
    """
    if prime_divisors(p) != [p] or nu < 1:
        raise ValueError("need a prime p and nu >= 1")
    bound = p**nu

    def goal(k: int) -> int:
        return 0 if (ell - k) % bound == 0 else 1

    alphas: list[int] = []
    for k in range(min(bound, ell + 1)):
        acc = 0
        for j in range(k):
            acc += math.comb(k, j) * alphas[j]
        alphas.append((goal(k) - acc) % p)
    for k in range(ell + 1):
        acc = 0
        for j in range(min(k, len(alphas) - 1) + 1):
            acc += math.comb(k, j) * alphas[j]
        if acc % p != goal(k):
            raise AssertionError(
                f"degree bound violated: weight {k} evaluates to {acc % p}, "
                f"expected {goal(k)}"
            )
    return alphas


@dataclass(frozen=True)
class Cnf3:
    """3-CNF over variables 1..num_vars; clauses hold exactly three DIMACS
    literals (repetition allowed, so shorter clauses are padded)."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"bad literal {lit}")

    def satisfied(self, assignment: Sequence[int]) -> bool:
        """assignment[i] is the value of variable i+1."""
        return all(self.clause_value(c, assignment) for c in self.clauses)

    def unsat_count(self, assignment: Sequence[int]) -> int:
        return sum(1 for c in self.clauses if not self.clause_value(c, assignment))

    @staticmethod
    def clause_value(clause: Sequence[int], assignment: Sequence[int]) -> bool:
        return any(
            (assignment[abs(l) - 1] == 1) == (l > 0) for l in clause
        )


def parse_dimacs(text: str) -> Cnf3:
    """DIMACS CNF reader; clauses wider than 3 distinct literals are refused
    (no clause splitting).  A clause of more than 3 literals keeps its
    distinct ones in order of first occurrence, and shorter clauses are
    padded by repeating the first literal."""
    num_vars = None
    clauses: list[tuple[int, int, int]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line {line!r}")
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if not pending:
                    raise ValueError("empty clause in DIMACS input")
                distinct = list(dict.fromkeys(pending))
                if len(distinct) > 3:
                    raise ValueError(
                        f"clause {pending} has {len(distinct)} distinct "
                        "literals; width more than 3 is not supported"
                    )
                clause = distinct if len(pending) > 3 else pending
                clauses.append(tuple(clause + clause[:1] * (3 - len(clause))))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ValueError("trailing clause without terminating 0")
    if num_vars is None:
        num_vars = max((abs(l) for c in clauses for l in c), default=0)
    return Cnf3(num_vars, tuple(clauses))


def clause_poly(p: int, clause: Sequence[int]) -> MultilinearPoly:
    """1 - (literal-is-false product): 1 iff the clause is satisfied.
    Variable i of the polynomial is DIMACS variable i+1."""
    prod = MultilinearPoly.constant(p, 1)
    for lit in clause:
        var = MultilinearPoly.variable(p, abs(lit) - 1)
        if lit > 0:
            hat = MultilinearPoly.constant(p, 1).sub(var)
        else:
            hat = var
        prod = prod.mul(hat)
    return MultilinearPoly.constant(p, 1).sub(prod)


def pseudo_and(
    cnf: Cnf3, p: int, nu: int, budget: Optional[Budget] = None
) -> MultilinearPoly:
    """Multilinear polynomial over GF(p) in the CNF's variables that is zero
    exactly when the number of unsatisfied clauses is divisible by p^nu.

    Substitutes the clause-satisfaction polynomials into the divisibility
    polynomial; degree is at most 3(p^nu - 1).
    """
    budget = budget or default_budget()
    ell = len(cnf.clauses)
    alphas = divisibility_coeffs(ell, p, nu)
    cpolys = [clause_poly(p, c) for c in cnf.clauses]
    total = MultilinearPoly(p)
    for k, a in enumerate(alphas):
        if a == 0:
            continue
        for combo in combinations(range(ell), k):
            term = MultilinearPoly.constant(p, a)
            for i in combo:
                term = term.mul(cpolys[i], budget)
            total = total.add(term)
    if total.degree() > 3 * (p**nu - 1):
        raise AssertionError("pseudo-AND degree bound violated")
    return total

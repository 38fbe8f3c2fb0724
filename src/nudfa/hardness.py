"""Reduction gadgets that turn CNF formulas into algebra programs.

Three constructions live here:

* ``cnf_to_lattice_program`` rewrites a 3-CNF as a monotone circuit program
  over the two-element lattice: each boolean variable feeds two program
  variables of opposite polarity, so the circuit itself needs no negation.

* ``beta_interpolate`` realises arbitrary two-letter patterns as algebra
  circuits, working modulo a congruence.  The setting is a chain of three
  congruences whose two covering steps have distinct prime characteristics:
  inputs range over a pair separated only by the top step, outputs over a
  pair separated only by the bottom step.  A ``BetaIntConfig`` carries the
  unary polynomials that make the construction go through (projection into
  a minimal set, the class indicator ``b`` and a permutability corrector);
  ``complete_interpolation_config`` finds them for a given input pair, base
  and mark, and validates every required condition.

* ``find_two_prime_witness`` returns one such configuration per prime, on
  an algebra whose congruence lattice exhibits two distinct primes below
  the co-supernilpotent congruence, and ``build_two_prime_program`` turns
  the pair into a program that accepts a bit string iff it satisfies a
  given 3-CNF.  Satisfiability is detected by a pair of divisibility
  polynomials over the two primes; a counting argument makes simultaneous
  vanishing equivalent to "zero unsatisfied clauses".

Every search raises ``GadgetSearchError`` naming the first fact it cannot
match.  All discovered artifacts are circuits with evaluation-verified
semantics: ``beta_interpolate`` checks its output exhaustively on the input
cube, and ``build_two_prime_program`` replays the full truth table against
direct formula evaluation whenever the variable count allows it.  Minimal
sets follow Hobby and McKenzie, *The Structure of Finite Algebras*, 1988.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import FiniteAlgebra, malcev_addition
from .circuits import (
    AlgCircuit,
    CircuitBuilder,
    constant_circuit,
    eval_columns,
)
from .congruence import (
    Structure,
    charr_set,
    is_nilpotent_congruence,
    structure,
    supernilpotent_rank,
)
from .fieldpoly import (
    Cnf3,
    coset_indicator_form,
    flat_index,
    mask_bits,
    monomial_key,
    pseudo_and,
)
from .fixtures import get_fixture
from .limits import Budget, BudgetExceeded, default_budget
from .localize import MinimalSet, minimal_set_through, minimal_sets
from .partitions import Partition
from .programs import AlgProgram, Instruction

MAX_INTERPOLATION_ARITY = 6


class GadgetSearchError(Exception):
    """A component search failed; ``stage`` names the first missing piece."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail


# ---------------------------------------------------------------------------
# CNF -> program over the two-element lattice
# ---------------------------------------------------------------------------


def cnf_to_lattice_program(cnf: Cnf3) -> AlgProgram:
    """Program over ({0,1}; and, or) accepting exactly the satisfying words.

    Boolean variable i drives two program variables: one bound (bit -> bit)
    and one bound with flipped polarity, so negative literals become plain
    variables and the circuit stays monotone.
    """
    lattice = get_fixture("LAT2").algebra
    n = cnf.num_vars
    b = CircuitBuilder(2 * n)

    def literal(lit: int) -> int:
        if lit > 0:
            return b.var(lit - 1)
        return b.var(n + (-lit) - 1)

    clause_nodes = []
    for clause in cnf.clauses:
        node = literal(clause[0])
        for lit in clause[1:]:
            node = b.gate("or", node, literal(lit))
        clause_nodes.append(node)
    if clause_nodes:
        out = clause_nodes[0]
        for node in clause_nodes[1:]:
            out = b.gate("and", out, node)
    else:
        out = b.const(1)
    circ = b.finish(out)
    instrs = []
    for i in range(n):
        instrs.append(Instruction(var=i, bit=i, a0=0, a1=1))
        instrs.append(Instruction(var=n + i, bit=i, a0=1, a1=0))
    return AlgProgram(
        algebra=lattice,
        circuit=circ,
        n=n,
        instructions=tuple(instrs),
        accepting=frozenset({1}),
    )


# ---------------------------------------------------------------------------
# Interpolation across a three-congruence chain
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BetaIntConfig:
    """Validated data for interpolating two-letter patterns modulo ``lower``.

    The chain lower < mid < upper consists of two covering steps with
    distinct prime characteristics: ``in_char`` for (mid, upper) governs the
    input side, ``out_char`` for (lower, mid) the output side.  Inputs are
    words over {in_zero, in_one} (a pair inside upper but outside mid),
    outputs land in {base, mark} (a pair inside mid but outside lower) up to
    the congruence ``lower``.

    ``g_fn`` projects the input pair into the minimal set ``in_min`` whose
    trace carries modular arithmetic; ``cycle`` lists the in_char orbit
    points of that trace.  ``b_fn`` is the class indicator, built from the
    shifted sums of a seed polynomial: at the first orbit point it leaves
    ``base``'s class, at the others it stays there.  ``fix_fn`` moves its
    value at the first orbit point onto ``mark``'s class while fixing
    ``base``.
    """

    algebra: FiniteAlgebra
    structure: Structure
    lower: Partition
    in_zero: int
    in_one: int
    base: int
    mark: int
    in_char: int
    out_char: int
    in_min: MinimalSet
    out_min: MinimalSet
    g_fn: tuple[int, ...]
    cycle: tuple[int, ...]
    b_fn: tuple[int, ...]
    fix_fn: tuple[int, ...]


def _wrapped_add(
    algebra: FiniteAlgebra, malcev: AlgCircuit, wrap: tuple[int, ...], zero: int
) -> Callable[[int, int], int]:
    """x (+) y = wrap(d(x, zero, y)), read off its Cayley table."""
    d = malcev_addition(algebra, malcev, zero)
    table = np.array(wrap)[d].tolist()
    return lambda x, y: table[x][y]


def _wrapped_add_node(
    b: CircuitBuilder, malcev: AlgCircuit, wrap: AlgCircuit, zero: int
) -> Callable[[int, int], int]:
    """``_wrapped_add`` on nodes of ``b``, with ``wrap`` a circuit, ``zero`` a node."""
    return lambda u, v: b.inline(wrap, [b.inline(malcev, [u, zero, v])])


def _config_witnesses(cfg: BetaIntConfig) -> list[AlgCircuit]:
    """The witness circuits of g, b, fix and both idempotents, one query."""
    fns = (cfg.g_fn, cfg.b_fn, cfg.fix_fn, cfg.in_min.idempotent, cfg.out_min.idempotent)
    return cfg.structure.witnesses(fns)


def _multiple(add: Callable[[int, int], int], x: int, k: int, zero: int) -> int:
    """The k-fold sum x + ... + x under ``add``, or ``zero`` when k = 0."""
    if k == 0:
        return zero
    acc = x
    for _ in range(k - 1):
        acc = add(acc, x)
    return acc


def _separating_pair(
    size: int, top: Partition, bottom: Partition
) -> Optional[tuple[int, int]]:
    """The first pair, in canonical order, inside ``top`` but not ``bottom``."""
    return next(
        (
            (x, y)
            for x in range(size)
            for y in range(size)
            if x != y and top.same(x, y) and not bottom.same(x, y)
        ),
        None,
    )


def _first_base(size: int, attempt: Callable[[int], object]):
    """``attempt(e)`` for the first element e where it raises no
    ``GadgetSearchError``; otherwise the first such error is raised."""
    first_err: Optional[GadgetSearchError] = None
    for e in range(size):
        try:
            return attempt(e)
        except GadgetSearchError as ex:
            first_err = first_err or ex
    raise first_err


def complete_interpolation_config(
    algebra: FiniteAlgebra,
    lower: Partition,
    mid: Partition,
    upper: Partition,
    *,
    in_pair: tuple[int, int],
    base: int,
    mark: int,
    budget: Optional[Budget] = None,
) -> BetaIntConfig:
    """Find and validate the interpolation data for a congruence chain.

    The input pair, the base and the mark are given; the unary polynomials
    are searched for in canonical order (clone functions sorted by value
    table), so results are deterministic.  Raises ``GadgetSearchError``
    naming the first step that cannot be completed.
    """
    s = structure(algebra, budget)
    lat, clone = s.lattice, s.clone
    size = algebra.size
    malcev = s.malcev
    if malcev is None:
        raise GadgetSearchError("malcev", "no ternary difference polynomial found")
    if lat.subcovers_of(upper) != [mid]:
        raise GadgetSearchError(
            "chain", "the top congruence must have the middle one as its only subcover"
        )
    if lower not in lat.subcovers_of(mid):
        raise GadgetSearchError("chain", "the bottom pair must be a covering pair")
    try:
        in_char = s.characteristic(mid, upper)
        out_char = s.characteristic(lower, mid)
    except ValueError as ex:
        raise GadgetSearchError("characteristic", str(ex)) from None
    if in_char == out_char:
        raise GadgetSearchError(
            "characteristic", "the two covering characteristics must differ"
        )

    in_zero, in_one = in_pair
    if not (upper.same(in_zero, in_one) and not mid.same(in_zero, in_one)):
        raise GadgetSearchError(
            "input-pair", "the input pair must lie inside the top cover only"
        )

    # Project the input pair into a minimal set of the upper covering step.
    found = None
    for ms in minimal_sets(s, mid, upper):
        if ms.idempotent is None:
            continue
        retract = ms.idempotent
        seen: set[tuple[int, ...]] = set()
        for fn in clone:
            tab = tuple(retract[v] for v in fn)
            if tab in seen:
                continue
            seen.add(tab)
            gx, gy = tab[in_zero], tab[in_one]
            if upper.same(gx, gy) and not mid.same(gx, gy):
                g_fn = clone.lookup(tab)
                if g_fn is not None:
                    found = (ms, g_fn)
                    break
        if found:
            break
    if found is None:
        raise GadgetSearchError(
            "in-set",
            "no unary polynomial projects the input pair into a minimal set "
            "of the upper covering step",
        )
    in_min, g_fn = found
    c0, c1 = g_fn[in_zero], g_fn[in_one]

    in_add = _wrapped_add(algebra, malcev, in_min.idempotent, c0)
    cycle = [c0]
    cur = c0
    for _ in range(in_char - 1):
        cur = in_add(cur, c1)
        cycle.append(cur)
    if any(c not in in_min.universe for c in cycle):
        raise GadgetSearchError("cycle", "orbit leaves the minimal set")
    if len({mid.class_of[c] for c in cycle}) != in_char:
        raise GadgetSearchError(
            "cycle", "orbit points do not represent distinct middle classes"
        )
    if mid.class_of[in_add(cycle[-1], c1)] != mid.class_of[c0]:
        raise GadgetSearchError("cycle", "orbit does not close up after one period")

    out_min = minimal_set_through(s, lower, mid, base)
    if out_min is None or out_min.idempotent is None:
        raise GadgetSearchError(
            "out-set",
            f"no minimal set with an idempotent range passes through element {base}",
        )
    retract = out_min.idempotent
    out_add = _wrapped_add(algebra, malcev, retract, base)
    trace = [x for x in sorted(out_min.universe) if mid.same(x, base)]
    for x in trace:
        if not lower.same(out_add(base, x), x) or not lower.same(out_add(x, base), x):
            raise GadgetSearchError(
                "out-group", "the base element is not a unit on the trace"
            )
        if not lower.same(_multiple(out_add, x, out_char, base), base):
            raise GadgetSearchError(
                "out-group",
                f"trace element {x} lacks additive order dividing {out_char}",
            )
    neg = [_multiple(out_add, x, out_char - 1, base) for x in range(size)]
    if mark not in trace or lower.same(mark, base):
        raise GadgetSearchError(
            "mark", "requested output letter is not a nontrivial trace element"
        )

    universe_in = sorted(in_min.universe)

    def bullets_ok(tab: Sequence[int]) -> bool:
        if not lower.same(tab[c0], base):
            return False
        if not mid.same(tab[c0], tab[c1]) or lower.same(tab[c0], tab[c1]):
            return False
        for x in range(size):
            for y in range(x + 1, size):
                if upper.same(x, y) and not mid.same(tab[x], tab[y]):
                    return False
        for xi, x in enumerate(universe_in):
            for y in universe_in[xi + 1 :]:
                if mid.same(x, y) and not lower.same(tab[x], tab[y]):
                    return False
        return True

    def orbit_sum(tab: Sequence[int]) -> int:
        return reduce(out_add, (tab[c] for c in cycle))

    xor_c1 = [in_add(x, c1) for x in range(size)]

    # The seed: a table whose orbit sum, the indicator's value ``anchor`` at
    # the first orbit point, leaves the base's class.
    chosen = None
    for h0 in clone:
        tab = tuple(retract[v] for v in h0)
        if not bullets_ok(tab):
            continue
        total = orbit_sum(tab)
        if not lower.same(total, base):
            chosen = (tab, total)
            break
        # Shift the argument by one orbit step and re-center; the new
        # orbit sum must differ from the old one by the full-period
        # multiple of the shift value, which we assert.
        shifted = tuple(out_add(tab[xor_c1[x]], neg[tab[c1]]) for x in range(size))
        qfold = _multiple(out_add, tab[c1], in_char, base)
        total2 = orbit_sum(shifted)
        expect = out_add(total, neg[qfold])
        if not lower.same(total2, expect):
            raise AssertionError(
                "shifted orbit sum violates the re-centering identity"
            )
        if bullets_ok(shifted) and not lower.same(total2, base):
            chosen = (shifted, total2)
            break
    if chosen is None:
        raise GadgetSearchError(
            "indicator-seed",
            "no unary polynomial satisfies the shifted-sum conditions",
        )
    h_tab, anchor = chosen
    if clone.lookup(h_tab) is None:
        raise AssertionError("composed seed table escaped the unary clone")

    b_tab = []
    for z in range(size):
        shifts = (h_tab[_multiple(in_add, z, j, c0)] for j in range(in_char))
        b_tab.append(out_add(anchor, neg[reduce(out_add, shifts)]))
    b_fn = clone.lookup(tuple(b_tab))
    if b_fn is None:
        raise AssertionError("class-indicator table escaped the unary clone")
    for j, cj in enumerate(cycle):
        want = anchor if j == 0 else base
        if not lower.same(b_tab[cj], want):
            raise GadgetSearchError(
                "indicator", f"indicator misfires at orbit point {j}"
            )

    fix_fn = clone.find(lambda t: t[base] == base and lower.same(t[anchor], mark))
    if fix_fn is None:
        raise GadgetSearchError(
            "permutability-fix",
            "no unary polynomial moves the anchor class onto the mark "
            "while fixing the base",
        )

    return BetaIntConfig(
        algebra=algebra,
        structure=s,
        lower=lower,
        in_zero=in_zero,
        in_one=in_one,
        base=base,
        mark=mark,
        in_char=in_char,
        out_char=out_char,
        in_min=in_min,
        out_min=out_min,
        g_fn=g_fn,
        cycle=tuple(cycle),
        b_fn=b_fn,
        fix_fn=fix_fn,
    )


def beta_interpolate(
    cfg: BetaIntConfig, f: Sequence[int], budget: Optional[Budget] = None
) -> AlgCircuit:
    """Circuit matching a two-letter pattern modulo ``cfg.lower``.

    ``f`` is a flat table of length 2**s over the letters {base, mark},
    indexed with the first input most significant (bit 0 = in_zero, 1 =
    in_one).  The returned s-ary circuit c satisfies c(x) = f(x) modulo the
    bottom congruence for every x in {in_zero, in_one}^s — checked
    exhaustively before returning.
    """
    budget = budget or default_budget()
    size = len(f)
    s = size.bit_length() - 1
    if 1 << s != size:
        raise ValueError("table length must be a power of two")
    if s > MAX_INTERPOLATION_ARITY:
        raise ValueError(f"interpolation arity {s} above bound {MAX_INTERPOLATION_ARITY}")
    for v in f:
        if v not in (cfg.base, cfg.mark):
            raise ValueError("table values must be the two output letters")
    if s == 0:
        return constant_circuit(0, f[0])

    q, p = cfg.in_char, cfg.out_char
    table = [0] * (q**s)
    for bits in product(range(2), repeat=s):
        if f[flat_index(bits, 2)] == cfg.mark:
            table[flat_index(bits, q)] = 1
    form = coset_indicator_form(table, q, s, p, budget)

    malcev = cfg.structure.malcev
    g, b_ind, fix, in_idem, out_idem = _config_witnesses(cfg)
    b = CircuitBuilder(s)
    czero = b.const(cfg.cycle[0])
    bzero = b.const(cfg.base)

    xor = _wrapped_add_node(b, malcev, in_idem, czero)
    vadd = _wrapped_add_node(b, malcev, out_idem, bzero)
    ys = [b.inline(g, [b.var(i)]) for i in range(s)]

    total = None
    for (coeffs, u), mu in sorted(form.items()):
        comb = None
        for i, coef in enumerate(coeffs):
            if coef % q == 0:
                continue
            mnode = _multiple(xor, ys[i], coef % q, czero)
            comb = mnode if comb is None else xor(comb, mnode)
        cu = b.const(cfg.cycle[u % q])
        comb = cu if comb is None else xor(comb, cu)
        term = _multiple(vadd, b.inline(b_ind, [comb]), mu % p, bzero)
        total = term if total is None else vadd(total, term)
    if total is None:
        total = bzero
    out = b.inline(fix, [total])
    circ = b.finish(out)

    letters = np.array([cfg.in_zero, cfg.in_one])
    got = eval_columns(cfg.algebra, circ, np.ix_(*[letters] * s)).ravel()
    cls = np.asarray(cfg.lower.class_of)
    bad = np.flatnonzero(cls[got] != cls[np.asarray(f)])
    if len(bad):
        at = int(bad[0])
        raise AssertionError(
            f"interpolated circuit disagrees with the table at "
            f"{tuple(map(int, np.unravel_index(at, (2,) * s)))}: "
            f"got {int(got[at])}, want {f[at]}"
        )
    return circ


# ---------------------------------------------------------------------------
# Two-prime witness and program assembly
# ---------------------------------------------------------------------------


def find_two_prime_witness(
    algebra: FiniteAlgebra,
    budget: Optional[Budget] = None,
) -> tuple[BetaIntConfig, BetaIntConfig]:
    """Search the congruence lattice for the two-prime configuration.

    Each side starts at an atom, of characteristic q, below the
    co-supernilpotent congruence kappa.  ``phi`` is a maximal congruence
    above the atom avoiding kappa; its unique cover ``phi_plus`` starts a
    covering step to ``step`` whose characteristic p differs from q.
    ``peak`` is a minimal congruence under ``step`` escaping ``phi_plus``;
    the chain (phi ∧ peak, peak's unique subcover, peak) carries the side's
    interpolation data, with characteristics (q, p).

    Scans in canonical order and returns the two sides' validated
    configurations, which share their base element; each side's summation
    prime q is its ``out_char``.  Raises ``GadgetSearchError`` naming the
    first fact that cannot be matched.
    """
    s = structure(algebra, budget)
    lat = s.lattice
    if not is_nilpotent_congruence(s, lat.one):
        raise GadgetSearchError("nilpotent", f"{algebra.name} is not nilpotent")
    rank = supernilpotent_rank(s)
    if rank != 2:
        raise GadgetSearchError(
            "supernilpotent-rank", f"sr={rank}, the construction needs rank exactly 2"
        )
    if s.malcev is None:
        raise GadgetSearchError("malcev", "no ternary difference polynomial found")

    kappa = s.distinguished.smallest_supernilpotent_quotient
    prized = []
    for gamma in lat.subcovers_of(kappa):
        try:
            prized.append((gamma, s.characteristic(gamma, kappa)))
        except ValueError:
            continue
    primes = sorted({q for _, q in prized})
    if len(primes) < 2:
        raise GadgetSearchError(
            "two-primes-below",
            f"the co-supernilpotent congruence has "
            f"{len(lat.subcovers_of(kappa))} subcover(s) with characteristic "
            f"set {primes}; two distinct primes are required",
        )
    gamma0, q0 = prized[0]
    gamma1, q1 = next((g, q) for g, q in prized if q != q0)
    if gamma0.meet(gamma1) != lat.zero:
        raise GadgetSearchError(
            "atom-meet", "the two chosen subcovers must meet in the zero congruence"
        )
    for gamma in (gamma0, gamma1):
        if lat.subcovers_of(gamma) != [lat.zero]:
            raise GadgetSearchError(
                "atoms",
                "subcovers of the co-supernilpotent congruence must be atoms",
            )

    size = algebra.size
    raw_sides = []  # (other atom, floor, peak_sub, peak, input pair) per side
    for idx, (gamma, q, other_gamma) in enumerate(
        ((gamma0, q0, gamma1), (gamma1, q1, gamma0))
    ):
        tag = f"side {idx}"
        dom = [t for t in lat.elements if gamma.leq(t) and not kappa.leq(t)]
        maximal = [t for t in dom if not any(t.leq(u) and t != u for u in dom)]
        if not maximal:
            raise GadgetSearchError("avoid", f"{tag}: no congruence dominates the atom "
                                             "while avoiding the co-supernilpotent one")
        phi = maximal[0]
        covers = lat.covers_of(phi)
        if len(covers) != 1:
            raise GadgetSearchError(
                "meet-irreducible", f"{tag}: the avoiding congruence has {len(covers)} covers"
            )
        phi_plus = covers[0]
        if not kappa.leq(phi_plus):
            raise GadgetSearchError(
                "avoid-cover", f"{tag}: the unique cover does not dominate the "
                               "co-supernilpotent congruence"
            )
        try:
            if s.characteristic(phi, phi_plus) != q:
                raise GadgetSearchError(
                    "avoid-characteristic",
                    f"{tag}: the avoiding cover's characteristic differs from {q}",
                )
        except ValueError:
            raise GadgetSearchError(
                "avoid-characteristic", f"{tag}: the avoiding cover is not abelian"
            ) from None
        step = p = None
        for cand in lat.covers_of(phi_plus):
            try:
                ch = s.characteristic(phi_plus, cand)
            except ValueError:
                continue
            if ch != q:
                step, p = cand, ch
                break
        if step is None:
            raise GadgetSearchError(
                "cross-prime-step",
                f"{tag}: no covering step above carries a prime other than {q}",
            )
        below = [t for t in lat.elements if t.leq(step) and not t.leq(phi_plus)]
        minimal = [t for t in below if not any(u.leq(t) and u != t for u in below)]
        peak = minimal[0]
        psubs = lat.subcovers_of(peak)
        if len(psubs) != 1:
            raise GadgetSearchError(
                "join-irreducible", f"{tag}: the minimal escaping congruence has "
                                    f"{len(psubs)} subcovers"
            )
        peak_sub = psubs[0]
        floor = phi.meet(peak)
        if floor not in lat.subcovers_of(peak_sub) or peak_sub not in lat.subcovers_of(peak):
            raise GadgetSearchError(
                "projected-chain", f"{tag}: floor, subcover and peak do not form "
                                   "a two-step covering chain"
            )
        try:
            if (
                s.characteristic(floor, peak_sub) != q
                or s.characteristic(peak_sub, peak) != p
            ):
                raise GadgetSearchError(
                    "projected-characteristics",
                    f"{tag}: projected chain characteristics are not ({q}, {p})",
                )
        except ValueError:
            raise GadgetSearchError(
                "projected-characteristics", f"{tag}: projected chain has a "
                                             "non-abelian cover"
            ) from None
        case_atom = floor == lat.zero and peak_sub == other_gamma
        case_above = gamma.leq(floor) and kappa.leq(peak_sub)
        if not (case_atom or case_above):
            raise GadgetSearchError(
                "atom-or-above",
                f"{tag}: the floor/subcover pair matches neither allowed shape",
            )
        if other_gamma.join(floor) != peak_sub or other_gamma.meet(floor) != lat.zero:
            raise GadgetSearchError(
                "lower-transposition",
                f"{tag}: the other atom does not transpose onto the floor interval",
            )
        if peak_sub.join(phi) != phi_plus or peak_sub.meet(phi) != floor:
            raise GadgetSearchError(
                "upper-transposition",
                f"{tag}: the subcover does not transpose onto the avoiding interval",
            )
        if gamma.leq(floor) and gamma != floor:
            if q in charr_set(s, gamma, floor):
                raise GadgetSearchError(
                    "prime-separation",
                    f"{tag}: prime {q} reappears between the atom and the floor",
                )
        pair = _separating_pair(size, peak, peak_sub)
        if pair is None:
            raise GadgetSearchError("input-pair", f"{tag}: no separating pair")
        raw_sides.append((other_gamma, floor, peak_sub, peak, pair))

    def assemble(e: int) -> tuple[BetaIntConfig, BetaIntConfig]:
        vsets = []
        for idx, (_, floor, peak_sub, _, _) in enumerate(raw_sides):
            vset = minimal_set_through(s, floor, peak_sub, e)
            if vset is None or vset.idempotent is None:
                raise GadgetSearchError(
                    "out-set",
                    f"side {idx}: no minimal set with an idempotent range "
                    f"through element {e}",
                )
            vsets.append(vset)
        if vsets[0].universe & vsets[1].universe != {e}:
            raise GadgetSearchError(
                "disjoint-ranges",
                f"the two minimal sets through {e} overlap beyond the base",
            )
        for idx, ((other, floor, peak_sub, _, _), vset) in enumerate(
            zip(raw_sides, vsets)
        ):
            members = sorted(vset.universe)
            for xi, x in enumerate(members):
                for y in members[xi + 1 :]:
                    if peak_sub.same(x, y) and not other.same(x, y):
                        raise GadgetSearchError(
                            "range-collapse",
                            f"side {idx}: subcover classes inside the minimal "
                            "set are not controlled by the other atom",
                        )
                    if floor.same(x, y):
                        raise GadgetSearchError(
                            "range-separation",
                            f"side {idx}: the floor congruence is not trivial "
                            "on the minimal set",
                        )
        configs = []
        for idx, ((_, floor, peak_sub, peak, pair), vset) in enumerate(
            zip(raw_sides, vsets)
        ):
            marks = [x for x in sorted(vset.universe) if peak_sub.same(x, e) and x != e]
            if not marks:
                raise GadgetSearchError(
                    "mark", f"side {idx}: the trace through the base is trivial"
                )
            try:
                configs.append(
                    complete_interpolation_config(
                        algebra, floor, peak_sub, peak,
                        in_pair=pair, base=e, mark=marks[0], budget=budget,
                    )
                )
            except GadgetSearchError as ex:
                raise GadgetSearchError(f"interpolation-side{idx}", str(ex)) from None
        return configs[0], configs[1]

    return _first_base(size, assemble)


def build_two_prime_program(
    algebra: FiniteAlgebra,
    witness: tuple[BetaIntConfig, BetaIntConfig],
    cnf: Cnf3,
    budget: Optional[Budget] = None,
) -> AlgProgram:
    """Program accepting exactly the satisfying assignments of the formula.

    ``witness`` holds the two sides' configurations, as
    ``find_two_prime_witness`` returns them; they share their base element.
    Each side i turns the formula into a divisibility polynomial over its
    prime q_i = ``out_char`` (modulus chosen so the two prime powers
    multiply out beyond the clause count), interpolates its monomials as
    algebra circuits and sums them inside the trace group of the side's
    minimal set.  The two side values are combined with the difference
    polynomial; since the two minimal sets meet only in the base element,
    the combination equals the base exactly when both sides vanish — which
    by a counting argument means no clause is unsatisfied.  The full truth
    table is replayed against direct formula evaluation whenever the
    formula has at most 10 variables.
    """
    budget = budget or default_budget()
    n = cnf.num_vars
    ell = len(cnf.clauses)
    malcev = witness[0].structure.malcev
    b = CircuitBuilder(2 * n)
    e = witness[0].base
    enode = b.const(e)
    side_nodes = []
    for i, cfg in enumerate(witness):
        q = cfg.out_char
        nu = 1
        while q ** (2 * nu) <= ell:
            nu += 1
        poly = pseudo_and(cnf, q, nu, budget)
        idem = _config_witnesses(cfg)[4]
        vadd = _wrapped_add_node(b, malcev, idem, enode)
        pattern_cache: dict[int, AlgCircuit] = {}
        total = None
        for key in sorted(poly.terms, key=monomial_key):
            if key.bit_count() > MAX_INTERPOLATION_ARITY:
                raise BudgetExceeded(
                    f"monomial support {key.bit_count()} exceeds the interpolation "
                    f"arity bound {MAX_INTERPOLATION_ARITY}"
                )
            if key:
                support = mask_bits(key)
                s = len(support)
                circ = pattern_cache.get(s)
                if circ is None:
                    table = [cfg.base] * (1 << s)
                    table[(1 << s) - 1] = cfg.mark
                    circ = beta_interpolate(cfg, table, budget)
                    pattern_cache[s] = circ
                node = b.inline(circ, [b.var(i * n + j) for j in support])
                node = b.inline(idem, [node])
            else:
                node = b.const(cfg.mark)
            term = _multiple(vadd, node, poly.terms[key], enode)
            total = term if total is None else vadd(total, term)
        if total is None:
            total = enode
        side_nodes.append(total)
    out = b.inline(malcev, [side_nodes[0], side_nodes[1], enode])
    circ = b.finish(out)
    instrs = []
    for i, cfg in enumerate(witness):
        for j in range(n):
            instrs.append(
                Instruction(var=i * n + j, bit=j, a0=cfg.in_zero, a1=cfg.in_one)
            )
    program = AlgProgram(
        algebra=algebra,
        circuit=circ,
        n=n,
        instructions=tuple(instrs),
        accepting=frozenset({e}),
    )
    if n <= 10:
        accepted = program.accept_column().tolist()
        for word in range(1 << n):
            bits = tuple((word >> t) & 1 for t in range(n))
            if accepted[word] != cnf.satisfied(bits):
                raise AssertionError(
                    f"two-prime program disagrees with the formula at {bits}"
                )
    return program

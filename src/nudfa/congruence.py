"""Congruence lattices and commutator-based structure theory.

By Mal'cev's lemma an equivalence relation is a congruence exactly when every
basic translation x -> f(c_1, ..., x, ..., c_r) preserves it, so the
congruence generated by a set of pairs is their closure under the basic
translations and transitivity (R. Freese, "Computing congruences
efficiently", Algebra Universalis 2008).  A translation t that permutes
the universe has a power for inverse, so Cg(a, b) = Cg(t(a), t(b)): the
lattice needs one principal per orbit of pairs, and is what the covers,
the minimal joins lo v Cg(a, b) above lo, reach from 0.  The binary
commutator is the term-condition commutator, computed on one of four paths
chosen by the algebra alone (Freese and McKenzie, "Commutator Theory for
Congruence Modular Varieties", 1987):

- Affine algebras have every commutator 0 (ch. 5; ``Structure.affine``),
  and a group's [alpha, beta] is the cosets of [e/alpha, e/beta] (ch. 1).
- Any other algebra with a binary Latin-square operation (``latin_square``:
  every loop and quasigroup expansion) has a Malcev term, so it
  generates a modular variety, where (x, y) lies in [alpha, beta] iff
  (x, x) and (x, y) share a block of Delta_{alpha,beta} (ch. 4).  That
  congruence of the subalgebra alpha of A^2 is generated by the pairs
  ((c, c), (d, d)) with c beta d, and is closed by joining block labels
  under the basic translations of alpha, at most n**2 elements.
- Every other algebra closes the matrix subalgebra M(alpha, beta) of A^4
  on the semi-naive kernel that closes unary clones (algebra.py), each
  operation acting on the matrices entrywise, under the budget's
  ``clone_functions`` cap.

Everything derived from one algebra lives in its :class:`Structure`: the
translations, the lattice, the unary clone, a Malcev polynomial, the
distinguished congruences and memos of commutators and characteristics,
each computed on first read.  A quotient A/theta is read on A, with no
algebra of its own (``Structure.quotient``): its lattice is the interval
[theta, 1], its commutators are relative to theta, the least d >= theta
with C(alpha, beta; d), which is [alpha, beta] v theta in a modular
variety (Freese and McKenzie, ch. 4), and its prime-power factors are
read there too.  The Malcev polynomial is the one source of the term
every caller uses, and it is verified where it is made.  For an algebra
with a Latin-square operation it is built from that operation's divisions
(``quasigroup_malcev``): the short term x * (y\\z), which serves every
group and loop, else the full (x / (y\\y)) * (y\\z).  Only other
algebras, or a term longer than the budget, pay for the breadth-first
search, which gives None if it finds none.

Only entry points call ``structure``, with their caller's budget; the
helpers below them are handed that Structure or a view of it, so none
makes a second one or a quotient's lattice.  The lattice builder and the
matrix commutator, which take a bare algebra, make the translation
columns that ``congruence_generated`` closes under themselves.
``structure`` hands out one Structure per budget, size and operations for
the run, so an algebra and its copies under other names share one, whose
``algebra`` is the copy seen first: names come from the caller's algebra.
The memo holds at most ``STRUCTURE_MEMO_SIZE`` structures, oldest out
first, and ``cli.main`` empties it on every call.
On top of these sit characteristics of prime quotients, intervals that
decompose into independent single-prime pieces, and the distinguished
congruences that drive the circuit compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import (
    FiniteAlgebra,
    Operation,
    UnaryClone,
    _closure,
    _Tables,
    find_malcev_polynomial,
    latin_square,
    latin_squares,
    quasigroup_malcev,
    unary_witnesses,
)
from .circuits import AlgCircuit
from .fieldpoly import prime_divisors
from .limits import Budget, default_budget
from .partitions import Partition, label_join, label_leq


# ---------------------------------------------------------------------------
# The structure of one algebra
# ---------------------------------------------------------------------------


class Structure:
    """What the package derives from an algebra, each part computed on its
    first read and kept: the basic translations, the congruence lattice,
    the unary clone, a Malcev polynomial, the distinguished congruences,
    and memos of commutators, characteristics and unary witness circuits.
    The Malcev polynomial is the quasigroup term built from the first
    Latin-square operation: x * (y\\z) when that satisfies the identities,
    as in every group and loop, else (x / (y\\y)) * (y\\z).  Without a Latin
    square, or when the term needs more gates than ``budget.clone_functions``,
    it is the search's first witness, and None if the search finds none.
    Every caller reads the term here.  ``algebra`` is the one the Structure
    was made for; callers name results after their own algebra, not after it.

    ``quotient(theta)`` is A/theta read on A, with no quotient algebra
    built: its lattice is the interval [theta, 1], and its commutators are
    relative to ``floor`` = theta, over a Latin square the parent's joined
    with theta.  A view answers lattice, commutator, characteristic and
    prime-power factor questions.  Helpers are handed a Structure or a
    view; only entry points look one up.

    ``affine``, read once from the tables and by views off their parent,
    holds when a Latin square is an abelian group with identity e and each
    basic f has f(x y) = f(x) f(e)^-1 f(y), entrywise (``_affine``).  Then
    every polynomial is x -> h(x) c, h a homomorphism, so p(a, u) = p(a, v)
    gives h(u) = h(v) and p(b, u) = p(b, v): by C(1, 1; 0) all commutators
    are 0, a view's its floor (Freese and McKenzie 1987, chs. 4-5; abelian
    Malcev algebras are affine, Herrmann 1979).
    """

    def __init__(
        self, algebra: FiniteAlgebra, budget: Budget, parent=None, floor=None
    ):
        self.algebra = algebra
        self.budget = budget
        self.parent = parent
        self.floor = floor
        self._commutators: dict[tuple[Partition, Partition], Partition] = {}
        self._characteristics: dict[tuple[Partition, Partition], int] = {}
        self._witnesses: dict[tuple[int, ...], AlgCircuit] = {}

    @cached_property
    def translations(self) -> list[tuple[int, ...]]:
        return _translation_columns(self.algebra)

    @cached_property
    def lattice(self) -> "CongruenceLattice":
        if self.parent is not None:
            return self.parent.lattice.above(self.floor)
        return all_congruences(self.algebra, budget=self.budget)

    @cached_property
    def clone(self) -> UnaryClone:
        return UnaryClone(self.algebra, self.budget)

    @cached_property
    def malcev(self) -> Optional[AlgCircuit]:
        return quasigroup_malcev(self.algebra, self.budget) or find_malcev_polynomial(
            self.algebra, budget=self.budget
        )

    @cached_property
    def distinguished(self) -> "DistinguishedCongruences":
        return distinguished_congruences(self)

    @cached_property
    def affine(self) -> bool:
        return self.parent.affine if self.parent is not None else _affine(self.algebra)

    def witnesses(self, tables: Iterable[Sequence[int]]) -> list[AlgCircuit]:
        """The witness circuit of each unary table (``unary_witnesses``),
        each built once: one query for the tables not asked for before."""
        asked = [tuple(table) for table in tables]
        new = [t for t in dict.fromkeys(asked) if t not in self._witnesses]
        if new:
            self._witnesses.update(zip(new, unary_witnesses(self.algebra, new, self.budget)))
        return [self._witnesses[t] for t in asked]

    def quotient(self, theta: Partition) -> "Structure":
        return self if theta.is_identity() else Structure(
            self.algebra, self.budget, self, theta
        )

    def commutator(self, left: Partition, right: Partition) -> Partition:
        """[left, right], relative to ``floor`` on a quotient view."""
        key = (left, right)
        if key not in self._commutators:
            if self.affine:
                found = self.floor or Partition.identity(self.algebra.size)
            elif self.parent is not None and latin_square(self.algebra) is not None:
                found = self.parent.commutator(left, right).join(self.floor)
            else:
                found = commutator(self.algebra, left, right, self.floor, self.budget)
            self._commutators[key] = found
        return self._commutators[key]

    def characteristic(self, lo: Partition, hi: Partition) -> int:
        """Prime p for a covering pair (lo, hi): in A/lo every hi-block
        splits into the same prime-power number p**k of lo-blocks.

        Requires the cover to be abelian ([hi, hi] <= lo); raises
        otherwise.  Each result is kept for the run.
        """
        key = (lo, hi)
        if key in self._characteristics:
            return self._characteristics[key]
        if key not in self.lattice.cover_set:
            raise ValueError("not a covering pair of the lattice")
        if not self.commutator(hi, hi).leq(lo):
            raise ValueError("cover is not abelian; characteristic undefined")
        counts = {len({lo.class_of[x] for x in block}) for block in hi.blocks()}
        if len(counts) != 1:
            raise ValueError(f"hi-blocks split into unequal lo-block counts {counts}")
        count = counts.pop()
        primes = prime_divisors(count)
        if len(primes) != 1:
            raise ValueError(f"block count {count} is not a prime power")
        self._characteristics[key] = primes[0]
        return primes[0]


# Most structures the run memo holds; the oldest entry goes first.
STRUCTURE_MEMO_SIZE = 64
_STRUCTURES: dict[tuple, Structure] = {}


def structure(algebra: FiniteAlgebra, budget: Optional[Budget] = None) -> Structure:
    """The run's Structure for the algebra's operations and budget.

    The key is the budget, the size and the operations, which compare by
    name, arity and table: witness circuits name operations, and an
    algebra with nullary operations only has the same tables at every
    size.  The algebra's name is not in the key, so the Structure's
    ``algebra`` may be a copy under another name.
    """
    budget = budget or default_budget()
    key = (budget, algebra.size, algebra.ops)
    found = _STRUCTURES.get(key)
    if found is None:
        if len(_STRUCTURES) >= STRUCTURE_MEMO_SIZE:
            del _STRUCTURES[next(iter(_STRUCTURES))]
        found = _STRUCTURES[key] = Structure(algebra, budget)
    return found


def _translation_columns(algebra: FiniteAlgebra) -> list[tuple[int, ...]]:
    """The distinct basic translations x -> f(c_1, ..., x, ..., c_r) as one
    table read by columns: column x holds the image of x under each."""
    n = algebra.size
    rows = set()
    for op in algebra.ops:
        table, r = op.table, op.arity
        for i in range(r):
            step = n ** (r - 1 - i)
            span = step * n
            for high in range(0, len(table), span):
                for start in range(high, high + step):
                    rows.add(table[start : start + span : step])
    return list(zip(*rows)) if rows else [()] * n


def congruence_generated(
    translations: Sequence[tuple[int, ...]], pairs: Iterable[tuple[int, int]]
) -> Partition:
    """Least congruence containing the given pairs, for the algebra whose
    basic translations are the columns ``translations``
    (``Structure.translations``).

    A worklist of pairs is merged into one array of block labels, each
    label the least member of its block; each pair that joins two blocks
    sends its images under every basic translation back to the worklist.
    The merging pairs generate the result as an equivalence and each
    translation maps them into it, so it is a congruence; every pair merged
    is forced by the generators, so it is the least one.
    """
    label = list(range(len(translations)))
    work = list(pairs)
    while work:
        a, b = work.pop()
        la, lb = label[a], label[b]
        if la != lb:
            keep, drop = min(la, lb), max(la, lb)
            label = [keep if x == drop else x for x in label]
            work += zip(translations[a], translations[b])
    return Partition(tuple(label))


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------


@dataclass
class CongruenceLattice:
    """All congruences of a finite algebra, or the interval [theta, 1] of
    them, with order data.  Elements are sorted by their label tuples, so a
    coarser congruence sorts before a finer one: the total partition comes
    first and the least element last."""

    elements: tuple[Partition, ...]  # canonically sorted
    _index: dict = field(repr=False)
    covers: tuple[tuple[int, int], ...]  # (lower, upper), sorted by lower

    # -- order helpers -----------------------------------------------------

    def index(self, part: Partition) -> int:
        try:
            return self._index[part]
        except KeyError:
            raise KeyError("partition is not a congruence of this algebra") from None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, part: Partition) -> bool:
        return part in self._index

    @property
    def zero(self) -> Partition:
        return self.elements[-1]

    @property
    def one(self) -> Partition:
        return self.elements[0]

    @cached_property
    def _order(self) -> list[int]:
        """The order table: bit j of entry i is set iff element i lies below
        element j.  An upper cover sorts before its lower one, so each
        entry is final before a cover reads it."""
        order = [1 << i for i in range(len(self.elements))]
        for a, b in self.covers:
            order[a] |= order[b]
        return order

    @cached_property
    def cover_set(self) -> frozenset[tuple[Partition, Partition]]:
        return frozenset((self.elements[a], self.elements[b]) for a, b in self.covers)

    def interval(self, lo: Partition, hi: Partition) -> list[Partition]:
        up, top, order = self._order[self.index(lo)], self.index(hi), self._order
        return [c for i, c in enumerate(self.elements) if up >> i & order[i] >> top & 1]

    def above(self, floor: Partition) -> "CongruenceLattice":
        """The interval [floor, 1] with its covers: by the correspondence
        theorem, the congruence lattice of A/floor."""
        elements = tuple(self.interval(floor, self.one))
        index = {c: i for i, c in enumerate(elements)}
        pairs = ((self.elements[a], self.elements[b]) for a, b in self.covers)
        covers = tuple((index[a], index[b]) for a, b in pairs if a in index)
        return CongruenceLattice(elements, index, covers)

    def covers_of(self, part: Partition) -> list[Partition]:
        i = self.index(part)
        return [self.elements[b] for a, b in self.covers if a == i]

    def subcovers_of(self, part: Partition) -> list[Partition]:
        i = self.index(part)
        return [self.elements[a] for a, b in self.covers if b == i]

    def cover_pairs(
        self, lo: Partition, hi: Partition
    ) -> list[tuple[Partition, Partition]]:
        """All covering pairs inside the interval [lo, hi]."""
        up, top, order = self._order[self.index(lo)], self.index(hi), self._order
        return [
            (self.elements[a], self.elements[b])
            for a, b in self.covers
            if up >> a & order[b] >> top & 1
        ]

    def meet_irreducibles(self) -> list[Partition]:
        return [c for c in self.elements if len(self.covers_of(c)) == 1]


def all_congruences(
    algebra: FiniteAlgebra, budget: Optional[Budget] = None
) -> CongruenceLattice:
    """Build the full congruence lattice (R. Freese, "Computing congruences
    efficiently", Algebra Universalis 2008).

    A basic translation t that permutes the universe has some order k, so
    its inverse t^(k-1) is a unary polynomial and Cg(a, b) = Cg(t(a), t(b)):
    one principal congruence per orbit of pairs under these permutations
    gives them all.  Every congruence is the join of the principals below
    it, so hi covers lo exactly when hi is a minimal element of
    {lo v Cg(a, b)} - {lo}; walking up these covers from 0 reaches every
    element.  Partitions stay least-member label tuples until the end.
    """
    budget = budget or default_budget()
    if algebra.size > budget.lattice_universe:
        raise ValueError(
            f"universe {algebra.size} exceeds lattice bound "
            f"{budget.lattice_universe}"
        )
    n = algebra.size
    columns = _translation_columns(algebra)
    perms = [t for t in zip(*columns) if len(set(t)) == n]
    principals, seen = set(), set()
    for pair in combinations(range(n), 2):
        if pair not in seen:
            principals.add(congruence_generated(columns, [pair]).class_of)
            orbit = [pair]
            for a, b in orbit:
                fresh = {(min(t[a], t[b]), max(t[a], t[b])) for t in perms} - seen
                seen |= fresh
                orbit += fresh
    upper: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    todo = [tuple(range(n))]
    for lo in todo:
        if lo in upper:
            continue
        joins = {label_join(lo, enumerate(p)) for p in principals} - {lo}
        upper[lo] = [
            hi for hi in joins
            if not any(m != hi and label_leq(m, hi) for m in joins)
        ]
        todo += upper[lo]
    rank = {c: i for i, c in enumerate(sorted(upper))}
    covers = sorted((rank[lo], rank[hi]) for lo in upper for hi in upper[lo])
    index = {Partition(c): i for c, i in rank.items()}
    return CongruenceLattice(tuple(index), index, tuple(covers))


# ---------------------------------------------------------------------------
# Term-condition commutator
# ---------------------------------------------------------------------------


# Translation images the Delta path evaluates at a time.
MATRIX_BLOCK = 1 << 14


def _related(part: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Both coordinates of every pair the partition relates."""
    cls = np.array(part.class_of)
    return np.nonzero(cls[:, None] == cls)


def _matrix_subalgebra(
    algebra: FiniteAlgebra, left: Partition, right: Partition, budget=None
) -> np.ndarray:
    """M(left, right): the subalgebra of A^4 generated by the matrices
    (a,a,b,b) for related (a,b) on the left and (u,v,u,v) for related (u,v)
    on the right; rows of every matrix are right-related, columns
    left-related.  The generators are stored as rows (x1, x2, x3, x4), and
    the closure kernel that closes unary clones (``_closure``) closes them
    under the operations acting entrywise, over generator pools when every
    operation is unary or associative.  Each matrix, generators included,
    is charged to "matrix subalgebra" under ``budget.clone_functions``.
    Returns the sorted codes x1 * n**3 + x2 * n**2 + x3 * n + x4.
    """
    n = algebra.size
    a, b = _related(left)
    u, v = _related(right)
    seen = _Tables(n, 4)
    seen.put(np.concatenate([np.stack([a, a, b, b], 1), np.stack([u, v, u, v], 1)]))
    _closure(algebra, seen, budget, "matrix subalgebra")
    return np.sort(np.ravel_multi_index(seen.tables().T, (n,) * 4))


def _join_labels(
    label: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """The least-member labels with the blocks of u[i] and v[i] joined, as
    a new array when any two differ.  Each round hooks the least member of
    every block to the least label among the pairs that still differ
    there, then follows the labels to their fixed points; labels only
    fall, so the least member of each block stays its label."""
    while True:
        lu, lv = label[u], label[v]
        differ = lu != lv
        if not differ.any():
            return label
        u, v, lu, lv = u[differ], v[differ], lu[differ], lv[differ]
        low = np.minimum(lu, lv)
        label = label.copy()
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def _diagonal_commutator(
    algebra: FiniteAlgebra, left: Partition, right: Partition
) -> Partition:
    """[left, right] for an algebra in a modular variety, read off Delta on
    A(left), the subalgebra of A^2 on the pairs ``left`` relates: (x, y)
    lies in it iff (x, x) Delta (x, y) (Freese and McKenzie 1987, ch. 4).

    The elements of A(left) are numbered in ``_related(left)`` order, and
    ``label`` maps each to the least member of its Delta-block, starting
    from the generators ((c, c), (d, d)) with c right-related to d.  By
    Mal'cev's lemma the labels give a congruence iff t(i) and t(label[i])
    share a block for every i and basic translation t, so only the
    elements whose label moved are tested again.  A translation fixes all
    arguments of an operation but the one of weight w to elements of
    A(left); it is kept as w and as the fixed arguments' share of the index
    into the operations' concatenated tables, in each coordinate.  A round
    tests every translation with one gather per coordinate,
    ``MATRIX_BLOCK`` images at a time.
    """
    n = algebra.size
    a, b = _related(left)
    m = a.size
    index = np.zeros(n * n, dtype=np.intp)
    index[a * n + b] = np.arange(m)
    diagonal = index[np.arange(n) * (n + 1)]
    tables = np.concatenate([np.array(op.table) for op in algebra.ops])
    parts = []
    offset = 0
    for op in algebra.ops:
        weights = n ** np.arange(op.arity)[::-1]
        for j, w in enumerate(weights):
            first = second = np.array([offset])
            for v in np.delete(weights, j):
                first = (first[:, None] + a * v).ravel()
                second = (second[:, None] + b * v).ravel()
            parts.append((np.full(first.size, w), first, second))
        offset += len(op.table)
    weight, first, second = (np.concatenate(x)[:, None] for x in zip(*parts))
    label = np.arange(m)
    label[diagonal] = diagonal[list(right.class_of)]
    moved = np.flatnonzero(label != np.arange(m))
    while moved.size:
        before = label
        ends = np.stack([moved, label[moved]])[:, None]
        step = max(1, MATRIX_BLOCK // moved.size)
        for lo in range(0, first.size, step):
            w = weight[lo : lo + step]
            images = index[
                tables[first[lo : lo + step] + a[ends] * w] * n
                + tables[second[lo : lo + step] + b[ends] * w]
            ]
            label = _join_labels(label, images[0].ravel(), images[1].ravel())
        moved = np.flatnonzero(label != before)
    same = label[diagonal[a]] == label
    cls = np.arange(n)
    np.minimum.at(cls, b[same], a[same])
    return Partition(tuple(cls.tolist()))


def _matrix_commutator(
    algebra: FiniteAlgebra, left: Partition, right: Partition, floor=None, budget=None
) -> Partition:
    """Least congruence d above ``floor`` (default zero) such that every
    matrix of M(left, right) whose top row lies in d has its bottom row in
    d; computed by seeding with the bottom rows of matrices with equal top
    entries and re-closing until the forcing condition is stable."""
    n = algebra.size
    x1, x2, x3, x4 = np.unravel_index(
        _matrix_subalgebra(algebra, left, right, budget), (n,) * 4
    )
    columns = _translation_columns(algebra)
    delta = floor or Partition.identity(n)
    while True:
        cls = np.array(delta.class_of)
        forced = (cls[x1] == cls[x2]) & (cls[x3] != cls[x4])
        if not forced.any():
            return delta
        codes = x3[forced] * n + x4[forced]
        bottoms = np.flatnonzero(np.bincount(codes, minlength=n * n))
        delta = congruence_generated(
            columns,
            [*enumerate(delta.class_of),
             *zip((bottoms // n).tolist(), (bottoms % n).tolist())],
        )


def _group(square: Operation, n: int):
    """Table, identity and inverses of a Latin square; None unless it is
    associative, a group."""
    mul = np.asarray(square.table).reshape(n, n)
    if (mul[mul] != mul[:, mul]).any():
        return None
    e = int(np.flatnonzero(mul[:, 0] == 0)[0])
    return mul, e, np.nonzero(mul == e)[1]


def _group_commutator(group, left: Partition, right: Partition) -> Partition:
    """[left, right] of a group: the cosets, each labelled by its least
    member, of the subgroup K generated by the m n m^-1 n^-1 with m in
    e/left and n in e/right, as products of them until none is new.  A
    mask holds K: a process's first ``np.unique`` takes milliseconds."""
    mul, e, inv = group
    m, k = (np.flatnonzero(np.equal(c.class_of, c.class_of[e])) for c in (left, right))
    member = np.zeros(len(inv), dtype=bool)
    member[mul[mul[m[:, None], k], mul[inv[m][:, None], inv[k]]]] = True
    while True:
        sub = np.flatnonzero(member)
        member[mul[sub[:, None], sub]] = True
        if member.sum() == sub.size:
            return Partition(tuple(mul[:, sub].min(axis=1).tolist()))


def _affine(algebra: FiniteAlgebra) -> bool:
    """Is every basic f affine over the first Latin square that is an
    abelian group: is g = f f(e)^-1 a homomorphism from A^r?  It is iff
    each g_i, g with all arguments but the i-th at e, is an endomorphism
    and g(x) = g_1(x_1) ... g_r(x_r), as x is the product of its entries
    placed among e's.  No array is larger than f's table."""
    n = algebra.size
    groups = (_group(square, n) for square in latin_squares(algebra))
    abelian = [g for g in groups if g and (g[0] == g[0].T).all()]
    if not abelian:
        return False
    mul, e, inv = abelian[0]
    for op in algebra.ops:
        f = np.asarray(op.table).reshape((n,) * op.arity)
        g, whole = mul[f, inv[f[(e,) * op.arity]]], np.array(e)
        for i in range(op.arity):
            gi = g[(e,) * i + (slice(None),) + (e,) * (op.arity - 1 - i)]
            if (gi[mul] != mul[gi[:, None], gi]).any():
                return False
            whole = mul[whole[..., None], gi]
        if (whole != g).any():
            return False
    return True


def commutator(
    algebra: FiniteAlgebra, left: Partition, right: Partition, floor=None, budget=None
) -> Partition:
    """Term-condition commutator [left, right] of two congruences, or with
    a ``floor`` below both the relative one: the least d >= floor with
    C(left, right; d).  The term condition passes through A -> A/floor, so
    that is the lift of [left/floor, right/floor] in A/floor, and in a
    modular variety it is [left, right] v floor (Freese and McKenzie 1987,
    ch. 4).

    The path is chosen by the algebra alone.  One with a Latin-square
    operation (``latin_square``) has the quasigroup Malcev term, so it
    generates a congruence permutable, hence modular, variety.  If that
    operation is associative and the only one of positive arity, A is a
    group, its congruences are the coset partitions of normal subgroups,
    and [left, right] is that of [M, N], M and N the identity's blocks
    (ch. 1; ``_group_commutator``), for an n**3 associativity check a
    call.  Any other reads it off Delta on A(left) (ch. 4).  Every other
    algebra closes the matrix subalgebra M(left, right) of A^4 on the
    closure kernel, charged to ``budget`` (``Structure.commutator`` passes
    its own), and applies the term condition (``_matrix_commutator``),
    whose forcing loop starts from the floor.  Uncached:
    ``Structure.commutator`` keeps each result for the run.
    """
    square = latin_square(algebra)
    if square is None:
        return _matrix_commutator(algebra, left, right, floor, budget)
    pure = all(op is square or not op.arity for op in algebra.ops)
    if pure and (group := _group(square, algebra.size)):
        found = _group_commutator(group, left, right)
    else:
        found = _diagonal_commutator(algebra, left, right)
    return found.join(floor) if floor else found


def lower_central_chain(s: Structure, beta: Partition) -> list[Partition]:
    """beta = g_0 > g_1 > ... with g_{k+1} = [g_k, beta], up to zero or to
    the first term that repeats, which is left out."""
    chain = [beta]
    while chain[-1] != s.lattice.zero:
        g = s.commutator(chain[-1], beta)
        if g in chain:
            break
        chain.append(g)
    return chain


def is_nilpotent_congruence(s: Structure, beta: Partition) -> bool:
    return lower_central_chain(s, beta)[-1] == s.lattice.zero


# ---------------------------------------------------------------------------
# Characteristics and prime-uniform intervals
# ---------------------------------------------------------------------------


def charr_set(s: Structure, lo: Partition, hi: Partition) -> frozenset[int]:
    """Characteristics of all covering pairs inside the interval [lo, hi]."""
    if not lo.leq(hi):
        raise ValueError("lo must lie below hi")
    return frozenset(
        s.characteristic(a, b) for a, b in s.lattice.cover_pairs(lo, hi)
    )


def is_pupi(s: Structure, lo: Partition, hi: Partition) -> bool:
    """Does [lo, hi] split into independent single-characteristic pieces?

    Searches for congruences a_1..a_k strictly above lo inside the interval
    with join hi, each a_i meeting the join of the others in lo, and each
    charr{lo, a_i} a single prime.  Family size is capped by the number of
    atoms of the interval.
    """
    if lo == hi:
        return True
    lat = s.lattice
    cands = [
        c
        for c in lat.interval(lo, hi)
        if c != lo and len(charr_set(s, lo, c)) == 1
    ]
    interval_atoms = [hi2 for lo2, hi2 in lat.cover_pairs(lo, hi) if lo2 == lo]
    max_k = max(1, len(interval_atoms))
    for k in range(1, max_k + 1):
        for parts in combinations(cands, k):
            join = lo
            for c in parts:
                join = join.join(c)
            if join != hi:
                continue
            for i, c in enumerate(parts):
                rest = lo
                for j, other in enumerate(parts):
                    if i != j:
                        rest = rest.join(other)
                if c.meet(rest) != lo:
                    break
            else:
                return True
    return False


def is_supernilpotent_congruence(s: Structure, beta: Partition) -> bool:
    """Nilpotent and [0, beta] is a prime-uniform product interval."""
    zero = s.lattice.zero
    if beta == zero:
        return True
    if not is_nilpotent_congruence(s, beta):
        return False
    return is_pupi(s, zero, beta)


def is_supernilpotent_algebra(
    algebra: FiniteAlgebra, budget: Optional[Budget] = None
) -> bool:
    s = structure(algebra, budget)
    return is_supernilpotent_congruence(s, s.lattice.one)


# ---------------------------------------------------------------------------
# Distinguished congruences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistinguishedCongruences:
    """The three landmarks of the lattice used by the compiler:

    - largest_supernilpotent: biggest congruence that is nilpotent with a
      prime-uniform interval down to zero;
    - smallest_supernilpotent_quotient: least congruence whose quotient
      algebra is supernilpotent;
    - by_prime: for each prime dividing |A|, the biggest supernilpotent
      congruence all of whose blocks have p-power size.
    """

    largest_supernilpotent: Partition
    smallest_supernilpotent_quotient: Partition
    by_prime: dict[int, Partition]


def _unique_max(cands: list[Partition], what: str) -> Partition:
    tops = [c for c in cands if all(d.leq(c) for d in cands)]
    if len(tops) != 1:
        raise ValueError(f"{what}: no unique maximum among {len(cands)} candidates")
    return tops[0]


def _unique_min(cands: list[Partition], what: str) -> Partition:
    bots = [c for c in cands if all(c.leq(d) for d in cands)]
    if len(bots) != 1:
        raise ValueError(f"{what}: no unique minimum among {len(cands)} candidates")
    return bots[0]


def distinguished_congruences(s: Structure) -> DistinguishedCongruences:
    lat = s.lattice
    supernil = [c for c in lat.elements if is_supernilpotent_congruence(s, c)]
    largest = _unique_max(supernil, "largest supernilpotent congruence")

    quot_ok = [
        c for c in lat.elements
        if is_supernilpotent_congruence(s.quotient(c), lat.one)
    ]
    smallest = _unique_min(quot_ok, "smallest supernilpotent quotient")

    by_prime = {}
    for p in prime_divisors(s.algebra.size):
        cands = [
            c
            for c in supernil
            if all(set(prime_divisors(len(b))) <= {p} for b in c.blocks())
        ]
        by_prime[p] = _unique_max(cands, f"largest supernilpotent for prime {p}")
    return DistinguishedCongruences(largest, smallest, by_prime)


def supernilpotent_rank(s: Structure) -> Optional[int]:
    """Least number of steps in a chain 0 = t_0 < ... < t_k = 1 whose every
    interval [t_i, t_{i+1}] splits into independent single-prime pieces.

    Computed as a shortest path in the congruence lattice; intervals where
    the split test is undefined (a non-abelian cover inside) are simply not
    edges.  Returns None when no such chain exists.
    """
    lat = s.lattice
    start = lat.index(lat.zero)
    goal = lat.index(lat.one)
    if start == goal:
        return 0
    dist: dict[int, int] = {start: 0}
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for i in frontier:
            lo = lat.elements[i]
            for hi in lat.interval(lo, lat.one):
                j = lat.index(hi)
                if j in dist:
                    continue
                try:
                    ok = is_pupi(s, lo, hi)
                except ValueError:
                    ok = False
                if ok:
                    dist[j] = dist[i] + 1
                    if j == goal:
                        return dist[j]
                    nxt.append(j)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# Product decompositions into prime-power factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """A direct decomposition A ~ prod A/eta_j into prime-power factors.

    ``primes[j]`` is the prime of factor j and ``projections[j]`` the
    universe map onto the quotient A/eta_j; the joint projection is a
    verified bijection onto the product.
    """

    projections: tuple[tuple[int, ...], ...]
    primes: tuple[int, ...]


def prime_power_decomposition(s: Structure, name: str) -> Decomposition:
    """Split A/theta into factors of prime-power size via complementary
    congruences; ``s`` is A's Structure (theta = 0) or its view
    ``quotient(theta)``, and ``name`` the caller's name for A/theta.

    The kernels are picked in [theta, 1], A/theta's lattice by the
    correspondence theorem, so no quotient algebra or second lattice is
    built.  A/theta's elements are the theta-blocks, and they and each
    kernel's blocks are numbered by least member, as ``quotient_algebra``
    and ``Partition.labels`` number them.  For each prime p the kernel has
    the p-part of |A/theta| blocks, each of equally many theta-blocks, and
    the family's joint projection must be injective, so by counting it is a
    bijection.  A one-element A/theta has no prime dividing its size; the
    refusal names ``name``, as ``s.algebra`` may be a copy.
    """
    lat = s.lattice
    reps = sorted(set(lat.zero.class_of))
    n = len(reps)
    if n == 1:
        raise ValueError(f"{name} has one element, so no prime divides its size")
    primes = prime_divisors(n)
    labels = [c.labels() for c in lat.elements]
    projections = [tuple(row[x] for x in reps) for row in labels]
    cand_lists = []
    for p in primes:
        q = p  # the p-part of n
        while n % (q * p) == 0:
            q *= p
        cands = [
            proj for proj in projections
            if all(proj.count(i) == n // q for i in range(q))
        ]
        if not cands:
            raise ValueError(f"no factor kernel candidate for prime {p}")
        cand_lists.append(cands)
    for family in product(*cand_lists):
        if len(set(zip(*family))) == n:
            return Decomposition(family, tuple(primes))
    raise ValueError("no complementary family of prime-power kernels found")

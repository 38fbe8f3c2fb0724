"""Local structure of prime quotients: minimal sets and traces.

For a covering pair (lo, hi) of congruences, a minimal set is an
inclusion-minimal range of a unary polynomial that does not collapse hi into
lo.  Traces are the hi-blocks of a minimal set that consist of more than one
lo-block; on nilpotent fixtures they carry elementary abelian group structure
reachable through the Malcev polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import FiniteAlgebra, UnaryClone
from .congruence import Structure, congruence_generated
from .partitions import Partition


@dataclass(frozen=True)
class MinimalSet:
    """An inclusion-minimal polynomial range U witnessing lo < hi locally.
    Unary polynomials are their value tables."""

    universe: frozenset[int]
    witness: tuple[int, ...]  # separates hi from lo, range U
    idempotent: Optional[tuple[int, ...]]  # range exactly U, e o e = e (when found)


def minimal_sets(s: Structure, lo: Partition, hi: Partition) -> list[MinimalSet]:
    """All minimal sets of the pair (lo, hi), sorted canonically.

    Tests every function of the unary clone at once for separating hi from
    lo (mapping some hi-related pair outside lo), keeps the
    inclusion-minimal ranges, each with its first separating function in
    the clone's order as witness, and attaches an idempotent with that
    exact range: a power of the witness when one works, otherwise a clone
    search.
    """
    clone = s.clone
    first, second = np.array(list(hi.pairs()), dtype=np.intp).reshape(-1, 2).T
    images = np.array(lo.class_of)[clone.tables]
    separates = (images[:, first] != images[:, second]).any(axis=1)
    separating: dict[frozenset[int], tuple[int, ...]] = {}
    for i in np.flatnonzero(separates).tolist():
        fn = clone.functions[i]
        separating.setdefault(frozenset(fn), fn)
    ranges = list(separating)
    minimal = [
        r for r in ranges if not any(o < r for o in ranges)
    ]
    out = []
    for r in sorted(minimal, key=sorted):
        witness = separating[r]
        idem = _idempotent_for(clone, witness, r)
        out.append(MinimalSet(r, witness, idem))
    return out


def _idempotent_for(
    clone: UnaryClone, witness: tuple[int, ...], universe: frozenset[int]
) -> Optional[tuple[int, ...]]:
    def fits(fn: tuple[int, ...]) -> bool:  # range exactly U, e o e = e
        return frozenset(fn) == universe and all(fn[v] == v for v in fn)

    power = witness
    for _ in range(len(power)):
        if clone.lookup(power) is not None and fits(power):
            return power
        power = tuple(witness[x] for x in power)
    return clone.find(fits)


def traces(
    algebra: FiniteAlgebra,
    universe: frozenset[int],
    lo: Partition,
    hi: Partition,
) -> list[frozenset[int]]:
    """Trace bodies of a minimal set: the hi|U-blocks that are not single
    lo|U-blocks, each returned as the full block (a union of lo-blocks)."""
    members = sorted(universe)
    hi_blocks: dict[int, list[int]] = {}
    for x in members:
        hi_blocks.setdefault(hi.class_of[x], []).append(x)
    out = []
    for block in hi_blocks.values():
        lo_ids = {lo.class_of[x] for x in block}
        if len(lo_ids) > 1:
            out.append(frozenset(block))
    return sorted(out, key=sorted)


def minimal_set_through(
    s: Structure, lo: Partition, hi: Partition, e: int
) -> Optional[MinimalSet]:
    """A minimal set of (lo, hi) containing the element e.

    Walks the underlying existence argument: pick any minimal set V and a
    pair (c, d) in hi|V - lo, find a with (e, a) generated by (c, d) but
    outside lo, then a unary polynomial p with p(c, d) = (e, a); p(V) is the
    requested minimal set.  Returns None (with no side effects) if some step
    finds no witness.
    """
    sets = minimal_sets(s, lo, hi)
    if not sets:
        return None
    algebra, clone = s.algebra, s.clone
    ranges = {s.universe for s in sets}
    for base in sets:
        members = sorted(base.universe)
        for c in members:
            for d in members:
                if c == d or lo.same(c, d) or not hi.same(c, d):
                    continue
                theta = congruence_generated(s.translations, [(c, d)])
                for a in algebra.elements:
                    if lo.same(e, a) or not theta.same(e, a):
                        continue
                    p = clone.mapping([(c, e), (d, a)])
                    if p is None:
                        continue
                    image = frozenset(p[x] for x in members)
                    if image in ranges:
                        idem = _idempotent_for(clone, p, image)
                        return MinimalSet(image, p, idem)
    return None

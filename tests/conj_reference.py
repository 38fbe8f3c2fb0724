"""Reference oracle: the frozenset Gray walk of the mod-2 conjunction.

``conj_modsum_mod2`` below is the earlier implementation of
``nudfa.lowering._conj_modsum_mod2``, kept as it was apart from its
name and its return.  It XORs each parity form as a frozenset of
monomials, where the package numbers the monomials and XORs int masks; it
serves as a differential oracle: the same terms in the same order, and the
same atoms pooled in the same order.  Its terms are frozensets of pool
ids, converted to the package's int masks on return.
"""

from __future__ import annotations

from typing import Sequence

from nudfa.fieldpoly import MultilinearPoly
from nudfa.lowering import AtomPool, ModAtom, make_atom
from poly_reference import as_masks


def conj_modsum_mod2(
    pool: AtomPool, atoms: Sequence[ModAtom], p: int
) -> MultilinearPoly:
    """Fast conjunction for m = 2: [y=r] = (1 + (-1)^(y+r))/2 over GF(p),
    so the product expands into XOR-combinations of the parity forms."""
    forms: list[frozenset] = []
    residues: list[int] = []
    for a in atoms:
        if a.accepting == frozenset({0, 1}):
            continue  # constant 1 factor
        if not a.accepting:
            return MultilinearPoly(p)  # constant 0 factor
        forms.append(frozenset(key for key, _ in a.coeffs))
        residues.append(0 if 0 in a.accepting else 1)
    k = len(forms)
    if k == 0:
        return MultilinearPoly.constant(p, 1)
    inv2 = pow(2, -1, p)
    unit = pow(inv2, k - 1, p)
    offset = 0
    acc: dict[frozenset, int] = {}
    # Gray-code walk: successive subsets differ in a single atom
    form: frozenset = frozenset()
    r = 0
    gray_prev = 0
    for idx in range(1 << k):
        gray = idx ^ (idx >> 1)
        diff = gray ^ gray_prev
        if diff:
            i = diff.bit_length() - 1
            form ^= forms[i]
            r ^= residues[i]
        gray_prev = gray
        coeff = unit if r == 0 else (-unit) % p
        if form:
            acc[form] = (acc.get(form, 0) + coeff) % p
        else:
            offset += coeff
    if all(r == 0 for r in residues):
        offset -= 1
    terms = {frozenset(): offset}
    for form, c in acc.items():
        if c % p == 0:
            continue
        atom = make_atom(2, {key: 1 for key in form}, {0})
        if atom is None:
            raise AssertionError("conjunction form collapsed to a constant")
        terms[frozenset([pool.get(atom)])] = c
    return MultilinearPoly(p, as_masks(terms))

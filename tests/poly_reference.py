"""Reference oracle: the frozenset-keyed ring that int masks replaced.

``add``, ``mul`` and ``substitute`` below are the earlier
``nudfa.fieldpoly.MultilinearPoly`` methods of those names, on plain dicts
from frozensets of variables to coefficients mod p.  The package keys a
monomial by an int mask (bit i for variable i) and takes the union of two
monomials with ``|``; these serve as a differential oracle for it: the same
coefficients, in the same term order.  ``as_masks`` converts a frozenset
dict to the package's keys, keeping that order.
"""

from __future__ import annotations


def as_masks(terms: dict) -> dict:
    return {sum(1 << i for i in key): c for key, c in terms.items()}


def add(p: int, f: dict, g: dict) -> dict:
    out = dict(f)
    for k, c in g.items():
        v = (out.get(k, 0) + c) % p
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def mul(p: int, f: dict, g: dict) -> dict:
    out: dict = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = k1 | k2
            v = (out.get(k, 0) + c1 * c2) % p
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def substitute(p: int, f: dict, mapping: dict) -> dict:
    res: dict = {}
    for k, c in f.items():
        term = {frozenset(): c}
        for v in sorted(k):
            term = mul(p, term, mapping.get(v, {frozenset([v]): 1}))
        res = add(p, res, term)
    return res

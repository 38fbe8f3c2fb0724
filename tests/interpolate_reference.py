"""Reference oracle: the pure-Python Moebius transform the numpy one replaced.

``multilinear_interpolate`` below is the earlier implementation of
``nudfa.fieldpoly.multilinear_interpolate``, kept as it was apart from its
docstring and its return.  It visits every (variable, row) pair and serves as a
differential oracle for the vectorised transform: the same coefficients, in
the same term order.  It keys terms by frozensets of variables, as the
package once did, and converts them to the package's int masks on return.
"""

from __future__ import annotations

from typing import Sequence

from nudfa.fieldpoly import MultilinearPoly
from poly_reference import as_masks


def multilinear_interpolate(table: Sequence[int], p: int) -> MultilinearPoly:
    size = len(table)
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("table length must be a power of two")
    t = [v % p for v in table]
    for i in range(n):
        bit = 1 << i
        for mask in range(size):
            if mask & bit:
                t[mask] = (t[mask] - t[mask ^ bit]) % p
    terms = {}
    for mask in range(size):
        if t[mask]:
            terms[frozenset(i for i in range(n) if mask >> i & 1)] = t[mask]
    return MultilinearPoly(p, as_masks(terms))

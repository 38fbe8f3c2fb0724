"""Built-in example algebras with verified invariants.

Each fixture bundles a finite algebra with its expected number of
congruences.  ``get_fixture`` runs a self-test on first access: the
recorded count must match a fresh lattice computation.  An algebra's
Malcev term comes from its ``congruence.Structure``, as for any other
algebra.  ``resolve_algebra`` understands the ``fixtures:NAME`` URI scheme
used by the command line tools and falls back to loading a JSON file.

The registry:

=========  ==============================================================
Z2 Z3 Z4   cyclic groups (Zk; +)
Z6         the cyclic group (Z6; +)
Z6%2       (Z6; +, %2) -- Z6 expanded with the parity retraction x % 2
LAT2       the two-element lattice ({0,1}; and, or); no Malcev polynomial
S3         the symmetric group on three points, multiplication only
=========  ==============================================================

Elements of S3 are permutations of {0,1,2} in lexicographic order:
0=(012), 1=(021), 2=(102), 3=(120), 4=(201), 5=(210), composing left
permutation after right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .algebra import FiniteAlgebra, make_op
from .circuits import CircuitBuilder
from .congruence import structure
from .programs import AlgProgram, Instruction


@dataclass(frozen=True)
class Fixture:
    """An example algebra plus recorded invariants used as self-tests."""

    name: str
    algebra: FiniteAlgebra
    congruence_count: int
    description: str


def _cyclic(k: int, name: str) -> FiniteAlgebra:
    return FiniteAlgebra(
        name, k, (make_op("+", 2, k, lambda x, y: (x + y) % k),)
    )


def _z6mod2() -> FiniteAlgebra:
    return FiniteAlgebra(
        "Z6%2",
        6,
        (
            make_op("+", 2, 6, lambda x, y: (x + y) % 6),
            make_op("%2", 1, 6, lambda x: x % 2),
        ),
    )


def _lat2() -> FiniteAlgebra:
    return FiniteAlgebra(
        "LAT2",
        2,
        (
            make_op("and", 2, 2, lambda x, y: x & y),
            make_op("or", 2, 2, lambda x, y: x | y),
        ),
    )


S3_PERMS: tuple[tuple[int, ...], ...] = tuple(
    itertools.permutations(range(3))
)


def _s3() -> FiniteAlgebra:
    def mul(a: int, b: int) -> int:
        pa, pb = S3_PERMS[a], S3_PERMS[b]
        return S3_PERMS.index(tuple(pa[pb[i]] for i in range(3)))

    return FiniteAlgebra("S3", 6, (make_op("*", 2, 6, mul),))


def _build_registry() -> dict[str, Fixture]:
    reg: dict[str, Fixture] = {}

    def add(
        name: str,
        algebra: FiniteAlgebra,
        congruence_count: int,
        description: str,
    ) -> None:
        reg[name] = Fixture(name, algebra, congruence_count, description)

    for k, count in ((2, 2), (3, 2), (4, 3), (6, 4)):
        add(f"Z{k}", _cyclic(k, f"Z{k}"), count, f"cyclic group of order {k}")
    add(
        "Z6%2",
        _z6mod2(),
        3,
        "Z6 with the parity retraction; nilpotent but not supernilpotent",
    )
    add(
        "LAT2",
        _lat2(),
        2,
        "two-element lattice; not congruence-permutable",
    )
    add(
        "S3",
        _s3(),
        3,
        "symmetric group on 3 points; solvable, not nilpotent",
    )
    return reg


_REGISTRY = _build_registry()
_CHECKED: set[str] = set()


def fixture_names() -> list[str]:
    return sorted(_REGISTRY)


def _canonical(name: str, pool: dict) -> str:
    """Exact match first, then case-insensitive with 'mod' for '%'."""
    if name in pool:
        return name
    folded = name.strip().lower().replace("mod", "%")
    for key in pool:
        if key.lower().replace("mod", "%") == folded:
            return key
    return name


def get_fixture(name: str) -> Fixture:
    """Fetch a fixture by name, running its recorded self-tests once."""
    name = _canonical(name, _REGISTRY)
    try:
        fix = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None
    if name not in _CHECKED:
        lat = structure(fix.algebra).lattice
        if len(lat.elements) != fix.congruence_count:
            raise AssertionError(
                f"fixture {name}: recorded congruence count "
                f"{fix.congruence_count} != computed {len(lat.elements)}"
            )
        _CHECKED.add(name)
    return fix


def resolve_algebra(spec: str) -> FiniteAlgebra:
    """Turn a ``fixtures:NAME`` URI or a JSON file path into an algebra."""
    if spec.startswith("fixtures:"):
        return get_fixture(spec[len("fixtures:") :]).algebra
    return FiniteAlgebra.load(spec)


# ---------------------------------------------------------------------------
# Small demonstration programs over the fixtures
# ---------------------------------------------------------------------------


def _two_bit_program(
    algebra: FiniteAlgebra,
    op_name: str,
    zero: int,
    one: int,
    accepting: frozenset[int],
) -> AlgProgram:
    b = CircuitBuilder(2)
    out = b.gate(op_name, b.var(0), b.var(1))
    circ = b.finish(out)
    instrs = (
        Instruction(var=0, bit=0, a0=zero, a1=one),
        Instruction(var=1, bit=1, a0=zero, a1=one),
    )
    return AlgProgram(
        algebra=algebra,
        circuit=circ,
        n=2,
        instructions=instrs,
        accepting=accepting,
    )


_DEMOS: dict[str, Callable[[], AlgProgram]] = {
    # x1 + x2 over Z6 with 0/1 inputs lands in {2} only for input 11.
    "and2_z6%2": lambda: _two_bit_program(
        get_fixture("Z6%2").algebra, "+", 0, 1, frozenset({2})
    ),
    "and2_z6": lambda: _two_bit_program(
        get_fixture("Z6").algebra, "+", 0, 1, frozenset({2})
    ),
    "parity2_z2": lambda: _two_bit_program(
        get_fixture("Z2").algebra, "+", 0, 1, frozenset({1})
    ),
    "or2_lat2": lambda: _two_bit_program(
        get_fixture("LAT2").algebra, "or", 0, 1, frozenset({1})
    ),
}


def demo_names() -> list[str]:
    return sorted(_DEMOS)


def demo_program(name: str) -> AlgProgram:
    """A named two-input example program (see ``demo_names``)."""
    name = _canonical(name, _DEMOS)
    try:
        return _DEMOS[name]()
    except KeyError:
        raise KeyError(
            f"unknown demo {name!r}; available: {', '.join(demo_names())}"
        ) from None

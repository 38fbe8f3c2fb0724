"""Minimal sets, traces, and local group structure on the fixtures."""

from __future__ import annotations

import pytest

from nudfa.algebra import quotient_algebra
from nudfa.compile import central_representation
from nudfa.congruence import structure
from nudfa.fixtures import fixture_names, get_fixture
from nudfa.localize import (
    minimal_set_through,
    minimal_sets,
    traces,
)
from nudfa.partitions import Partition

ETA = Partition.from_blocks(6, [{0, 2, 4}, {1, 3, 5}])


@pytest.fixture(scope="module")
def marked():
    fx = get_fixture("Z6%2")
    s = structure(fx.algebra)
    return fx, s, s.lattice


def test_minimal_sets_of_the_characteristic_three_cover(marked):
    fx, s, lat = marked
    sets = minimal_sets(s, lat.zero, ETA)
    assert [sorted(s.universe) for s in sets] == [[0, 2, 4], [1, 3, 5]]
    for ms in sets:
        assert frozenset(ms.witness) == ms.universe
        assert ms.idempotent is not None
        assert all(ms.idempotent[v] == v for v in ms.idempotent)
        assert frozenset(ms.idempotent) == ms.universe


def test_minimal_sets_of_the_characteristic_two_cover(marked):
    fx, s, lat = marked
    sets = minimal_sets(s, ETA, lat.one)
    # every two-element polynomial image crossing the parity classes
    assert [sorted(s.universe) for s in sets] == [
        [0, 1], [0, 3], [0, 5], [1, 2], [1, 4],
        [2, 3], [2, 5], [3, 4], [4, 5],
    ]
    assert all(len(s.universe) == 2 for s in sets)


@pytest.mark.parametrize("name", fixture_names())
def test_minimal_sets_keep_the_first_separating_witness(name):
    """Against a walk of the clone one function at a time: on every cover
    of every fixture the minimal ranges are the inclusion-minimal ranges
    of the functions mapping a hi-related pair outside lo, and each
    witness is the first such function with that range."""
    s = structure(get_fixture(name).algebra)
    lat = s.lattice
    for a, b in lat.covers:
        lo, hi = lat.elements[a], lat.elements[b]
        first = {}
        for fn in s.clone:
            if any(not lo.same(fn[x], fn[y]) for x, y in hi.pairs()):
                first.setdefault(frozenset(fn), fn)
        minimal = [r for r in first if not any(o < r for o in first)]
        got = minimal_sets(s, lo, hi)
        assert [m.universe for m in got] == sorted(minimal, key=sorted)
        assert all(m.witness is first[m.universe] for m in got)


def test_traces_are_the_blocks_that_actually_split(marked):
    fx, s, lat = marked
    lower = minimal_sets(s, lat.zero, ETA)[0]
    assert [sorted(t) for t in traces(fx.algebra, lower.universe, lat.zero, ETA)] == [
        [0, 2, 4]
    ]
    upper = minimal_sets(s, ETA, lat.one)[0]
    assert [sorted(t) for t in traces(fx.algebra, upper.universe, ETA, lat.one)] == [
        [0, 1]
    ]


def test_block_group_is_an_elementary_abelian_three_group(marked):
    """The blocks of 0 and 1 are Z3 under x + y = d(x, e, y): the block sums
    2 + 4 = 0 and 4 + 4 = 2 around 0, and 3 + 5 = 1 and 3 + 3 = 5 around 1,
    read in the coordinates of the central representation."""
    fx, s, _ = marked
    quo = quotient_algebra(fx.algebra, ETA)
    for e, sums in [(0, [(2, 4, 0), (4, 4, 2)]), (1, [(3, 5, 1), (3, 3, 5)])]:
        rep = central_representation(fx.algebra, *quo, e, s.malcev)
        assert (rep.p, rep.nu) == (3, 1)
        for x, y, z in sums:
            assert ((rep.mcoords[x] + rep.mcoords[y]) % 3 == rep.mcoords[z]).all()


def test_minimal_set_through_a_requested_element(marked):
    _, s, lat = marked
    all_ranges = {ms.universe for ms in minimal_sets(s, ETA, lat.one)}
    for e in range(6):
        ms = minimal_set_through(s, ETA, lat.one, e)
        assert ms is not None
        assert e in ms.universe
        assert ms.universe in all_ranges

"""Partition normal form and its lattice operations."""

import pytest
from hypothesis import given, strategies as st

import lattice_reference

from nudfa.partitions import Partition


def from_labels(labels):
    """Build a partition from arbitrary block labels (hypothesis input)."""
    n = len(labels)
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if labels[i] == labels[j]
    ]
    return Partition.from_pairs(n, pairs)


labelings = st.lists(
    st.integers(min_value=0, max_value=4), min_size=0, max_size=7
)


def test_normal_form_rejects_non_least_member():
    with pytest.raises(ValueError):
        Partition((1, 1))
    with pytest.raises(ValueError):
        Partition((0, 2, 2))


def test_identity_and_total():
    ident = Partition.identity(4)
    total = Partition.total(4)
    assert ident.num_blocks() == 4
    assert total.num_blocks() == 1
    assert ident.leq(total)
    assert not total.leq(ident)
    assert ident.is_identity() and not total.is_identity()
    assert ident.labels() == (0, 1, 2, 3) and total.labels() == (0, 0, 0, 0)


def test_labels_number_blocks_by_least_member():
    assert Partition.from_blocks(6, [[3, 2], [5, 0], [4, 1]]).labels() == (
        0, 1, 2, 2, 1, 0
    )
    assert Partition.from_blocks(5, [[3, 1]]).labels() == (0, 1, 2, 1, 3)


def test_from_blocks_matches_from_pairs():
    a = Partition.from_blocks(6, [[0, 2, 4], [1, 3, 5]])
    b = Partition.from_pairs(6, [(0, 2), (2, 4), (1, 3), (3, 5)])
    assert a == b
    assert a.blocks() == [[0, 2, 4], [1, 3, 5]]
    assert a.same(0, 4) and not a.same(0, 1)


@given(labelings)
def test_same_iff_equal_labels(labels):
    part = from_labels(labels)
    n = len(labels)
    for i in range(n):
        for j in range(n):
            assert part.same(i, j) == (labels[i] == labels[j])


@given(labelings, labelings)
def test_meet_is_greatest_lower_bound(a, b):
    n = min(len(a), len(b))
    x, y = from_labels(a[:n]), from_labels(b[:n])
    m = x.meet(y)
    assert m.leq(x) and m.leq(y)
    for i in range(n):
        for j in range(n):
            assert m.same(i, j) == (x.same(i, j) and y.same(i, j))


@given(labelings, labelings)
def test_join_is_least_upper_bound(a, b):
    n = min(len(a), len(b))
    x, y = from_labels(a[:n]), from_labels(b[:n])
    j = x.join(y)
    assert x.leq(j) and y.leq(j)
    # any upper bound of both contains the join
    for i in range(n):
        for k in range(n):
            if x.same(i, k) or y.same(i, k):
                assert j.same(i, k)


@given(labelings, labelings)
def test_leq_agrees_with_meet(a, b):
    n = min(len(a), len(b))
    x, y = from_labels(a[:n]), from_labels(b[:n])
    assert x.leq(y) == (x.meet(y) == x)


@given(labelings, labelings)
def test_join_and_order_match_the_earlier_ones(a, b):
    """The label-vector join and order test agree with the earlier
    pair-union join and block-map order test."""
    n = min(len(a), len(b))
    x, y = from_labels(a[:n]), from_labels(b[:n])
    assert x.join(y) == lattice_reference.join(x, y)
    assert x.leq(y) == lattice_reference.leq(x, y)
    assert y.leq(x.join(y))

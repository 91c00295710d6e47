"""Index enumeration against brute-force oracles."""

from itertools import permutations

from hopftower.indices import (compositions_of, index_sort_key, partitions_of,
                                rearrangements_of)


def brute_compositions(n):
    # independent recursion: first part then the rest
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in brute_compositions(n - first):
            out.append((first,) + rest)
    return out


def brute_partitions(n, maxpart=None):
    if maxpart is None:
        maxpart = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in brute_partitions(n - first, first):
            out.append((first,) + rest)
    return out


def test_composition_sets_match_oracle():
    for n in range(9):
        assert set(compositions_of(n)) == set(brute_compositions(n))


def test_composition_counts():
    assert len(compositions_of(0)) == 1
    for n in range(1, 13):
        assert len(compositions_of(n)) == 2 ** (n - 1)


def test_partition_sets_match_oracle():
    for n in range(10):
        assert set(partitions_of(n)) == set(brute_partitions(n))


def test_partition_counts():
    # classical values p(0)..p(9)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, want in enumerate(expected):
        assert len(partitions_of(n)) == want


def test_pinned_small_enumerations():
    assert compositions_of(3) == ((3,), (2, 1), (1, 2), (1, 1, 1))
    assert set(partitions_of(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1),
                                     (1, 1, 1, 1)}


def test_sort_key_orders_by_weight_then_position():
    indices = [(2,), (1, 1), (1,), (), (3,), (1, 2), (2, 1), (1, 1, 1)]
    ordered = sorted(indices, key=index_sort_key)
    assert ordered.index(()) == 0
    assert ordered.index((1,)) == 1
    # all weight-2 indices come before all weight-3 indices
    w = [sum(i) for i in ordered]
    assert w == sorted(w)


def test_rearrangements_are_the_distinct_permutations():
    for w in range(9):
        for lam in partitions_of(w):
            got = rearrangements_of(lam)
            assert len(got) == len(set(got)) and set(got) == set(permutations(lam)), lam
    assert rearrangements_of((2, 1, 1)) == ((2, 1, 1), (1, 2, 1), (1, 1, 2))

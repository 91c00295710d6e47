"""Compositions and partitions of nonnegative integers.

Compositions (ordered tuples of positive parts) index the bases of the
noncommutative and quasisymmetric algebras; partitions (weakly decreasing
tuples) index the commutative ones.  Enumeration order is deterministic and
documented: both enumerations list tuples in decreasing lexicographic order,
so ``3`` enumerates as ``(3), (2, 1), (1, 2), (1, 1, 1)`` respectively
``(3), (2, 1), (1, 1, 1)``.

The canonical *sort* order used when printing elements and emitting JSON is
different: terms are ordered by (weight, parts lexicographically ascending),
see :func:`index_sort_key`.
"""

from functools import lru_cache

from .errors import DomainError


def _check_weight(n):
    if not isinstance(n, int) or n < 0:
        raise DomainError("weight must be a nonnegative integer, got %r" % (n,))


@lru_cache(maxsize=None)
def compositions_of(n):
    """All compositions of ``n``, largest first part first; 2^(n-1) of them."""
    _check_weight(n)
    if n == 0:
        return ((),)
    out = []
    for first in range(n, 0, -1):
        for rest in compositions_of(n - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of ``n`` in reverse-lexicographic order."""
    _check_weight(n)
    return _partitions_bounded(n, n)


@lru_cache(maxsize=None)
def _partitions_bounded(n, largest):
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def sort_to_partition(comp):
    """Forget the order of a composition, yielding a partition."""
    return tuple(sorted(comp, reverse=True))


def index_sort_key(idx):
    """Canonical display order for basis indices: by weight, then lex."""
    return (sum(idx), idx)

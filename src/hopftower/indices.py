"""Compositions and partitions of nonnegative integers, the rearrangements of
a partition, and the one check on an integer argument.

Compositions (ordered tuples of positive parts) index the bases of the
noncommutative and quasisymmetric algebras; partitions (weakly decreasing
tuples) index the commutative ones.  Enumeration order is deterministic and
documented: both enumerations list tuples in decreasing lexicographic order,
so ``3`` enumerates as ``(3), (2, 1), (1, 2), (1, 1, 1)`` respectively
``(3), (2, 1), (1, 1, 1)``.

The canonical *sort* order used when printing elements and emitting JSON is
different: terms are ordered by (weight, parts lexicographically ascending),
see :func:`index_sort_key`.

Every size a caller passes (a weight, a degree, a cap, a dimension, an
exponent, a number of variables) goes through :func:`natural`: it must be an
``int``, never a ``bool``, a float or a string, and anything else raises
``DomainError`` naming the argument.  The parts of a basis index are checked
by ``linear.LinearElement.canonical_index`` instead.

The one count over partitions lives here too, :func:`power_count`: the
substitution maps of ``diffeo`` read it at nonnegative powers, the antipode
of e_n in ``sym`` at -1, and ``series.reverted_power`` at -n.
"""

from functools import lru_cache

from .errors import DomainError


def natural(n, what, least=0):
    """``n`` when it is an ``int`` of at least ``least``; otherwise
    ``DomainError`` naming the argument ``what``.  A ``bool`` is refused
    although it is an ``int`` subclass, since ``True`` would run as 1."""
    if type(n) is not int:
        raise DomainError("%s must be an int, not %r" % (what, n))
    if n < least:
        raise DomainError("%s must be at least %s" % (what, least))
    return n


@lru_cache(maxsize=None)
def compositions_of(n):
    """All compositions of ``n``, largest first part first; 2^(n-1) of them."""
    if natural(n, "weight") == 0:
        return ((),)
    out = []
    for first in range(n, 0, -1):
        for rest in compositions_of(n - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of ``n`` in reverse-lexicographic order."""
    return _partitions_bounded(natural(n, "weight"), n)


@lru_cache(maxsize=None)
def rearrangements_of(lam):
    """The distinct orderings of the parts of the partition ``lam``, each made
    once, l! / prod_i m_i! of them, in decreasing lexicographic order: each
    distinct part in turn leads, followed by the rearrangements of the rest."""
    if not lam:
        return ((),)
    return tuple((part,) + rest for i, part in enumerate(lam) if i == 0 or part != lam[i - 1]
                 for rest in rearrangements_of(lam[:i] + lam[i + 1:]))


@lru_cache(maxsize=None)
def _partitions_bounded(n, largest):
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def index_sort_key(idx):
    """Canonical display order for basis indices: by weight, then lex."""
    return (sum(idx), idx)


def power_count(a, lam):
    """The coefficient of g_lam in (1 + g_1 T + g_2 T^2 + ...)^a over a
    commutative algebra, for a partition ``lam`` and any ``int`` ``a``:
    (a)_l / prod_i m_i!, with (a)_l = a (a - 1) ... (a - l + 1), l the length
    of ``lam`` and m_i its multiplicities.  An ``int``: C(a, l) times the
    l! / prod_i m_i! orderings of ``lam``.  The equal parts of a partition
    are adjacent, so a run of r of them divides by r!, one factor a step;
    every partial quotient is such a count of a prefix, hence exact."""
    count, run, prev = 1, 0, 0
    for k, part in enumerate(lam):
        run = run + 1 if part == prev else 1
        count = count * (a - k) // run
        prev = part
    return count


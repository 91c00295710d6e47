"""Hopf algebras of formal diffeomorphisms, commutative and noncommutative.

The commutative one (Faa di Bruno) is the free polynomial algebra on t_1,
t_2, ... with t_0 = 1; its coproduct represents composition of series
t(T) = T + t_1 T^2 + ... and its antipode is Lagrange reversion.

The noncommutative counterpart (Brouder-Frabetti-Krattenthaler, BFK) reuses
the free associative algebra on Z_k but installs the renormalization
coproduct: Delta Z_n is the T^{n+1} coefficient of sum_k Z_{k-1} (x) Z(T)^k.
Its antipode on generators comes from ``linear.recursive_antipode``, the
connected-graded recursion, and abelianizes to Lagrange reversion, which is
the main cross-check.

The same substitution combinatorics, read on the commutative side, yields
the coaction of the diffeomorphism algebra on symmetric functions.

Only the generator images live here: every coproduct, coaction and antipode
reaches words through ``linear.on_words``, multiplicatively or, for the
BFK antipode, as an antimorphism.
"""

from functools import lru_cache

from .indices import sort_to_partition, weak_compositions
from .linear import (CommutativeElement, Tensor, TensorSpace, add_term, on_words,
                     recursive_antipode)
from .nsym import NSymElement, z, z_series
from .scalars import ONE
from .series import TruncatedSeries, generator_series
from . import sym


class FdBElement(CommutativeElement):
    """Polynomial in the diffeomorphism coordinates t_k, indexed by partitions."""

    LETTER = "t"
    __slots__ = ()


def t(*parts):
    return FdBElement({tuple(sorted(parts, reverse=True)): ONE})


def t_series(cap):
    """T + t_1 T^2 + t_2 T^3 + ...: the generic formal diffeomorphism."""
    return generator_series(FdBElement, cap)


# -- composition coproduct -------------------------------------------------

@lru_cache(maxsize=None)
def _fdb_coproduct_gen(n):
    """Coproduct of t_n: the T^{n+1} coefficient of (t (x) 1)((1 (x) t)(T))."""
    space = TensorSpace(FdBElement, FdBElement)
    if n == 0:
        return space.one()
    cap = n + 1
    outer = TruncatedSeries(space, {
        m + 1: Tensor.of(FdBElement({((m,) if m else ()): ONE}), FdBElement.one())
        for m in range(n + 1)}, cap)
    inner = TruncatedSeries(space, {
        k + 1: Tensor.of(FdBElement.one(), FdBElement({((k,) if k else ()): ONE}))
        for k in range(n + 1)}, cap)
    return outer.compose(inner).coefficient(cap)


def fdb_coproduct(f):
    """Composition coproduct, extended to t-monomials multiplicatively."""
    return on_words(f, _fdb_coproduct_gen)


@lru_cache(maxsize=None)
def _fdb_antipode_gen(n):
    """Antipode of t_n: the T^{n+1} coefficient of the reverted series."""
    if n == 0:
        return FdBElement.one()
    return t_series(n + 1).revert().coefficient(n + 1)


def fdb_antipode(f):
    """Lagrange reversion coefficients, extended as an algebra morphism."""
    return on_words(f, _fdb_antipode_gen)


# -- coaction on symmetric functions --------------------------------------

@lru_cache(maxsize=None)
def _coaction_gen(n):
    """psi(e_n): the T^n coefficient of e(t(T)), as an S (x) FdB tensor."""
    space = (sym.SymElement, FdBElement)
    if n == 0:
        return Tensor(space, {((), ()): ONE})
    terms = {}
    for j in range(1, n + 1):
        for wc in weak_compositions(n - j, j):
            lam = tuple(sorted((k for k in wc if k), reverse=True))
            add_term(terms, ((j,), lam), ONE)
    return Tensor(space, terms)


def coaction_sym(f):
    """Right coaction of the diffeomorphism algebra on symmetric functions.

    On generators this reads off the T^n coefficient of e(t(T)); it extends
    multiplicatively, making S a comodule algebra.  Input in any basis; the
    left slots of the output are in the e basis.
    """
    return on_words(sym.convert(f, "e"), _coaction_gen)


# -- renormalization coproduct (BFK) --------------------------------------

@lru_cache(maxsize=None)
def _bfk_coproduct_gen(n):
    """Delta Z_n: the T^{n+1} coefficient of sum_{k>=1} Z_{k-1} (x) Z(T)^k."""
    space = (NSymElement, NSymElement)
    if n == 0:
        return Tensor(space, {((), ()): ONE})
    zs = z_series(n + 1)
    power = TruncatedSeries(NSymElement, {0: NSymElement.one()}, n + 1)
    total = Tensor(space, {})
    for k in range(1, n + 2):
        power = power * zs
        right = power.coefficient(n + 1)
        if not right:
            continue
        left = NSymElement({((k - 1,) if k > 1 else ()): ONE})
        total = total + Tensor.of(left, right)
    return total


def bfk_coproduct(f):
    """Renormalization coproduct on the Z-algebra, extended multiplicatively."""
    return on_words(f, _bfk_coproduct_gen)


@lru_cache(maxsize=None)
def _bfk_antipode_gen(n):
    """Antipode of Z_n by the connected-graded recursion through Delta."""
    return recursive_antipode(_bfk_coproduct_gen(n), lambda w: bfk_antipode(z(*w)))


def bfk_antipode(f):
    """Renormalization antipode; extended to words as an antimorphism."""
    return on_words(f, _bfk_antipode_gen, reverse=True)


def bfk_abelianize(f):
    """Quotient to the commutative diffeomorphism algebra: Z words to t monomials."""
    return FdBElement(f.map_indices(sort_to_partition))

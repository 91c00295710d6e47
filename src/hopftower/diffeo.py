"""Hopf algebras of formal diffeomorphisms, commutative and noncommutative.

The commutative one (Faa di Bruno) is the free polynomial algebra on t_1,
t_2, ... with t_0 = 1; its coproduct represents composition of series
t(T) = T + t_1 T^2 + ... and its antipode takes t_n to the T^(n+1)
coefficient of the compositional inverse, counted in closed form by Lagrange
inversion (``series.reverted_power``); reversion of t(T) is the check.

The noncommutative counterpart (Brouder-Frabetti-Krattenthaler, BFK) is the
free associative algebra on Z_k with the renormalization coproduct.  Its
antipode on generators, by the connected-graded recursion of ``linear``,
abelianizes to the Faa di Bruno antipode, which is the main cross-check.

Three generator maps substitute the generic diffeomorphism g(T) = T + g_1 T^2
+ ... (BFK, Adv. Math. 200, 2006): the image of the weight-n generator is
[T^(n+s)] sum_j a_(j-s) (x) g(T)^j, a_k the weight-k generator on the left
(a_0 = 1).  The Faa di Bruno coproduct (g = t) and the BFK coproduct (g = Z,
word order kept) take s = 1; the coaction on symmetric functions (a = e,
g = t) takes s = 0.  Over a commutative algebra the coefficients of the
powers of g are ``indices.power_count``.

Only the generator images live here: every coproduct, coaction and antipode
reaches words through ``linear.on_words``, multiplicatively or, for the
BFK antipode, as an antimorphism.
"""

from functools import lru_cache
from math import comb

from .indices import compositions_of, partitions_of, power_count
from .linear import CommutativeElement, Tensor, on_words, recursive_antipode
from .nsym import NSymElement, z
from .series import generator_series, reverted_power
from . import sym


class FdBElement(CommutativeElement):
    """Polynomial in the diffeomorphism coordinates t_k, indexed by partitions."""

    LETTER = "t"
    __slots__ = ()


def t(*parts):
    return FdBElement({parts: 1})


def t_series(cap):
    """T + t_1 T^2 + t_2 T^3 + ...: the generic formal diffeomorphism."""
    return generator_series(FdBElement, cap)


def _substitution(left_cls, right_cls, n, shift):
    """[T^(n+shift)] sum_j a_(j-shift) (x) g(T)^j, a_k the generators of
    ``left_cls`` and g the generic diffeomorphism over ``right_cls``, counted
    in closed form: g^j = T^j (1 + g_1 T + g_2 T^2 + ...)^j, whose T^r
    coefficient is the sum of g_alpha over the compositions alpha of r with at
    most j parts, C(j, l(alpha)) times each (the factors that give a part);
    over a commutative algebra the orderings of a partition are one monomial,
    whose coefficient is ``power_count(j, lam)``."""
    commutative = right_cls.COMMUTATIVE
    terms = {}
    for k in range(n + 1):
        left, j = ((k,) if k else ()), k + shift
        for idx in (partitions_of if commutative else compositions_of)(n - k):
            if len(idx) > j:
                continue
            if commutative:
                terms[left, idx] = power_count(j, idx)
            else:
                terms[left, idx] = comb(j, len(idx))
    return Tensor((left_cls, right_cls))._new(terms)


# -- composition coproduct -------------------------------------------------

@lru_cache(maxsize=None)
def _fdb_coproduct_gen(n):
    """Coproduct of t_n: the T^{n+1} coefficient of sum_k t_k (x) t(T)^(k+1)."""
    return _substitution(FdBElement, FdBElement, n, 1)


def fdb_coproduct(f):
    """Composition coproduct, extended to t-monomials multiplicatively."""
    return on_words(FdBElement.require(f, "fdb_coproduct"), _fdb_coproduct_gen)


@lru_cache(maxsize=None)
def _fdb_antipode_gen(n):
    """Antipode of t_n: the T^{n+1} coefficient of the reverted series,
    counted in closed form."""
    return reverted_power(FdBElement, n + 1)


def fdb_antipode(f):
    """The coefficients of the reverted series, extended as an algebra morphism."""
    return on_words(FdBElement.require(f, "fdb_antipode"), _fdb_antipode_gen)


# -- coaction on symmetric functions --------------------------------------

@lru_cache(maxsize=None)
def _coaction_gen(n):
    """psi(e_n): the T^n coefficient of sum_j e_j (x) t(T)^j, an S (x) FdB tensor."""
    return _substitution(sym.SymElement, FdBElement, n, 0)


def coaction_sym(f):
    """Right coaction of the diffeomorphism algebra on symmetric functions.

    On generators this reads off the T^n coefficient of e(t(T)); it extends
    multiplicatively, making S a comodule algebra.  Input in any basis; the
    left slots of the output are in the e basis.
    """
    fe = sym.convert(sym.SymElement.require(f, "coaction_sym"), "e")
    return on_words(fe, _coaction_gen)


# -- renormalization coproduct (BFK) --------------------------------------

@lru_cache(maxsize=None)
def _bfk_coproduct_gen(n):
    """Delta Z_n: the T^{n+1} coefficient of sum_{k>=1} Z_{k-1} (x) Z(T)^k."""
    return _substitution(NSymElement, NSymElement, n, 1)


def bfk_coproduct(f):
    """Renormalization coproduct on the Z-algebra, extended multiplicatively."""
    return on_words(NSymElement.require(f, "bfk_coproduct"), _bfk_coproduct_gen)


@lru_cache(maxsize=None)
def _bfk_antipode_gen(n):
    """Antipode of Z_n by the connected-graded recursion through Delta."""
    return recursive_antipode(_bfk_coproduct_gen(n), lambda w: bfk_antipode(z(*w)))


def bfk_antipode(f):
    """Renormalization antipode; extended to words as an antimorphism."""
    return on_words(NSymElement.require(f, "bfk_antipode"), _bfk_antipode_gen, reverse=True)


def bfk_abelianize(f):
    """Quotient to the commutative diffeomorphism algebra: Z words to t monomials."""
    return FdBElement(NSymElement.require(f, "bfk_abelianize").terms)

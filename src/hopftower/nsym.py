"""Noncommutative symmetric functions: the free associative algebra on Z_k.

Basis elements Z_I are words in the generators, indexed by compositions;
the product is concatenation.  The coalgebra structure here is the binomial
one, where the generator series is grouplike: Delta Z_n = sum_{i+j=n}
Z_i (x) Z_j with Z_0 = 1.  The antipode extends the alternating
composition sum on generators as an antimorphism, reversing words.

Abelianizing Z_k down to the elementary symmetric function e_k carries all
of this onto the symmetric function Hopf algebra.
"""

from functools import lru_cache, partial
from operator import add

from .indices import compositions_of
from .linear import LinearElement, binomial_gen, on_words
from .series import generator_series
from . import sym


class NSymElement(LinearElement):
    LETTER = "Z"
    COMMUTATIVE = False
    __slots__ = ()
    key_mul = add  # concatenation of words


def z(*parts):
    return NSymElement({tuple(parts): 1})


def z_series(cap):
    """T + Z_1 T^2 + Z_2 T^3 + ...: the universal coordinate change."""
    return generator_series(NSymElement, cap)


# one letter map for every call, so the word-image memo of on_words hits
_coproduct_gen = partial(binomial_gen, NSymElement)


def coproduct(f):
    """Binomial coproduct, extended to words multiplicatively."""
    return on_words(NSymElement.require(f, "coproduct"), _coproduct_gen)


@lru_cache(maxsize=None)
def _antipode_gen(n):
    """Antipode of Z_n: alternating sum of Z_I over compositions I of n."""
    return NSymElement({comp: (-1) ** len(comp) for comp in compositions_of(n)})


def antipode(f):
    """Antipode; an antimorphism, so words are processed in reverse order."""
    return on_words(NSymElement.require(f, "antipode"), _antipode_gen, reverse=True)


def abelianize(f):
    """Quotient onto symmetric functions: Z_I goes to e_{sort(I)}, the e
    basis constructor sorting each word and merging the repeats."""
    return sym.SymElement(NSymElement.require(f, "abelianize").terms, "e")

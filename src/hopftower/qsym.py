"""Quasisymmetric functions in the monomial basis.

M_I is indexed by a composition and stands for the sum of monomials
x_{n_1}^{i_1} ... x_{n_r}^{i_r} over strictly increasing variable indices,
so the product is the overlapping (quasi-) shuffle and the coproduct is
deconcatenation.  This algebra is the graded dual of the noncommutative
symmetric functions under the basis pairing <Z_I, M_J> = delta, and the
symmetric functions sit inside it by fanning a partition out over all of
its rearrangements.

QSym is not free on the M_I, so its antipode is not a word extension: each
basis element's image is Ehrenborg's closed coarsening formula, and ``verify``
checks it against the connected-graded recursion through deconcatenation
(``linear.recursive_antipode``).
"""

from functools import lru_cache
from itertools import accumulate, combinations

from .errors import AlgebraMismatchError
from .indices import compositions_of, natural, rearrangements_of
from .linear import LinearElement, Tensor, add_term, dot, mul_into, settle
from .nsym import NSymElement
from . import sym


@lru_cache(maxsize=None)
def quasi_shuffle(I, J):
    """Overlapping shuffle of two compositions: ((composition, count), ...).

    Standard recursion on first letters: take from the left word, from the
    right word, or merge both first letters into one part.
    """
    if not I:
        return ((J, 1),)
    if not J:
        return ((I, 1),)
    out = {}
    for K, c in quasi_shuffle(I[1:], J):
        add_term(out, (I[0],) + K, c)
    for K, c in quasi_shuffle(I, J[1:]):
        add_term(out, (J[0],) + K, c)
    for K, c in quasi_shuffle(I[1:], J[1:]):
        add_term(out, (I[0] + J[0],) + K, c)
    return tuple(out.items())


class QSymElement(LinearElement):
    LETTER = "M"
    COMMUTATIVE = True
    __slots__ = ()

    @classmethod
    def basis_mul(cls, i, j):
        return quasi_shuffle(i, j)


def M(*parts):
    return QSymElement({tuple(parts): 1})


# the zero of QSym (x) QSym, whose _new adopts each coproduct's dict
_PAIR = Tensor((QSymElement, QSymElement))


def coproduct(f):
    """Deconcatenation: split the composition at every position."""
    out = {}
    for I, c in QSymElement.require(f, "coproduct").terms.items():
        for k in range(len(I) + 1):
            out[(I[:k], I[k:])] = c
    return _PAIR._new(out)


@lru_cache(maxsize=None)
def _antipode_basis(I):
    """S(M_I) = (-1)^len(I) times the sum of M_J over the coarsenings J of
    reversed I (Ehrenborg, Adv. Math. 119, 1996): one J, each once, per
    composition of len(I) into blocks."""
    ends = (0, *accumulate(I[::-1]))
    sign = -1 if len(I) % 2 else 1
    out = {}
    for blocks in compositions_of(len(I)):
        cuts = (0, *accumulate(blocks))
        out[tuple(ends[b] - ends[a] for a, b in zip(cuts, cuts[1:]))] = sign
    return QSymElement()._new(out)


def antipode(f):
    """Each term's c S(M_I) added raw into one dict, settled once: f times the
    unit, with M_I * 1 read as S(M_I)."""
    f = QSymElement.require(f, "antipode")
    return f._new(settle(mul_into({}, f.terms, {(): 1},
                                  lambda I, _: _antipode_basis(I).terms.items())))


def pair(a, b):
    """Duality pairing with noncommutative symmetric functions: <Z_I, M_J> = delta."""
    a, b = NSymElement.require(a, "pair"), QSymElement.require(b, "pair")
    return dot(a.terms, b.terms)


def pair_tensor(t_left, t_right):
    """Componentwise pairing of equal-arity tensors, NSym slots on the left
    against QSym slots on the right, as ``pair`` takes its elements."""
    if not (isinstance(t_left, Tensor) and isinstance(t_right, Tensor)
            and all(f is NSymElement for f in t_left.factors)
            and all(f is QSymElement for f in t_right.factors)):
        raise AlgebraMismatchError("pair_tensor expects (NSym tensor, QSym tensor)")
    if t_left.arity != t_right.arity:
        raise AlgebraMismatchError("tensor arities differ")
    return dot(t_left.terms, t_right.terms)


def include_symmetric(f):
    """Embed a symmetric function: m_lam fans out over its distinct
    rearrangements, which no two partitions share, each made once by
    ``indices.rearrangements_of``."""
    fm = sym.convert(sym.SymElement.require(f, "include_symmetric"), "m")
    return QSymElement({I: c for lam, c in fm.terms.items() for I in rearrangements_of(lam)})


def expand_ordered(f, nvars):
    """Evaluate f in ordered variables x_1 < ... < x_nvars.

    Returns a dict from exponent vectors to rationals.  The one enumeration of
    monomials in the package: ``sym.expand`` reads symmetric functions through
    it, and it is the independent oracle for the quasi-shuffle product.
    """
    natural(nvars, "nvars")
    out = {}
    for I, c in QSymElement.require(f, "expand_ordered").terms.items():
        for positions in combinations(range(nvars), len(I)):
            key = [0] * nvars
            for pos, part in zip(positions, I):
                key[pos] = part
            add_term(out, tuple(key), c)
    return out

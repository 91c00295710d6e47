"""Symmetric functions over the rationals with e, h, p and m bases.

The algebra is graded by weight.  Basis indices are partitions; the bases are
the elementary (e), complete homogeneous (h), power sum (p) and monomial (m)
families.  e, h and p are multiplicative, so products there just merge
partitions.  Products in the m basis, and e_lam and p_lam in it (``_m_row``),
come from one integer count (Macdonald, *Symmetric Functions and Hall
Polynomials*, I.2, I.6): the coefficient of m_nu in m_lam * m_mu counts the
arrangements of lam and mu that add up to nu, and e_k = m_(1^k), p_k = m_(k).
The literal expansion as a symmetric polynomial in finitely many variables
(``expand``) is read through QSym, where m_lam is the sum of M_I over the
rearrangements I of lam; it stays the public evaluation and the independent
oracle that ``verify`` checks the counts against.

No conversion builds or reads a table.  Between e, h and p it is
``on_words`` of a letter map: e and h trade through the antipode's word
images, as h_lam = (-1)^|lam| S(e_lam), and ``_basis_gen`` holds p_n in e
and h (Girard-Waring) and n! e_n and n! h_n in p (I.2.14), so into p the
ints are w! times the coordinates at weight w, divided once.  Out of m it is
one memoised recursion, ``_m_image``, keyed by the target basis and the
partition: for k the largest part of lam, p_k m_(lam minus k) is m_lam plus
shorter m_nu, which peels a partition of many small parts in few steps.  Into
m it sums the rows ``_m_row`` of f's partitions, h going through e.  The e
and p tables (``_transition``) and their inverses are ``verify``'s oracle.

The coproduct lives on the e basis (each generator series is grouplike), with
the other bases reached by conversion.  The antipode takes the basis that
diagonalises it where there is one: p_n is primitive, so S(p_lam) =
(-1)^l(lam) p_lam is a sign on p; omega is a Hopf automorphism that swaps e_lam
and h_lam, so S has the same coordinates on h as on e, one ``on_words`` over
``_antipode_e_gen``; and m goes through p (Macdonald I.2, I.5).  Coefficients
are ``int``s except where a conversion involving the p basis brings in a
denominator.
"""

from functools import lru_cache, partial
from math import factorial, perm, prod
import warnings

from .errors import DomainError
from .indices import natural, partitions_of, power_count
from .linear import (CommutativeElement, Polynomial, binomial_gen, dot, mul_into,
                     on_words, settle)
from .scalars import clear_denominators, qneg, quotient
from .series import TruncatedSeries

BASES = ("e", "h", "p", "m")


class SymElement(CommutativeElement):
    """A symmetric function tagged with the basis its coefficients refer to.

    A basis index is a partition.  The inherited partition-merge product is
    only correct for the multiplicative bases, which is all that tensor
    slots (always e-based) ever see; ``_mul_into`` takes the m basis apart.
    """

    __slots__ = ("basis",)

    def __init__(self, terms=None, basis="e"):
        if basis not in BASES:
            raise DomainError("unknown symmetric function basis %r" % (basis,))
        super().__init__(terms)
        self.basis = basis

    def _new(self, terms, basis=None):
        """The trusted builder of ``SparseSum._new``, by default in this basis."""
        obj = super()._new(terms)
        obj.basis = self.basis if basis is None else basis
        return obj

    def _letter(self):
        return self.basis

    def slot_form(self):
        return convert(self, "e")

    def __eq__(self, other):
        if isinstance(other, SymElement) and other.basis != self.basis:
            other = convert(other, self.basis)
        return super().__eq__(other)

    def __add__(self, other):
        if isinstance(other, SymElement) and other.basis != self.basis:
            other = convert(other, self.basis)
        return super().__add__(other)

    __radd__ = __add__

    def __mul__(self, other):
        # the inherited product; defined here so sym products can be timed
        # on their own (bench/layers.py wraps this entry)
        return super().__mul__(other)

    def _mul_into(self, out, a, b):
        """Add a * b into ``out`` in this element's basis, converting an
        operand only when its basis differs; the m basis multiplies by the
        counted structure constants."""
        basis = self.basis
        if a.basis != basis:
            a = convert(a, basis)
        if b.basis != basis:
            b = convert(b, basis)
        return (mul_into(out, a.terms, b.terms, _m_product) if basis == "m"
                else super()._mul_into(out, a, b))


def e(*parts):
    return SymElement({tuple(parts): 1}, "e")


def h(*parts):
    return SymElement({tuple(parts): 1}, "h")


def p(*parts):
    return SymElement({tuple(parts): 1}, "p")


def m(*parts):
    return SymElement({tuple(parts): 1}, "m")


# -- polynomial expansion, read through QSym (public; the counts' oracle) ---
# m_lam goes to QSym by qsym.include_symmetric and onto ordered variables by
# qsym.expand_ordered.  A generator expands from its definition in the m basis,
# and the generators of a term multiply as ``linear.Polynomial``s.

# each generator as the sum of monomial symmetric functions that defines it
_M_FORMS = {"e": lambda n: ((1,) * n,), "h": partitions_of, "p": lambda n: ((n,),)}


def expand(f, nvars):
    """Evaluate f as a literal polynomial in x_1..x_nvars.

    Returns a dict mapping exponent vectors (length nvars) to rationals.
    Faithful when nvars >= the weight of f; smaller nvars still evaluates
    honestly but collapses information, hence the warning.
    """
    if natural(nvars, "nvars", 1) < SymElement.require(f, "expand").max_weight():
        warnings.warn("expanding in %d variables < weight %d loses information"
                      % (nvars, f.max_weight()), stacklevel=2)
    from . import qsym  # at call time: qsym imports nsym, which imports this module

    def through_qsym(g):
        return Polynomial(nvars, qsym.expand_ordered(qsym.include_symmetric(g), nvars))

    if f.basis == "m":
        return through_qsym(f).terms
    gens = {k: through_qsym(SymElement(dict.fromkeys(_M_FORMS[f.basis](k), 1), "m"))
            for k in {k for lam in f.terms for k in lam}}
    one = Polynomial(nvars, {(0,) * nvars: 1})
    return sum((prod((gens[k] for k in lam), start=one).scale(c)
                for lam, c in f.terms.items()), Polynomial(nvars)).terms


def format_polynomial(poly):
    """Readable form of an expand() result, e.g. 'x1^2*x2 + x1*x2^2'."""
    return str(Polynomial(len(next(iter(poly), ())), poly))


# -- counting (the route products and conversions take) ---------------------

def _without(parts, x):
    """The multiset ``parts`` with one copy of ``x`` removed (none for 0)."""
    if not x:
        return parts
    i = parts.index(x)
    return parts[:i] + parts[i + 1:]


@lru_cache(maxsize=None)
def _arrangements(nu, lam, mu):
    """Distinct arrangements alpha of lam, padded to len(nu), for which
    nu - alpha is an arrangement of mu."""
    if len(nu) < max(len(lam), len(mu)):
        return 0
    if not nu:
        return 1
    v, rest = nu[0], nu[1:]
    total = 0
    # distinct values only: swapping equal parts gives the same arrangement
    for a in set(lam) | {0}:
        b = v - a
        if b == 0 or b in mu:
            total += _arrangements(rest, _without(lam, a), _without(mu, b))
    return total


@lru_cache(maxsize=None)
def _m_product(lam, mu):
    """m_lam * m_mu as ((nu, count), ...): the coefficient of m_nu is the
    number of ways x^nu splits as a monomial of m_lam times one of m_mu."""
    lo, hi = max(len(lam), len(mu)), len(lam) + len(mu)
    out = []
    for nu in partitions_of(sum(lam) + sum(mu)):
        if lo <= len(nu) <= hi:
            count = _arrangements(nu, lam, mu)
            if count:
                out.append((nu, count))
    return tuple(out)


@lru_cache(maxsize=None)
def _m_row(basis, lam):
    """e_lam or p_lam in the m basis, as terms: the m-product of the row of
    lam without its last part and the m form of that part."""
    if not lam:
        return {(): 1}
    return settle(mul_into({}, _m_row(basis, lam[:-1]),
                           dict.fromkeys(_M_FORMS[basis](lam[-1]), 1), _m_product))


# -- basis conversion ------------------------------------------------------

@lru_cache(maxsize=None)
def _transition(basis, w):
    """(partitions of w, their positions, rows): row i gives basis_{lam_i},
    e or p, in m-coordinates as nonzero (j, entry) pairs, j increasing.  The
    rows are ``_m_row``'s, which ``verify`` checks against the expansion."""
    parts = partitions_of(w)
    pos = {lam: i for i, lam in enumerate(parts)}
    return parts, pos, tuple(tuple(sorted((pos[mu], c) for mu, c in _m_row(basis, lam).items()))
                             for lam in parts)


@lru_cache(maxsize=None)
def _transition_inverse(basis, w):
    """``(d, rows)``: d times the inverse of ``_transition(basis, w)``, packed
    as its rows are, row i ``_m_image`` of lam_i, for ``verify``'s Gauss-Jordan
    check; d = w! on p is least, as e_w = m_(1^w) has p_(1^w)-coefficient 1/w!."""
    parts = partitions_of(w)
    pos = {lam: i for i, lam in enumerate(parts)}
    return (factorial(w) if basis == "p" else 1,
            tuple(tuple(sorted((pos[mu], x) for mu, x in _m_image(basis, lam).terms.items()))
                  for lam in parts))


@lru_cache(maxsize=None)
def _basis_gen(src, to, n):
    """src_n in the basis ``to``, one of them p, and n! times it on p: p_n =
    sum (-1)^(n-l) n (l-1)!/prod_i m_i! e_lam over lam |- n of length l
    (Girard-Waring), in h with the sign (-1)^(l-1), where l!/prod_i m_i! =
    (-1)^l power_count(-1, lam); n! e_n = sum (-1)^(n-l) n!/z_lam p_lam and
    n! h_n = sum n!/z_lam p_lam, n!/z_lam the size of a class (I.2.14)."""
    if not n:
        return SymElement({(): 1}, to)
    if src == "p":
        return SymElement({lam: ((-1) ** n if to == "e" else -1) * n * power_count(-1, lam)
                           // len(lam) for lam in partitions_of(n)}, to)
    return SymElement({lam: (-1 if src == "e" and (n - len(lam)) % 2 else 1) * factorial(n)
                       // (prod(lam) * prod(factorial(lam.count(i)) for i in set(lam)))
                       for lam in partitions_of(n)}, "p")


# one letter map per ordered pair with p, so the word-image memo of on_words hits
_BASIS_GENS = {pair: partial(_basis_gen, *pair)
               for pair in (("p", "e"), ("p", "h"), ("e", "p"), ("h", "p"))}


@lru_cache(maxsize=None)
def _m_image(basis, lam):
    """m_lam in ``basis``, e, h or p, with int coefficients: |lam|! m_lam on p.
    For k the largest part of lam and mu the rest, p_k m_mu = a m_lam +
    sum_nu a_nu m_nu, where nu adds k to one distinct part v of mu, a_nu =
    m_(v+k)(nu) and a = m_k(lam) (the parts of x^nu that p_k can have
    raised); each nu is shorter than lam, and the division by a is exact."""
    if not lam:
        return SymElement({(): 1}, basis)
    k, mu = lam[0], lam[1:]
    p_k = (SymElement({(k,): perm(sum(lam), k)}, "p") if basis == "p"
           else _basis_gen("p", basis, k))
    out = (p_k * _m_image(basis, mu)).terms
    for v in set(mu):
        nu = tuple(sorted(_without(mu, v) + (v + k,), reverse=True))
        a = nu.count(v + k)
        for key, c in _m_image(basis, nu).terms.items():
            out[key] = out.get(key, 0) - a * c
    a = lam.count(k)
    return p_k._new({key: c // a for key, c in out.items() if c})


def _on_letters(g, src, to):
    """The int coordinates ``g`` from one of e, h and p into another, w! times
    them on p at weight w.  e and h trade through the antipode's word images
    with the sign (-1)^|lam|; into p each letter n gives n! src_n, so src_lam
    first takes the factor |lam|! / prod_i lam_i!."""
    if to == "p":
        g = g._new({lam: c * (factorial(sum(lam)) // prod(map(factorial, lam)))
                    for lam, c in g.terms.items()})
    elif src != "p":
        g = g._new({lam: -c if sum(lam) % 2 else c for lam, c in g.terms.items()})
    return on_words(g, _BASIS_GENS.get((src, to), _antipode_e_gen)).terms


def convert(f, to, integral=False):
    """Re-express f in another basis; exact, and the round trip is identity.

    With integral=True, refuse a result whose common denominator does not
    divide that of ``f``: one the conversion introduced (the p basis
    genuinely needs denominators, e.g. m in p-coordinates).  A denominator
    ``f`` already had is no reason to refuse, so ``1/2*e[1]`` converts to h.
    Anything but a ``SymElement`` raises ``AlgebraMismatchError``, here and
    in ``hall_pair`` and ``qsym.include_symmetric``, which convert first.
    """
    if to not in BASES:
        raise DomainError("unknown symmetric function basis %r" % (to,))
    if SymElement.require(f, "convert").basis == to:
        return f
    # integer numerators over one common denominator d keep every sum below
    # in int arithmetic; on p they are w! times the coordinates of weight w
    d, g = clear_denominators(f.terms)
    src, g = f.basis, f._new(g)
    if src == "h" and to == "m":
        g, src = g._new(_on_letters(g, "h", "e")), "e"
    if "m" not in (src, to):
        out = _on_letters(g, src, to)
    else:
        out = {}
        for lam, c in g.terms.items():
            for mu, x in (_m_row(src, lam) if to == "m" else _m_image(to, lam).terms).items():
                out[mu] = out.get(mu, 0) + c * x
        out = settle(out)
    if to == "p":
        out = {mu: quotient(c, d * factorial(sum(mu))) for mu, c in out.items()}
    elif d > 1:
        out = {mu: quotient(c, d) for mu, c in out.items()}
    result = f._new(out, to)
    if integral and any(d % c.denominator for c in result.terms.values()):
        raise DomainError("conversion to %s-basis is not integral here" % to)
    return result


# -- Hopf structure --------------------------------------------------------

# one letter map for every call, so the word-image memo of on_words hits
_coproduct_e_gen = partial(binomial_gen, SymElement)


def coproduct(f):
    """Coproduct with each generator series grouplike: De_n = sum e_i (x) e_j.

    Input in any basis; the output tensor is expressed in the e basis.
    """
    return on_words(convert(SymElement.require(f, "coproduct"), "e"), _coproduct_e_gen)


@lru_cache(maxsize=None)
def _antipode_e_gen(n):
    """Antipode of e_n: the alternating sum of e_I over the compositions I of
    n, that is (-1)^l(lam) l!/prod_i m_i(lam)! e_lam summed over lam |- n,
    the T^n coefficient of E(T)^-1 for E(T) = 1 + e_1 T + e_2 T^2 + ..."""
    return SymElement({lam: power_count(-1, lam) for lam in partitions_of(n)}, "e")


def antipode(f):
    """Hopf antipode; an algebra involution here since S is commutative.
    Each basis takes the route the module docstring gives."""
    f = SymElement.require(f, "antipode")
    if f.basis == "p":
        return f._new({lam: qneg(c) if len(lam) % 2 else c for lam, c in f.terms.items()})
    if f.basis == "m":
        return convert(antipode(convert(f, "p")), "m")
    return f._new(on_words(f, _antipode_e_gen).terms)


def involution(f, which):
    """The sign twist (dual), its antipode composite (whitney), and omega.

    dual sends e_k to (-1)^k e_k and lands in the e basis; whitney sends e_k
    to (-1)^k h_k and omega sends e_k to h_k, both landing in the h basis.
    All three are algebra morphisms and square to the identity.
    """
    if which not in ("dual", "whitney", "omega"):
        raise DomainError("unknown involution %r" % (which,))
    fe = convert(SymElement.require(f, "involution"), "e")
    return fe._new({lam: qneg(c) if which != "omega" and sum(lam) % 2 else c
                    for lam, c in fe.terms.items()}, "e" if which == "dual" else "h")


def hall_pair(f, g):
    """Hall inner product, normalized by <h_lam, m_mu> = delta."""
    fh = convert(SymElement.require(f, "hall_pair"), "h")
    gm = convert(SymElement.require(g, "hall_pair"), "m")
    return dot(fh.terms, gm.terms)


# -- generating series -----------------------------------------------------

def e_series(cap):
    """1 + e_1 T + e_2 T^2 + ... up to the cap."""
    coeffs = {0: SymElement.one()}
    for n in range(1, natural(cap, "cap") + 1):
        coeffs[n] = SymElement({(n,): 1})
    return TruncatedSeries(SymElement, coeffs, cap)


def h_series(cap):
    """1 + h_1 T + h_2 T^2 + ..., with coefficients expressed in the e basis.

    Computed as the reciprocal of the alternating e series, which is the
    relation tying the two bases together.
    """
    return e_series(cap).alternate().invert()

"""Symmetric functions over the rationals with e, h, p and m bases.

The algebra is graded by weight.  Basis indices are partitions; the bases are
the elementary (e), complete homogeneous (h), power sum (p) and monomial (m)
families.  e, h and p are multiplicative, so products there just merge
partitions.  Basis conversions and products in the m basis come from one
integer count (Macdonald, *Symmetric Functions and Hall Polynomials*, I.2,
I.6): the coefficient of m_nu in m_lam * m_mu counts the arrangements of lam
and mu that add up to nu.  e_lam and p_lam are products of their generators,
with e_k = m_(1^k) and p_k = m_(k), so each row of the e and p tables is a
product of m forms taken by that count.  The literal expansion as a
symmetric polynomial in finitely many variables (``expand``) is read through
QSym, where m_lam is the sum of M_I over the rearrangements I of lam; it stays
the public evaluation and the independent oracle that ``verify`` checks the
counts against.

A conversion goes through m and inverts no table.  In the order of
``partitions_of`` (decreasing lex, which refines dominance) the p table is
lower triangular with diagonal prod_i m_i(lam)!, and w! times its inverse is
integral; the e table, its row for e_lam moved to the place of lam', is
unitriangular (I.2, I.6).  So m -> e or p is one substitution pass per weight
in ints (``_solve``); the inverse is built only for ``verify``, one solve per
unit vector, to be checked against ``exactlinalg.invert_matrix``.  h has no
table: h_lam = (-1)^|lam| S(e_lam) and omega swaps e and h, so one map,
``_h_swap``, trades h and e coordinates both ways.  Between h and p the swap
is not needed: omega is the sign (-1)^(|lam| - l(lam)) on p_lam (I.2.13), so
the h coordinates of f are the e ones of omega(f), and ``_p_twist`` applies
omega on the p side, before p -> e or after e -> p.  m needs no table
either: its coordinates are the ones the tables land in.

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
from math import factorial, lcm, prod
import warnings

from .errors import DomainError
from .indices import natural, partitions_of, power_count
from .linear import (CommutativeElement, Polynomial, binomial_gen, dot, mul_into,
                     on_words, settle)
from .scalars import quotient
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
    e or p, in m-coordinates as nonzero (j, entry) pairs, j increasing.

    Each row is the product of the m forms of its generators, e_k = m_(1^k)
    and p_k = m_(k), taken by the one m-product count (``_m_row``);
    ``verify`` checks the rows against the literal expansion.
    """
    parts = partitions_of(w)
    pos = {lam: i for i, lam in enumerate(parts)}
    return parts, pos, tuple(tuple(sorted((pos[mu], c) for mu, c in _m_row(basis, lam).items()))
                             for lam in parts)


def _solve(basis, w, coords):
    """The x with x T = v, as (partition, int) pairs, for T the e or p table
    of weight w and v the dict ``coords`` of m coordinates, scaled so that x
    is integral (by w! on p).  One pass of substitution, rows last first: a
    row's diagonal is its first pair on e and its last on p, and every other
    column of a row is the diagonal of an earlier row, so each division is exact."""
    parts, _, rows = _transition(basis, w)
    acc = [coords.get(lam, 0) for lam in parts]
    lead = -1 if basis == "p" else 0
    for r in range(len(parts) - 1, -1, -1):
        i, diagonal = rows[r][lead]
        x = acc[i] // diagonal
        if x:
            for j, y in rows[r]:
                acc[j] -= x * y
            yield parts[r], x


@lru_cache(maxsize=None)
def _transition_inverse(basis, w):
    """Inverse of the transition matrix as ``(d, rows)``: ``d`` times the
    inverse is an integer matrix, each of whose rows is held as its nonzero
    (j, entry) pairs, j increasing.  Row j is the ``_solve`` of the j-th unit
    vector; ``convert`` never builds it, ``verify`` checks it by Gauss-Jordan.
    ``d`` is already least: m_(1^w) = e_w has p_(1^w)-coefficient 1/w!, so
    w! times the inverse on p has an entry 1."""
    parts, pos, _ = _transition(basis, w)
    scale = factorial(w) if basis == "p" else 1
    return scale, tuple(tuple(sorted((pos[mu], x) for mu, x in _solve(basis, w, {lam: scale})))
                        for lam in parts)


def _h_swap(coords, w):
    """Integer h coordinates of weight w, (partition, int) pairs, as e ones, or e as h."""
    twisted = _antipode_e_gen(0)._new({lam: (-1) ** w * c for lam, c in coords})
    return on_words(twisted, _antipode_e_gen).terms.items()


def _p_twist(coords, w):
    """p coordinates of weight w, (partition, int) pairs, under omega: the
    sign (-1)^(w - l(lam)) on p_lam."""
    return ((lam, -c if (w - len(lam)) % 2 else c) for lam, c in coords)


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
    src, hub = ("e" if basis == "h" else basis for basis in (f.basis, to))
    # h is read as e through omega: by the sign on the p side between h and
    # p, by the swap on the h side otherwise
    if {f.basis, to} == {"h", "p"}:
        before, after = (_p_twist, None) if f.basis == "p" else (None, _p_twist)
    else:
        before = _h_swap if f.basis == "h" else None
        after = _h_swap if to == "h" else None
    by_weight = {}
    for lam, c in f.terms.items():
        by_weight.setdefault(sum(lam), []).append((lam, c))
    out = {}
    for w, comp in sorted(by_weight.items()):
        # integer numerators over one common denominator d keep every sum
        # below in int arithmetic, through omega, through m and back
        d = lcm(*(c.denominator for _, c in comp))
        coords = ((lam, c.numerator * (d // c.denominator)) for lam, c in comp)
        coords = before(coords, w) if before else coords
        if src != hub and src != "m":
            # into m row by row: only the rows of f's own partitions are built
            acc = {}
            for lam, c in coords:
                for mu, x in _m_row(src, lam).items():
                    acc[mu] = acc.get(mu, 0) + c * x
            coords = settle(acc).items()
        if src != hub and hub != "m":
            scale = factorial(w) if hub == "p" else 1
            # coords reads d lazily, so the dict reads it before d changes
            coords = _solve(hub, w, {lam: scale * c for lam, c in coords})
            d *= scale
        coords = after(coords, w) if after else coords
        for lam, c in coords:
            out[lam] = c if d == 1 else quotient(c, d)
    result = f._new(out, to)
    if integral:
        den = lcm(*(c.denominator for c in f.terms.values()))
        if any(den % c.denominator for c in result.terms.values()):
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
        return f._new({lam: -c if len(lam) % 2 else c for lam, c in f.terms.items()})
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
    return fe._new({lam: -c if which != "omega" and sum(lam) % 2 else c
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

"""Characteristic-number calculus built on the algebraic tower.

The generators b_k are the coefficients of the universal orientation series
b(T) = T + b_1 T^2 + ...; its compositional inverse is the logarithm, whose
coefficients produce the projective-space Hurewicz images and their
characteristic numbers.  No reader of the logarithm reverts b(T): Lagrange
inversion counts each coefficient of its powers in closed form
(``series.reverted_power``), and a single number is one
``indices.power_count``.  ``verify`` checks them against the reversion.

The two-variable group law b(b^{-1}(X) + b^{-1}(Y)) is counted from the same
powers by the binomial theorem, with no composition; ``verify`` checks it
against Horner's composition.  The beta exponential lives here too, as do
the quasisymmetric characteristic numbers of products of projective spaces
(the roots substituted into the ordered-variable expansion of M_I, in the
truncated cohomology ring), the invariant attached to each weight as a sum
over compositions, the cumulant series, and the noncommutative two-variable
addition series that abelianizes to the group law.
"""

from functools import lru_cache, partial
from math import comb, factorial
from operator import add

from .diffeo import bfk_antipode
from .errors import CapabilityError, DomainError
from .indices import compositions_of, natural, partitions_of, power_count
from .linear import CommutativeElement, Polynomial, SparseSum, checked, settle, substitute
from .nsym import NSymElement, z_series
from .scalars import quotient, rational
from .series import TruncatedSeries, generator_series, reverted_power
from . import qsym
from . import sym


class BElement(CommutativeElement):
    """Polynomial in the orientation coordinates b_k, indexed by partitions."""

    LETTER = "b"
    __slots__ = ()


def b(*parts):
    return BElement({parts: 1})


def b_series(cap):
    """T + b_1 T^2 + b_2 T^3 + ... up to the cap."""
    return generator_series(BElement, cap)


@lru_cache(maxsize=None)
def miscenko_log(cap):
    """The logarithm: compositional inverse of b(T), each coefficient
    counted in closed form."""
    cap = natural(cap, "cap", 1)
    return TruncatedSeries(BElement, cap=cap)._new(
        {n: reverted_power(BElement, n) for n in range(1, cap + 1)})


def chi_b(n):
    """Composition antipode of b_n: the T^{n+1} log coefficient."""
    return reverted_power(BElement, natural(n, "weight") + 1)


def cp_hurewicz(n):
    """Hurewicz image of complex projective n-space: (n+1) chi(b_n), whose
    b_lam coefficient is ``cp_char_number(n, lam)``."""
    n = natural(n, "projective space dimension")
    return BElement()._new({lam: power_count(-n - 1, lam) for lam in partitions_of(n)})


def _partition_of(n, lam):
    """``lam`` as a partition of the dimension ``n``; ``DomainError`` if it is
    not one."""
    n, lam = natural(n, "projective space dimension"), BElement.canonical_index(lam)
    if sum(lam) != n:
        raise DomainError("partition weight %d does not match dimension %d"
                          % (sum(lam), n))
    return lam


def cp_char_number(n, lam):
    """Characteristic number of CP^n for the partition lam: the b_lam
    coefficient of (n+1) [T^(n+1)] log, by Lagrange inversion [T^n] of
    (1 + b_1 T + b_2 T^2 + ...)^-(n+1).  No element is built."""
    lam = _partition_of(n, lam)
    return power_count(-n - 1, lam)


def cp_char_number_oracle(n, lam):
    """Same number from the virtual normal bundle, bypassing the log series.

    Convert m_lam to power sums; each p_k evaluates on the normal bundle of
    CP^n to -(n+1) x^k in the ring with x^{n+1} = 0, so a p-monomial with r
    parts contributes (-(n+1))^r to the x^n coefficient.  The sum keeps
    ``Fraction``'s own operators, as an oracle should; its value is canonical.
    """
    fp = sym.convert(sym.SymElement({_partition_of(n, lam): 1}, "m"), "p")
    return rational(sum(c * (-(n + 1)) ** len(mu) for mu, c in fp.terms.items()))


@lru_cache(maxsize=None)
def _log_powers(n):
    """((k, [T^n] L^k), ...) for 1 <= k <= n, L = b^{-1} the logarithm, each
    one ``reverted_power``: a tuple, so the memo hands out no shared dict,
    and its readers only multiply or scale the elements, which copies."""
    return tuple((k, reverted_power(BElement, n, k)) for k in range(1, n + 1))


def fgl(cap):
    """The two-variable addition law b(L(X) + L(Y)), L = b^{-1} the logarithm,
    total degree <= cap, counted with no composition.  [X^0 Y^j] is [Y^j]
    b(L(Y)) = Y.  For i, j >= 1 the b's commute, so by the binomial theorem
    [X^i Y^j] = sum_c U_(i,c) [Y^j] L^c, where U_(i,c) = sum_a C(a + c, a)
    b_(a+c-1) [X^i] L^a, b_0 = 1 and each row [T^n] L^k one ``_log_powers``.
    The half i <= j is built and mirrored."""
    cap = natural(cap, "cap", 1)
    one = BElement.one()
    out = {(0, 1): one, (1, 0): one}
    for i in range(1, cap // 2 + 1):
        row = {}
        for c in range(1, cap - i + 1):
            raw = {}
            for a, power in _log_powers(i):
                one._mul_into(raw, BElement()._new({(a + c - 1,): comb(a + c, a)}), power)
            row[c] = one._new(settle(raw))
        for j in range(i, cap - i + 1):
            raw = {}
            for c, power in _log_powers(j):
                one._mul_into(raw, row[c], power)
            terms = settle(raw)
            if terms:
                out[i, j] = out[j, i] = one._new(terms)
    return TruncatedSeries(BElement, cap=cap)._new(out, nvars=2)


# -- beta exponential ------------------------------------------------------

_power = partial(natural, what="a power of beta")


class BetaPolynomial(SparseSum):
    """Polynomial in a central variable beta with b-polynomial coefficients,
    keyed by the power of beta.

    Everything but the keys and the unit comes from ``linear.SparseSum``: the
    product multiplies keys by ``key_mul``, since powers of beta add.  The
    constructor refuses a power that is not a nonnegative ``int``
    (``DomainError``) and lifts each coefficient by the operand rule of
    ``BElement``, so an ``int`` or ``Fraction`` stands for that multiple of
    the unit, a float raises ``DomainError`` and a value of another kind
    ``AlgebraMismatchError``; as a series coefficient algebra it lifts a
    b-element onto beta^0.
    """

    COMMUTATIVE = True
    __slots__ = ()
    key_mul = add

    def __init__(self, coeffs=None):
        self.terms = checked(coeffs, _power, BElement.lift)

    @classmethod
    def lift(cls, v):
        return cls({0: v}) if isinstance(v, BElement) else super().lift(v)

    def _unit_term(self, q):
        return 0, BElement({(): q})

    def _monomial(self, k):
        return "" if k == 0 else "beta" if k == 1 else "beta^%d" % k


def beta_series(cap):
    """exp(beta * log(T)): the one-parameter exponential of the logarithm,
    whose beta^k T^n coefficient is [T^n] log^k / k!."""
    cap = natural(cap, "cap", 1)
    terms = {0: BetaPolynomial.one()}
    for n in range(1, cap + 1):
        terms[n] = BetaPolynomial()._new({k: power.scale(quotient(1, factorial(k)))
                                          for k, power in _log_powers(n)})
    return TruncatedSeries(BetaPolynomial, cap=cap)._new(terms)


# -- products of projective spaces ----------------------------------------

class ProjectiveProductSpace:
    """A product of complex projective spaces with an ordered list of line
    bundle roots.

    The cohomology ring is polynomial in one generator x_j per factor with
    x_j^{n_j + 1} = 0; a root is an integer vector of coefficients of the
    x_j.  Evaluation against the fundamental class reads off the top
    monomial x_1^{n_1} ... x_m^{n_m}.
    """

    __slots__ = ("factors", "roots")

    def __init__(self, factors, roots):
        factors = tuple(factors)
        if not factors:
            raise DomainError("a space needs at least one factor")
        for n in factors:
            natural(n, "a factor dimension", 1)
        roots = tuple(tuple(r) for r in roots)
        if any(type(c) is not int for r in roots for c in r):
            raise DomainError("root coefficients must be integers")
        if any(len(r) != len(factors) for r in roots):
            raise DomainError("each root needs one coefficient per factor")
        self.factors = factors
        self.roots = roots

    @classmethod
    def from_document(cls, doc):
        try:
            return cls(doc["factors"], doc["roots"])
        except (KeyError, TypeError) as exc:
            raise DomainError("space document needs 'factors' and 'roots' lists") from exc

    def evaluate_qsym(self, f):
        """f on the ordered roots, as linear polynomials in the cohomology ring:
        a dict from exponent vectors to rationals."""
        m = len(self.factors)
        one = Polynomial(m, {(0,) * m: 1}, self.factors)
        axes = [tuple(int(i == j) for i in range(m)) for j in range(m)]
        # the roots' coefficients are checked ints, and every x_j is inside the box
        roots = [one._new({x: c for x, c in zip(axes, r) if c}) for r in self.roots]
        return substitute(qsym.expand_ordered(f, len(roots)), roots, one).terms


def quasitoric_char_number(space, I, convention="tangent"):
    """Quasisymmetric characteristic number of a projective product space.

    The tangential convention evaluates M_I directly on the declared roots.
    The normal convention evaluates on the virtual negative of the bundle,
    which is the antipode of M_I on the same roots.
    """
    f = qsym.QSymElement.from_index(I)
    if convention == "normal":
        f = qsym.antipode(f)
    elif convention != "tangent":
        raise DomainError("convention must be 'tangent' or 'normal'")
    return space.evaluate_qsym(f).get(space.factors, 0)


# -- composition-sum invariant, cumulants, noncommutative addition ---------

# log2 of the most compositions crn_invariant enumerates: weight 18, whose
# 131072 terms ``crn --weight 18`` builds and prints in about 1.3 s on
# CPython 3.11 (weight 19 doubles that, and weight 30 exhausts memory)
CRN_LOG2_BOUND = 17


def crn_invariant(k):
    """Sum of Z_I over all compositions of k: one term per face structure."""
    if natural(k, "weight", 1) - 1 > CRN_LOG2_BOUND:
        raise CapabilityError("weight %d has 2^%d compositions, over the bound of "
                              "2^%d = %d" % (k, k - 1, CRN_LOG2_BOUND,
                                             2 ** CRN_LOG2_BOUND))
    return NSymElement({I: 1 for I in compositions_of(k)})


def cumulant_series(cap):
    """Antipode applied to Z(T) coefficientwise, then T replaced by -T."""
    return z_series(natural(cap, "cap", 1)).map_coefficients(bfk_antipode).alternate()


def cp_infinity_coproduct(cap):
    """Two-variable addition series sum_k Z_k ((chi Z)(X) + (chi Z)(Y))^{k+1}.

    X and Y are central; the coefficients stay noncommutative.  Setting one
    variable to zero must return the other variable alone, and collapsing
    Z_k to b_k recovers the commutative group law.  The route is
    ``TruncatedSeries.compose_sum``, which needs X and Y central only: the
    coefficients do not commute, so the binomial count of ``fgl`` does not
    apply.
    """
    zs = z_series(natural(cap, "cap", 1))
    return zs.compose_sum(zs.map_coefficients(bfk_antipode))


def abelianize_to_b(f):
    """Collapse a Z-algebra element to b-polynomials: Z_I to b_{sort(I)}."""
    return BElement(NSymElement.require(f, "abelianize_to_b").terms)


def abelianize_series_to_b(s):
    return s.map_coefficients(abelianize_to_b, algebra=BElement)


# -- small multivariate substitution helper (associativity checks) ---------

def evaluate_bivariate(F, P, Q, cap):
    """Substitute multivariate polynomial dicts P, Q into a bivariate series F.

    Coefficients of F and values of P, Q must live in the same commutative
    algebra; the result is a dict like P and Q.  Used to check group-law
    associativity with three variables without a trivariate series type.
    """
    nvars = len(next(iter(P or Q)))
    P, Q = (Polynomial(nvars, v, cap) for v in (P, Q))
    return substitute(F.terms, (P, Q), P ** 0).terms

"""Characteristic-number calculus built on the algebraic tower.

The generators b_k are the coefficients of the universal orientation series
b(T) = T + b_1 T^2 + ...; its compositional inverse is the logarithm, whose
coefficients produce the projective-space Hurewicz images and their
characteristic numbers.  The two-variable group law b(b^{-1}(X) + b^{-1}(Y))
and the beta exponential live here too, as do the quasisymmetric
characteristic numbers of products of projective spaces, the invariant
attached to each weight as a sum over compositions, the cumulant series,
and the noncommutative two-variable addition series that abelianizes to the
group law.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .diffeo import bfk_antipode
from .errors import CapabilityError, DomainError
from .indices import compositions_of, sort_to_partition
from .linear import CommutativeElement, SparseSum, add_term
from .nsym import NSymElement, z_series
from .scalars import ONE, ZERO
from .series import TruncatedSeries, generator_series
from . import qsym
from . import sym


class BElement(CommutativeElement):
    """Polynomial in the orientation coordinates b_k, indexed by partitions."""

    LETTER = "b"
    __slots__ = ()


def b(*parts):
    return BElement({tuple(sorted(parts, reverse=True)): ONE})


def b_series(cap):
    """T + b_1 T^2 + b_2 T^3 + ... up to the cap."""
    return generator_series(BElement, cap)


@lru_cache(maxsize=None)
def miscenko_log(cap):
    """The logarithm: compositional inverse of b(T)."""
    if cap < 1:
        raise DomainError("cap must be at least 1")
    return b_series(cap).revert()


def chi_b(n):
    """Composition antipode of b_n: the T^{n+1} log coefficient."""
    if n == 0:
        return BElement.one()
    return miscenko_log(n + 1).coefficient(n + 1)


def cp_hurewicz(n):
    """Hurewicz image of complex projective n-space: (n+1) chi(b_n)."""
    if n < 0:
        raise DomainError("projective space dimension must be >= 0")
    return chi_b(n).scale(n + 1)


def cp_char_number(n, lam):
    """Characteristic number of CP^n for the partition lam: the b_lam coefficient."""
    lam = tuple(sorted(lam, reverse=True))
    if sum(lam) != n:
        raise DomainError("partition weight %d does not match dimension %d"
                          % (sum(lam), n))
    return cp_hurewicz(n).terms.get(lam, ZERO)


def cp_char_number_oracle(n, lam):
    """Same number from the virtual normal bundle, bypassing the log series.

    Convert m_lam to power sums; each p_k evaluates on the normal bundle of
    CP^n to -(n+1) x^k in the ring with x^{n+1} = 0, so a p-monomial with r
    parts contributes (-(n+1))^r to the x^n coefficient.
    """
    lam = tuple(sorted(lam, reverse=True))
    if sum(lam) != n:
        raise DomainError("partition weight %d does not match dimension %d"
                          % (sum(lam), n))
    if n == 0:
        return ONE
    fp = sym.convert(sym.SymElement({lam: ONE}, "m"), "p")
    total = ZERO
    for mu, c in fp.terms.items():
        total += c * (-(n + 1)) ** len(mu)
    return total


def fgl(cap):
    """The two-variable addition law b(b^{-1}(X) + b^{-1}(Y)), total degree <= cap."""
    log = miscenko_log(cap)
    inner = log.embed_bivariate(0) + log.embed_bivariate(1)
    return b_series(cap).compose(inner)


# -- beta exponential ------------------------------------------------------

class BetaPolynomial(SparseSum):
    """Polynomial in a central variable beta with b-polynomial coefficients,
    keyed by the power of beta."""

    COMMUTATIVE = True
    __slots__ = ()

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for k, v in coeffs.items():
                if isinstance(v, (int, float)) or type(v) is Fraction:
                    v = BElement({(): v})
                if v:
                    data[int(k)] = v
        self.terms = data

    @classmethod
    def one(cls):
        return cls({0: BElement.one()})

    @classmethod
    def zero(cls):
        return cls()

    def _unit_term(self, q):
        return 0, BElement({(): q})

    def __mul__(self, other):
        if type(other) is not BetaPolynomial and isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._operand(other)
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                add_term(out, k1 + k2, v1 * v2)
        return self._new(out)

    def _monomial(self, k):
        return "" if k == 0 else "beta" if k == 1 else "beta^%d" % k


def beta_series(cap):
    """exp(beta * log(T)): the one-parameter exponential of the logarithm."""
    if cap < 1:
        raise DomainError("cap must be at least 1")
    lifted = miscenko_log(cap).map_coefficients(
        lambda el: BetaPolynomial({1: el}), algebra=BetaPolynomial)
    return lifted.exp()


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
        factors = tuple(int(n) for n in factors)
        if not factors or any(n < 1 for n in factors):
            raise DomainError("factor dimensions must be positive integers")
        roots = tuple(tuple(int(c) for c in r) for r in roots)
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

    def to_document(self):
        return {"factors": list(self.factors),
                "roots": [list(r) for r in self.roots]}

    # ring elements: dict from exponent vectors to rationals, truncated

    def ring_one(self):
        return {(0,) * len(self.factors): ONE}

    def ring_mul(self, a, bdict):
        out = {}
        for ka, va in a.items():
            for kb, vb in bdict.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                if any(e > n for e, n in zip(key, self.factors)):
                    continue
                add_term(out, key, va * vb)
        return out

    def root_linear(self, q):
        """The q-th root as a ring element."""
        out = {}
        for j, c in enumerate(self.roots[q]):
            if c:
                key = [0] * len(self.factors)
                key[j] = 1
                out[tuple(key)] = c
        return out

    def root_power(self, q, k):
        out = self.ring_one()
        lin = self.root_linear(q)
        for _ in range(k):
            out = self.ring_mul(out, lin)
        return out

    def evaluate_composition(self, I):
        """M_I on the ordered root list, inside the truncated ring."""
        I = tuple(I)
        total = {}
        for positions in combinations(range(len(self.roots)), len(I)):
            term = self.ring_one()
            for q, part in zip(positions, I):
                term = self.ring_mul(term, self.root_power(q, part))
                if not term:
                    break
            for key, c in term.items():
                add_term(total, key, c)
        return total

    def evaluate_qsym(self, f):
        total = {}
        for I, c in f.terms.items():
            for key, v in self.evaluate_composition(I).items():
                add_term(total, key, c * v)
        return total

    def top_coefficient(self, poly):
        return poly.get(self.factors, ZERO)


def quasitoric_char_number(space, I, convention="tangent"):
    """Quasisymmetric characteristic number of a projective product space.

    The tangential convention evaluates M_I directly on the declared roots.
    The normal convention evaluates on the virtual negative of the bundle,
    which is the antipode of M_I on the same roots.
    """
    I = tuple(I)
    if any(not isinstance(k, int) or k < 1 for k in I):
        raise DomainError("composition parts must be positive integers")
    if convention == "tangent":
        poly = space.evaluate_composition(I)
    elif convention == "normal":
        poly = space.evaluate_qsym(qsym.antipode(qsym.QSymElement({I: ONE})))
    else:
        raise DomainError("convention must be 'tangent' or 'normal'")
    return space.top_coefficient(poly)


# -- composition-sum invariant, cumulants, noncommutative addition ---------

# log2 of the most compositions crn_invariant enumerates: weight 18, whose
# 131072 terms ``crn --weight 18`` builds and prints in about 1.3 s on
# CPython 3.11 (weight 19 doubles that, and weight 30 exhausts memory)
CRN_LOG2_BOUND = 17


def crn_invariant(k):
    """Sum of Z_I over all compositions of k: one term per face structure."""
    if k < 1:
        raise DomainError("the invariant is defined for weight >= 1")
    if k - 1 > CRN_LOG2_BOUND:
        raise CapabilityError("weight %d has 2^%d compositions, over the bound of "
                              "2^%d = %d" % (k, k - 1, CRN_LOG2_BOUND,
                                             2 ** CRN_LOG2_BOUND))
    return NSymElement({I: ONE for I in compositions_of(k)})


def cumulant_series(cap):
    """Antipode applied to Z(T) coefficientwise, then T replaced by -T."""
    if cap < 1:
        raise DomainError("cap must be at least 1")
    return z_series(cap).map_coefficients(bfk_antipode).alternate()


def cp_infinity_coproduct(cap):
    """Two-variable addition series sum_k Z_k ((chi Z)(X) + (chi Z)(Y))^{k+1}.

    X and Y are central; the coefficients stay noncommutative.  Setting one
    variable to zero must return the other variable alone, and collapsing
    Z_k to b_k recovers the commutative group law.
    """
    if cap < 1:
        raise DomainError("cap must be at least 1")
    zs = z_series(cap)
    chi = zs.map_coefficients(bfk_antipode)
    inner = chi.embed_bivariate(0) + chi.embed_bivariate(1)
    return zs.compose(inner)


def abelianize_to_b(f):
    """Collapse a Z-algebra element to b-polynomials: Z_I to b_{sort(I)}."""
    return BElement(f.map_indices(sort_to_partition))


def abelianize_series_to_b(s):
    return s.map_coefficients(abelianize_to_b, algebra=BElement)


# -- small multivariate substitution helper (associativity checks) ---------

def mpoly_mul(a, bdict, cap):
    """Multiply dicts {exponent tuple: element}, truncating at total degree cap."""
    out = {}
    for ka, va in a.items():
        da = sum(ka)
        if da > cap:
            continue
        for kb, vb in bdict.items():
            if da + sum(kb) > cap:
                continue
            add_term(out, tuple(x + y for x, y in zip(ka, kb)), va * vb)
    return out


def evaluate_bivariate(F, P, Q, cap):
    """Substitute multivariate polynomial dicts P, Q into a bivariate series F.

    Coefficients of F and values of P, Q must live in the same commutative
    algebra; the result is a dict like P and Q.  Used to check group-law
    associativity with three variables without a trivariate series type.
    """
    nvars = len(next(iter(P))) if P else len(next(iter(Q)))
    unit = {(0,) * nvars: F._unit_term(1)[1]}
    out = {}
    max_j = max((j for (_, j) in F.coeffs), default=0)
    q_powers = [unit]
    for _ in range(max_j):
        q_powers.append(mpoly_mul(q_powers[-1], Q, cap))
    max_i = max((i for (i, _) in F.coeffs), default=0)
    p_powers = [unit]
    for _ in range(max_i):
        p_powers.append(mpoly_mul(p_powers[-1], P, cap))
    for (i, j), c in F.coeffs.items():
        term = mpoly_mul(p_powers[i], q_powers[j], cap)
        for key, v in term.items():
            add_term(out, key, c * v)
    return out

"""Truncated power series with exact coefficients in a configurable algebra.

A series is a ``linear.SparseSum`` keyed by the exponent: an ``int``, or a
pair ``(i, j)`` for two variables.  Its ``algebra`` holds the coefficients:
``scalars.Q`` (given as ``Q`` or ``Fraction``), an algebra of the package, or
a ``TensorSpace``, read only through the protocol of ``scalars.Q``.  Every
operation truncates at a fixed ``cap``: exponents of total degree > cap are
discarded, and operations never invent coefficients beyond it.

Composition is one ``linear.substitute``, outer coefficients on the left of
the inner powers: the convention that makes the noncommutative functional
calculus here come out right.  An outer series over numbers takes an inner
one over any algebra, so ``exp``, ``log`` and ``invert`` are each a
composition of a fixed rational series.  ``compose_sum`` substitutes
inner(X) + inner(Y) for a univariate inner series: it serves only
``topology.cp_infinity_coproduct``, whose noncommutative coefficients keep
the binomial count of the commutative group law ``topology.fgl`` from
applying.  The swap of the central X and Y fixes every power of that sum, so
it builds each power on the keys (i, j) with i <= j only and mirrors the
result, with about half the coefficient products of ``compose`` of the
embedded sum.  The ``verify`` suite ``bfk`` checks it against Horner's rule
on that embedded sum.
Reversion, defined over commutative coefficients only, takes one pass and no
composition: at degree n it fills [T^n] g^k for k >= 2 from g_1 .. g_(n-1),
then reads off g_n.  ``reverted_power`` counts the coefficients of the
powers of the inverse of ``generator_series`` in closed form instead.
"""

from fractions import Fraction
from math import factorial, inf
from operator import add

from .errors import AlgebraMismatchError, DomainError
from .indices import natural, partitions_of, power_count
from .linear import SparseSum, add_product, add_term, checked, settle_sums, substitute
from .scalars import Q, coefficient_algebra, quotient


def _zero_key(nvars):
    return 0 if nvars == 1 else (0,) * nvars


def _degree(key):
    return key if type(key) is int else sum(key)


class TruncatedSeries(SparseSum):
    __slots__ = ("algebra", "cap", "nvars")

    def __init__(self, algebra, coeffs=None, cap=6, nvars=1):
        natural(cap, "cap")
        # a bool or a float passes ``in (1, 2)``, so the type is tested
        if type(nvars) is not int or nvars not in (1, 2):
            raise DomainError("a series has one or two variables, not %r" % (nvars,))
        self.algebra = algebra = coefficient_algebra(algebra)
        self.cap = cap
        self.nvars = nvars
        # a scalar goes on the unit; anything else must be of the algebra
        self.terms = checked(coeffs, self._norm_key, algebra.lift)

    # -- representation helpers -------------------------------------------

    def _norm_key(self, k):
        """``k`` if it is an exponent here (a nonnegative ``int``, or a pair of
        them for two variables) of total degree at most the cap, ``None`` if
        it lies beyond the cap; ``DomainError`` if it is not an exponent."""
        if (type(k) is int and k >= 0 if self.nvars == 1 else
                type(k) is tuple and len(k) == 2 and type(k[0]) is type(k[1]) is int
                and min(k) >= 0):
            return k if (k if self.nvars == 1 else k[0] + k[1]) <= self.cap else None
        raise DomainError("%r is not an exponent of a %d-variable power series"
                          % (k, self.nvars))

    def _new(self, terms, cap=None, nvars=None):
        """A series over this algebra holding ``terms`` as given, with no
        second pass: a fresh dict whose keys are canonical exponents of total
        degree <= cap and whose values are nonzero stored coefficients, as
        arithmetic builds it."""
        obj = super()._new(terms)
        obj.algebra = self.algebra
        obj.cap = self.cap if cap is None else cap
        obj.nvars = self.nvars if nvars is None else nvars
        return obj

    def _same_kind(self, other):
        return other.algebra == self.algebra and other.nvars == self.nvars

    def _unit_term(self, q):
        return _zero_key(self.nvars), self.algebra.lift(q)

    def coefficient(self, k):
        """Coefficient of T^k (or X^i Y^j for a pair key); zero when absent.
        Beyond the cap the coefficient is unknown, so it is refused."""
        key = self._norm_key(k)
        if key is None:
            term = "T^%d" % k if self.nvars == 1 else "X^%d*Y^%d" % k
            raise DomainError("the coefficient of %s is unknown: this series is "
                              "known only to total degree %d" % (term, self.cap))
        return self.terms.get(key) or self.algebra.zero()  # a stored value is nonzero

    def valuation(self):
        """Smallest total degree with a nonzero coefficient; cap+1 when zero."""
        return min(map(_degree, self.terms), default=self.cap + 1)

    def truncate(self, cap):
        """This series known only up to total degree ``cap``; a cap at or
        above ``self.cap`` keeps ``self.cap``, since no precision is gained.
        A Laurent view may be cut below degree 0, so any ``int`` is a cap."""
        if natural(cap, "cap", -inf) >= self.cap:
            return self._new(dict(self.terms))
        return self._new({k: v for k, v in self.terms.items() if _degree(k) <= cap}, cap)

    def map_coefficients(self, fn, algebra=None):
        return TruncatedSeries(self.algebra if algebra is None else algebra,
                               {k: fn(v) for k, v in self.terms.items()}, self.cap, self.nvars)

    # -- ring operations --------------------------------------------------

    def __eq__(self, other):
        # series known to different caps differ
        if type(other) is TruncatedSeries and other.cap != self.cap:
            return False
        return super().__eq__(other)

    def __add__(self, other):
        other = self._operand(other)
        cap = min(self.cap, other.cap)
        out = {k: v for k, v in self.terms.items() if _degree(k) <= cap}
        for k, v in other.terms.items():
            if _degree(k) <= cap:
                add_term(out, k, v)
        return self._new(out, cap)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not TruncatedSeries and isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._operand(other)
        cap = min(self.cap, other.cap)
        univariate = self.nvars == 1
        scalar = self.algebra.SCALAR
        right = sorted((k if univariate else sum(k), k, v) for k, v in other.terms.items())
        if univariate and right and self.terms:
            low = min(self.terms)
            if low < 0 or right[0][0] < 0:
                # a negative power of a shift view brings the other factor's
                # unknown powers down to lower degrees
                cap = min(cap, self.cap + right[0][0], other.cap + low)
        out = {}
        for k1, v1 in self.terms.items():
            room = cap - (k1 if univariate else sum(k1))
            for d2, k2, v2 in right:
                if d2 > room:
                    break
                add_product(out, k1 + k2 if univariate else tuple(map(add, k1, k2)),
                            v1, v2, scalar)
        return self._new(settle_sums(out, scalar), cap)

    # -- inversion, composition, reversion --------------------------------

    def invert(self):
        """Multiplicative inverse: sum_n (-1)^n c0^-(n+1) T^n of self - c0."""
        if self.valuation() < 0:
            raise DomainError("inversion needs a power series, not negative powers of T")
        c0 = self.coefficient(_zero_key(self.nvars))
        # read the rational off c0 along the unit's chain of one-term sums
        unit = self.algebra.one()
        while isinstance(unit, SparseSum) and c0.terms.keys() == unit.terms.keys():
            (key, unit), = unit.terms.items()
            c0 = c0.terms[key]
        if isinstance(c0, SparseSum) or not c0:
            raise DomainError("inversion needs a nonzero rational times 1 as constant term")
        a, b = c0.as_integer_ratio()  # 1/c0 = b/a
        coeffs = {n: quotient((-b) ** n * b, a ** (n + 1)) for n in range(self.cap + 1)}
        return TruncatedSeries(Q, coeffs, self.cap).compose(self - c0)

    def _composable(self, inner):
        """``inner`` cut to the common cap, once it may be substituted into this
        series: ``DomainError`` or ``AlgebraMismatchError`` otherwise."""
        if self.nvars != 1:
            raise DomainError("composition needs a univariate outer series")
        if inner.algebra != self.algebra and not self.algebra.SCALAR:
            raise AlgebraMismatchError("inner series over a different coefficient ring")
        if inner.terms.get(_zero_key(inner.nvars)):
            raise DomainError("inner series must have zero constant term")
        if min(self.terms, default=0) < 0 or inner.valuation() < 0:
            raise DomainError("composition needs power series, not negative powers of T")
        return inner.truncate(min(self.cap, inner.cap))

    def compose(self, inner):
        """Substitute ``inner`` (zero constant term) into this univariate series."""
        inner = self._composable(inner)
        # outer coefficients on the left, lowest power first, whose sym basis a sum takes
        return substitute({(n,): self.terms[n] for n in sorted(self.terms)}, [inner], inner ** 0)

    def compose_sum(self, inner):
        """The bivariate series of this one at inner(X) + inner(Y), for a
        univariate ``inner`` with zero constant term: equal to ``compose`` of
        ``inner.embed_bivariate(0) + inner.embed_bivariate(1)``, with the same
        refusals.

        The swap of the central X and Y fixes the coefficients and the sum, so
        every power P_k of the sum is symmetric, and only its keys (i, j) with
        i <= j are built: P_k from P_(k-1) times the sum, the coefficient at
        (j, i) read from (i, j).  Outer coefficients go on the left, as in
        ``compose``; the half is mirrored at the end.
        """
        if inner.nvars != 1:
            raise DomainError("compose_sum needs a univariate inner series")
        inner = self._composable(inner)
        cap, f = inner.cap, self.terms
        steps = sorted(inner.terms.items())
        scalar = inner.algebra.SCALAR
        outer_scalar = scalar or self.algebra.SCALAR
        power = {(0, 0): inner.algebra.one()}  # P_0, then P_k on keys i <= j
        out = {}
        for k in range(max(f, default=-1) + 1):
            if k:
                sums = {}
                for (i, j), v in power.items():
                    for d, a in steps:
                        if i + j + d > cap:
                            break
                        # X steps (i, j) to (i + d, j), Y to (i, j + d), and Y
                        # steps the mirror (j, i) to (j, i + d): each kept when
                        # it lands on a key i <= j
                        if i + d <= j:
                            add_product(sums, (i + d, j), v, a, scalar)
                        add_product(sums, (i, j + d), v, a, scalar)
                        if i < j <= i + d:
                            add_product(sums, (j, i + d), v, a, scalar)
                power = settle_sums(sums, scalar)
            if k in f:
                for key, v in power.items():
                    add_product(out, key, f[k], v, outer_scalar)
        half = settle_sums(out, outer_scalar)
        return inner._new({**half, **{(j, i): v for (i, j), v in half.items() if i < j}},
                          nvars=2)

    def revert(self):
        """Compositional inverse of a series T + higher order terms.

        Solves f(g(T)) = T in one pass, degree by degree (Knuth, TAOCP vol. 2,
        4.7); only valid over commutative coefficients, which is all this
        package ever needs.
        """
        if self.nvars != 1:
            raise DomainError("reversion needs a univariate series")
        if not self.algebra.COMMUTATIVE:
            raise DomainError("reversion requires commutative coefficients")
        one = self.algebra.one()
        if self.terms.get(0) or self.terms.get(1) != one or self.valuation() < 0:
            raise DomainError("reversion needs the form T + higher order terms")
        f, g = self.terms, {1: one}
        scalar = self.algebra.SCALAR
        powers = {1: g}  # powers[k][m] = [T^m] g^k, known for m < n
        for n in range(2, self.cap + 1):
            # [T^n] g^k = sum_j g_j [T^(n-j)] g^(k-1) needs only g_1 .. g_(n-1)
            sums = {}
            for k in range(2, n + 1):
                row = powers[k - 1]  # no entry below degree k - 1
                for j, gj in g.items():
                    if n - j in row:
                        add_product(sums, k, gj, row[n - j], scalar)
            total = {}
            for k, v in settle_sums(sums, scalar).items():
                powers.setdefault(k, {})[n] = v
                if k in f:
                    add_product(total, n, f[k], v, scalar)
            # [T^n] f(g) = g_n + sum_{k >= 2} f_k [T^n] g^k vanishes
            for v in settle_sums(total, scalar).values():
                g[n] = -v
        return self._new(g)

    def residue(self):
        """Coefficient of T^-1 of this series times dT, i.e. a formal residue hook.

        Stored exponents are nonnegative, so the residue of a plain series is
        zero; ``shift`` produces the negative-exponent views where this is
        useful, which sums and products keep and the other operations refuse.
        """
        if self.nvars != 1:
            raise DomainError("residue is univariate only")
        if self.cap < -1:
            raise DomainError("the residue needs T^-1, but this series is known only "
                              "to T^%d" % self.cap)
        return self.terms.get(-1) or self.algebra.zero()

    def shift(self, k):
        """Multiply by T^k, allowing negative exponents (Laurent view).  A
        negative ``k`` lowers the cap by |k|, since T^(cap + 1) of this series,
        which is unknown, lands on T^(cap + 1 + k)."""
        if self.nvars != 1:
            raise DomainError("shift is univariate only")
        natural(k, "shift", -inf)
        return self._new({e + k: v for e, v in self.terms.items() if e + k <= self.cap},
                         min(self.cap, self.cap + k))

    # -- transcendental helpers over the rationals ------------------------

    def exp(self):
        """exp of a series with zero constant term: sum_n T^n/n! of it."""
        if self.terms.get(_zero_key(self.nvars)) or self.valuation() < 0:
            raise DomainError("exp needs a power series with zero constant term")
        coeffs = {n: quotient(1, factorial(n)) for n in range(self.cap + 1)}
        return TruncatedSeries(Q, coeffs, self.cap).compose(self)

    def log(self):
        """log of a series with constant term 1: sum_n (-1)^(n+1) T^n/n of it - 1."""
        u = self - 1
        if _zero_key(self.nvars) in u.terms or u.valuation() < 0:
            raise DomainError("log needs a power series with constant term 1")
        coeffs = {n: quotient((-1) ** (n + 1), n) for n in range(1, self.cap + 1)}
        return TruncatedSeries(Q, coeffs, self.cap).compose(u)

    def alternate(self):
        """Substitute T -> -T in a univariate series."""
        if self.nvars != 1:
            raise DomainError("alternate is univariate only")
        return self._new({k: (v if k % 2 == 0 else -v) for k, v in self.terms.items()})

    # -- bivariate plumbing -----------------------------------------------

    def embed_bivariate(self, slot):
        """View a univariate series as bivariate in variable ``slot`` (0 or 1)."""
        if self.nvars != 1:
            raise DomainError("embed_bivariate needs a univariate series")
        _check_slot(slot)
        return self._new({((e, 0) if slot == 0 else (0, e)): v
                          for e, v in self.terms.items()}, nvars=2)

    def swap_variables(self):
        """Exchange the two variables of a bivariate series."""
        if self.nvars != 2:
            raise DomainError("swap_variables needs a bivariate series")
        return self._new({(j, i): v for (i, j), v in self.terms.items()})

    def set_variable_zero(self, slot):
        """Kill one variable of a bivariate series, returning a univariate one."""
        if self.nvars != 2:
            raise DomainError("set_variable_zero needs a bivariate series")
        _check_slot(slot)
        return self._new({key[1 - slot]: v for key, v in self.terms.items() if not key[slot]},
                         nvars=1)

    # -- printing ---------------------------------------------------------

    @staticmethod
    def _sort_key(k):
        # X before Y within each total degree
        return k if type(k) is int else (sum(k), tuple(-x for x in k))

    @staticmethod
    def _monomial(k):
        if type(k) is int:
            return "" if k == 0 else "T" if k == 1 else "T^%d" % k
        return "*".join(name if x == 1 else "%s^%d" % (name, x)
                        for name, x in zip("XY", k) if x)

    def __repr__(self):
        return "TruncatedSeries(%s, cap=%d)" % (self, self.cap)


def _check_slot(slot):
    if slot not in (0, 1):
        raise DomainError("variable slot must be 0 or 1, not %r" % (slot,))


def generator_series(element_cls, cap):
    """The tautological series T + g_1 T^2 + g_2 T^3 + ... over ``element_cls``.

    The coefficient of T^{n+1} is the single weight-n generator of the
    algebra, so in weight terms [T^k] has weight k - 1.
    """
    coeffs = {1: element_cls.one()}
    for n in range(1, natural(cap, "cap")):
        coeffs[n + 1] = element_cls.from_index((n,))
    return TruncatedSeries(element_cls, coeffs, cap, 1)


def reverted_power(element_cls, n, k=1):
    """[T^n] r^k over the commutative ``element_cls``, for r the
    compositional inverse of ``generator_series(element_cls, cap)``, cap >= n,
    and 1 <= k <= n.  Lagrange inversion (Stanley, *Enumerative
    Combinatorics* 2, Thm 5.4.2) makes it (k/n) [T^(n-k)] (1 + g_1 T + g_2
    T^2 + ...)^(-n): the coefficient of g_lam is (k/n) ``power_count(-n,
    lam)``, an ``int`` since r has integer coefficients."""
    return element_cls()._new({lam: k * power_count(-n, lam) // n
                               for lam in partitions_of(n - k)})

"""Truncated power series with exact coefficients in a configurable algebra.

A series is a ``linear.SparseSum`` keyed by the exponent: an ``int``, or a
pair ``(i, j)`` for two variables.  Coefficients are plain rational scalars
(the ``algebra`` tag is ``Fraction``), elements of one of the package's
algebras, or tensors over a ``TensorSpace``.  Every operation truncates at a
fixed ``cap``: exponents of total degree > cap are discarded, and operations
never invent coefficients beyond it.

Composition and reversion follow the classical recursions.  Reversion is only
defined over commutative coefficients; composition multiplies outer
coefficients on the left of inner-series products, which is the convention
that makes the noncommutative functional calculus here come out right.
"""

from fractions import Fraction
from math import factorial
from operator import add

from .errors import AlgebraMismatchError, DomainError
from .linear import SparseSum, Tensor, TensorSpace, add_term, settle
from .scalars import ZERO, quotient, rational


def _zero_key(nvars):
    return 0 if nvars == 1 else (0,) * nvars


def _degree(key):
    return key if type(key) is int else sum(key)


class TruncatedSeries(SparseSum):
    __slots__ = ("algebra", "cap", "nvars")

    def __init__(self, algebra, coeffs=None, cap=6, nvars=1):
        if cap < 0:
            raise DomainError("cap must be nonnegative")
        self.algebra = algebra
        self.cap = cap
        self.nvars = nvars
        data = {}
        if coeffs:
            for k, v in coeffs.items():
                key = self._norm_key(k)
                if _degree(key) > cap:
                    continue
                v = self._norm_coeff(v)
                if v:
                    data[key] = v
        self.terms = data

    # -- representation helpers -------------------------------------------

    def _norm_key(self, k):
        if self.nvars == 1:
            return int(k)
        return tuple(int(x) for x in k)

    def _norm_coeff(self, v):
        """``v`` as a stored coefficient; ``AlgebraMismatchError`` if it is
        neither a scalar nor of this series' algebra (a tensor over the same
        factors, for a ``TensorSpace``)."""
        algebra = self.algebra
        if algebra is Fraction:
            return rational(v)
        if type(v) is algebra:
            return v
        if isinstance(v, (int, float)) or type(v) is Fraction:
            return algebra.one().scale(v)
        if type(v) is Tensor and type(algebra) is TensorSpace and v.factors == algebra.factors:
            return v
        raise AlgebraMismatchError("a %s coefficient is not in the series algebra %s"
                                   % (type(v).__name__, getattr(algebra, "__name__", algebra)))

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
        algebra = self.algebra
        return _zero_key(self.nvars), q if algebra is Fraction else algebra.one().scale(q)

    def coefficient(self, k):
        """Coefficient of T^k (or X^i Y^j for a pair key); zero when absent."""
        v = self.terms.get(self._norm_key(k))
        if v is None:
            return ZERO if self.algebra is Fraction else self.algebra.zero()
        return v

    def valuation(self):
        """Smallest total degree with a nonzero coefficient; cap+1 when zero."""
        return min(map(_degree, self.terms), default=self.cap + 1)

    def truncate(self, cap):
        """This series known only up to total degree ``cap``; a cap at or
        above ``self.cap`` keeps ``self.cap``, since no precision is gained."""
        if cap >= self.cap:
            return self._new(dict(self.terms))
        return self._new({k: v for k, v in self.terms.items() if _degree(k) <= cap}, cap)

    def map_coefficients(self, fn, algebra=None):
        return TruncatedSeries(self.algebra if algebra is None else algebra,
                               {k: fn(v) for k, v in self.terms.items()}, self.cap, self.nvars)

    # -- ring operations --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.algebra == other.algebra and self.nvars == other.nvars
                and self.cap == other.cap and self.terms == other.terms)

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
        scalar = self.algebra is Fraction
        right = sorted((k if univariate else sum(k), k, v) for k, v in other.terms.items())
        out = {}
        for k1, v1 in self.terms.items():
            room = cap - (k1 if univariate else sum(k1))
            for d2, k2, v2 in right:
                if d2 > room:
                    break
                key = k1 + k2 if univariate else tuple(map(add, k1, k2))
                if scalar:
                    out[key] = out.get(key, 0) + v1 * v2
                else:
                    _add_product(out, key, v1, v2)
        return self._new(_settle_sums(out, scalar), cap)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise DomainError("series exponents must be nonnegative integers")
        out = self._operand(1)
        for _ in range(n):
            out = out * self
        return out

    # -- inversion, composition, reversion --------------------------------

    def invert(self):
        """Multiplicative inverse; needs an invertible (scalar-unit) constant term."""
        zero_key = _zero_key(self.nvars)
        c0 = self.terms.get(zero_key)
        if c0 is None:
            raise DomainError("cannot invert a series with zero constant term")
        if self.algebra is Fraction:
            c0_inv = quotient(1, c0)
        else:
            scal = c0.terms.get(())
            if scal is None or len(c0.terms) != 1:
                raise DomainError("constant term must be a scalar multiple of the unit")
            c0_inv = quotient(1, scal)
        out = self._operand(c0_inv)
        rest = self._new({k: v for k, v in self.terms.items() if k != zero_key})
        if not rest:
            return out
        # g = c0^-1 * (1 - rest * g); each pass extends the correct order by one
        acc = out
        for _ in range(self.cap):
            acc = out - (rest * acc).scale(c0_inv)
        probe = self * acc
        if probe != probe._operand(1):
            raise DomainError("inversion failed to converge within the cap")
        return acc

    def compose(self, inner):
        """Substitute ``inner`` (zero constant term) into this univariate series."""
        if self.nvars != 1:
            raise DomainError("composition needs a univariate outer series")
        if inner.algebra != self.algebra:
            raise AlgebraMismatchError("inner series over a different coefficient ring")
        if inner.terms.get(_zero_key(inner.nvars)):
            raise DomainError("inner series must have zero constant term")
        cap = min(self.cap, inner.cap)
        val = max(inner.valuation(), 1)
        scalar = self.algebra is Fraction
        result = {}
        power = inner._operand(1).truncate(cap)
        for n in range(0, cap + 1):
            if n > 0:
                power = power * inner
                if n * val > cap:
                    break
            cn = self.terms.get(n)
            if cn is None:
                continue
            for k, v in power.terms.items():
                # outer coefficients act on the left
                if scalar:
                    result[k] = result.get(k, 0) + cn * v
                else:
                    _add_product(result, k, cn, v)
        return self._new(_settle_sums(result, scalar), cap, inner.nvars)

    def revert(self):
        """Compositional inverse of a series T + higher order terms.

        Solves f(g(T)) = T degree by degree; only valid over commutative
        coefficients, which is all this package ever needs.
        """
        if self.nvars != 1:
            raise DomainError("reversion needs a univariate series")
        if not (self.algebra is Fraction or self.algebra.COMMUTATIVE):
            raise DomainError("reversion requires commutative coefficients")
        one = self._unit_term(1)[1]
        if self.terms.get(0) or self.terms.get(1) != one:
            raise DomainError("reversion needs the form T + higher order terms")
        g = {1: one}
        for n in range(2, self.cap + 1):
            comp = self.truncate(n).compose(self._new(dict(g), n))
            err = comp.terms.get(n)
            if err:
                g[n] = -err
        return self._new(g)

    def residue(self):
        """Coefficient of T^-1 of this series times dT, i.e. a formal residue hook.

        Stored exponents are nonnegative, so the residue of a plain series is
        zero; ``shift`` produces the negative-exponent views where this is
        useful.
        """
        if self.nvars != 1:
            raise DomainError("residue is univariate only")
        return self.coefficient(-1)

    def shift(self, k):
        """Multiply by T^k, allowing negative exponents (Laurent view)."""
        if self.nvars != 1:
            raise DomainError("shift is univariate only")
        return self._new({e + k: v for e, v in self.terms.items() if e + k <= self.cap})

    # -- transcendental helpers over the rationals ------------------------

    def exp(self):
        """exp of a series with zero constant term."""
        if self.terms.get(_zero_key(self.nvars)):
            raise DomainError("exp needs zero constant term")
        out = term = self._operand(1)
        for n in range(1, self.cap + 1):
            term = term * self
            out = out + term.scale(Fraction(1, factorial(n)))
            if not term:
                break
        return out

    def log(self):
        """log of a series with constant term 1."""
        u = self - 1
        if _zero_key(self.nvars) in u.terms:
            raise DomainError("log needs constant term 1")
        out = self._new({})
        term = self._operand(1)
        sign = 1
        for n in range(1, self.cap + 1):
            term = term * u
            if not term:
                break
            out = out + term.scale(Fraction(sign, n))
            sign = -sign
        return out

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


def _add_product(sums, key, a, b):
    """Add the element product ``a * b`` to the sum kept on ``key``.

    Each sum is a ``(prototype, raw terms)`` bucket that ``a._mul_into``
    fills; the prototype is the left factor of the first product on that
    key, so the finished coefficient takes its kind and its sym basis.
    """
    bucket = sums.get(key)
    if bucket is None:
        bucket = sums[key] = (a, {})
    if not type(a) is type(b) is type(bucket[0]):
        raise AlgebraMismatchError("series coefficients mix %s, %s and %s" % tuple(
            type(x).__name__ for x in (bucket[0], a, b)))
    bucket[0]._mul_into(bucket[1], a, b)


def _settle_sums(sums, scalar):
    """The finished coefficients of ``sums``, zeros dropped: plain number sums
    when ``scalar``, otherwise the buckets of ``_add_product``."""
    if scalar:
        return settle(sums)
    out = {}
    for key, (proto, terms) in sums.items():
        terms = settle(terms)
        if terms:
            out[key] = proto._new(terms)
    return out


def generator_series(element_cls, cap):
    """The tautological series T + g_1 T^2 + g_2 T^3 + ... over ``element_cls``.

    The coefficient of T^{n+1} is the single weight-n generator of the
    algebra, so in weight terms [T^k] has weight k - 1.
    """
    coeffs = {1: element_cls.one()}
    for n in range(1, cap):
        coeffs[n + 1] = element_cls.from_index((n,))
    return TruncatedSeries(element_cls, coeffs, cap, 1)

"""Truncated power series with exact coefficients in a configurable algebra.

Coefficients may be plain rational scalars (the ``algebra`` tag is
``Fraction``; each coefficient is an ``int`` or a ``Fraction`` with
denominator > 1), elements of any of the graded algebras in this package, or
tensors.  A series is stored sparsely as a dict from exponent to coefficient;
for bivariate series the exponent is a pair ``(i, j)``.  Every operation
truncates at a fixed ``cap``: exponents with total degree > cap are
discarded, and operations never invent coefficients beyond it.

Composition and reversion follow the classical recursions.  Reversion is only
defined over commutative coefficients; composition multiplies outer
coefficients on the left of inner-series products, which is the convention
that makes the noncommutative functional calculus here come out right.
"""

from fractions import Fraction
from operator import add

from .errors import AlgebraMismatchError, DomainError
from .linear import Tensor, TensorSpace, add_term, format_terms, settle
from .scalars import ONE, ZERO, quotient, rational


def _is_scalar_algebra(algebra):
    return algebra is Fraction


class TruncatedSeries:
    __slots__ = ("algebra", "coeffs", "cap", "nvars")

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
                if self._degree(key) > cap:
                    continue
                v = self._norm_coeff(v)
                if v:
                    data[key] = v
        self.coeffs = data

    # -- representation helpers -------------------------------------------

    def _norm_key(self, k):
        if self.nvars == 1:
            return int(k)
        return tuple(int(x) for x in k)

    def _degree(self, key):
        return key if self.nvars == 1 else sum(key)

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
            return self._unit_coeff().scale(v)
        if type(v) is Tensor and type(algebra) is TensorSpace and v.factors == algebra.factors:
            return v
        raise AlgebraMismatchError("a %s coefficient is not in the series algebra %s"
                                   % (type(v).__name__, getattr(algebra, "__name__", algebra)))

    def _unit_coeff(self):
        return ONE if _is_scalar_algebra(self.algebra) else self.algebra.one()

    def _zero_coeff(self):
        return ZERO if _is_scalar_algebra(self.algebra) else self.algebra.zero()

    def _coeff_commutative(self):
        if _is_scalar_algebra(self.algebra):
            return True
        return bool(self.algebra.COMMUTATIVE)

    def _same_shape(self, other):
        if (not isinstance(other, TruncatedSeries) or other.algebra != self.algebra
                or other.nvars != self.nvars):
            raise AlgebraMismatchError("series do not live in the same ring")

    def _spawn(self, coeffs, cap=None, nvars=None):
        return TruncatedSeries(self.algebra,
                               coeffs,
                               self.cap if cap is None else cap,
                               self.nvars if nvars is None else nvars)

    def _adopt(self, coeffs, cap=None, nvars=None):
        """A series over this algebra holding ``coeffs`` as given, with no
        second pass: a fresh dict whose keys are canonical exponents of total
        degree <= cap and whose values are nonzero stored coefficients, as
        arithmetic builds it."""
        res = self._spawn(None, cap, nvars)
        res.coeffs = coeffs
        return res

    def coefficient(self, k):
        """Coefficient of T^k (or X^i Y^j for a pair key); zero when absent."""
        key = self._norm_key(k)
        v = self.coeffs.get(key)
        return self._zero_coeff() if v is None else v

    def valuation(self):
        """Smallest total degree with a nonzero coefficient; cap+1 when zero."""
        if not self.coeffs:
            return self.cap + 1
        return min(self._degree(k) for k in self.coeffs)

    def truncate(self, cap):
        """This series known only up to total degree ``cap``; a cap at or
        above ``self.cap`` keeps ``self.cap``, since no precision is gained."""
        if cap >= self.cap:
            return self._adopt(dict(self.coeffs))
        return self._adopt({k: v for k, v in self.coeffs.items() if self._degree(k) <= cap},
                           cap=cap)

    def map_coefficients(self, fn, algebra=None):
        out = {}
        target = self.algebra if algebra is None else algebra
        for k, v in self.coeffs.items():
            w = fn(v)
            if w:
                out[k] = w
        return TruncatedSeries(target, out, self.cap, self.nvars)

    # -- ring operations --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.algebra == other.algebra and self.nvars == other.nvars
                and self.cap == other.cap and self.coeffs == other.coeffs)

    def __add__(self, other):
        if type(other) is not TruncatedSeries and isinstance(other, (int, Fraction)):
            zk = self._norm_key(0 if self.nvars == 1 else (0,) * self.nvars)
            other = self._spawn({zk: other})
        self._same_shape(other)
        cap = min(self.cap, other.cap)
        out = {k: v for k, v in self.coeffs.items() if self._degree(k) <= cap}
        for k, v in other.coeffs.items():
            if self._degree(k) <= cap:
                add_term(out, k, v)
        return self._spawn(out, cap=cap)

    __radd__ = __add__

    def __neg__(self):
        return self._spawn({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, q):
        q = rational(q)
        if not q:
            return self._spawn({})
        if _is_scalar_algebra(self.algebra):
            return self._spawn({k: v * q for k, v in self.coeffs.items()})
        return self._spawn({k: v.scale(q) for k, v in self.coeffs.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is not TruncatedSeries and isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._same_shape(other)
        cap = min(self.cap, other.cap)
        univariate = self.nvars == 1
        scalar = _is_scalar_algebra(self.algebra)
        right = sorted((k if univariate else sum(k), k, v) for k, v in other.coeffs.items())
        out = {}
        for k1, v1 in self.coeffs.items():
            room = cap - (k1 if univariate else sum(k1))
            for d2, k2, v2 in right:
                if d2 > room:
                    break
                key = k1 + k2 if univariate else tuple(map(add, k1, k2))
                if scalar:
                    out[key] = out.get(key, 0) + v1 * v2
                else:
                    _add_product(out, key, v1, v2)
        return self._adopt(_settle_sums(out, scalar), cap=cap)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise DomainError("series exponents must be nonnegative integers")
        out = self._spawn({self._norm_key(0 if self.nvars == 1 else (0,) * self.nvars): ONE})
        for _ in range(n):
            out = out * self
        return out

    # -- inversion, composition, reversion --------------------------------

    def invert(self):
        """Multiplicative inverse; needs an invertible (scalar-unit) constant term."""
        zero_key = 0 if self.nvars == 1 else (0,) * self.nvars
        c0 = self.coeffs.get(zero_key)
        if c0 is None:
            raise DomainError("cannot invert a series with zero constant term")
        if _is_scalar_algebra(self.algebra):
            c0_inv = quotient(1, c0)
        else:
            scal = c0.terms.get(())
            if scal is None or len(c0.terms) != 1:
                raise DomainError("constant term must be a scalar multiple of the unit")
            c0_inv = quotient(1, scal)
        # g = c0^-1 * (unit - (f - c0) * g), solved degree by degree
        rest = self._spawn({k: v for k, v in self.coeffs.items() if k != zero_key})
        out = self._spawn({zero_key: self._norm_coeff(c0_inv)})
        if not rest.coeffs:
            return out
        # g = c0^-1 * (1 - rest * g); each pass extends the correct order by one
        acc = out
        for _ in range(self.cap):
            acc = out - (rest * acc).scale(c0_inv)
        probe = self * acc
        if probe != probe._spawn({zero_key: ONE}):
            raise DomainError("inversion failed to converge within the cap")
        return acc

    def compose(self, inner):
        """Substitute ``inner`` (zero constant term) into this univariate series."""
        if self.nvars != 1:
            raise DomainError("composition needs a univariate outer series")
        if inner.algebra != self.algebra:
            raise AlgebraMismatchError("inner series over a different coefficient ring")
        zk = 0 if inner.nvars == 1 else (0,) * inner.nvars
        if inner.coeffs.get(zk):
            raise DomainError("inner series must have zero constant term")
        cap = min(self.cap, inner.cap)
        val = max(inner.valuation(), 1)
        scalar = _is_scalar_algebra(self.algebra)
        result = {}
        power = TruncatedSeries(self.algebra, {zk: ONE}, cap, inner.nvars)
        for n in range(0, cap + 1):
            if n > 0:
                power = power * inner
                if n * val > cap:
                    break
            cn = self.coeffs.get(n)
            if cn is None:
                continue
            for k, v in power.coeffs.items():
                # outer coefficients act on the left
                if scalar:
                    result[k] = result.get(k, 0) + cn * v
                else:
                    _add_product(result, k, cn, v)
        return self._adopt(_settle_sums(result, scalar), cap, inner.nvars)

    def revert(self):
        """Compositional inverse of a series T + higher order terms.

        Solves f(g(T)) = T degree by degree; only valid over commutative
        coefficients, which is all this package ever needs.
        """
        if self.nvars != 1:
            raise DomainError("reversion needs a univariate series")
        if not self._coeff_commutative():
            raise DomainError("reversion requires commutative coefficients")
        c1 = self.coeffs.get(1)
        if self.coeffs.get(0) or c1 != self._norm_coeff(1):
            raise DomainError("reversion needs the form T + higher order terms")
        cap = self.cap
        g = {1: self._norm_coeff(1)}
        for n in range(2, cap + 1):
            partial = TruncatedSeries(self.algebra, g, n, 1)
            comp = self.truncate(n).compose(partial)
            err = comp.coeffs.get(n)
            if err:
                g[n] = -err
        out = TruncatedSeries(self.algebra, g, cap, 1)
        return out

    def residue(self):
        """Coefficient of T^-1 of this series times dT, i.e. a formal residue hook.

        Stored exponents are nonnegative, so the residue of a plain series is
        zero; ``shift`` produces the negative-exponent views where this is
        useful.
        """
        return self.coeffs.get(-1, self._zero_coeff())

    def shift(self, k):
        """Multiply by T^k, allowing negative exponents (Laurent view)."""
        if self.nvars != 1:
            raise DomainError("shift is univariate only")
        return self._adopt({e + k: v for e, v in self.coeffs.items() if e + k <= self.cap})

    # -- transcendental helpers over the rationals ------------------------

    def exp(self):
        """exp of a series with zero constant term."""
        if self.coeffs.get(0 if self.nvars == 1 else (0,) * self.nvars):
            raise DomainError("exp needs zero constant term")
        zero_key = 0 if self.nvars == 1 else (0,) * self.nvars
        out = self._spawn({zero_key: ONE})
        term = self._spawn({zero_key: ONE})
        for n in range(1, self.cap + 1):
            term = term * self
            out = out + term.scale(Fraction(1, _factorial(n)))
            if not term.coeffs:
                break
        return out

    def log(self):
        """log of a series with constant term 1."""
        zero_key = 0 if self.nvars == 1 else (0,) * self.nvars
        if self.coeffs.get(zero_key) != self._norm_coeff(1):
            raise DomainError("log needs constant term 1")
        u = self._spawn({k: v for k, v in self.coeffs.items() if k != zero_key})
        out = self._spawn({})
        term = self._spawn({zero_key: ONE})
        sign = 1
        for n in range(1, self.cap + 1):
            term = term * u
            if not term.coeffs:
                break
            out = out + term.scale(Fraction(sign, n))
            sign = -sign
        return out

    def alternate(self):
        """Substitute T -> -T in a univariate series."""
        if self.nvars != 1:
            raise DomainError("alternate is univariate only")
        return self._spawn({k: (v if k % 2 == 0 else -v) for k, v in self.coeffs.items()})

    # -- bivariate plumbing -----------------------------------------------

    def embed_bivariate(self, slot):
        """View a univariate series as bivariate in variable ``slot`` (0 or 1)."""
        if self.nvars != 1:
            raise DomainError("embed_bivariate needs a univariate series")
        out = {}
        for e, v in self.coeffs.items():
            key = (e, 0) if slot == 0 else (0, e)
            out[key] = v
        return TruncatedSeries(self.algebra, out, self.cap, 2)

    def swap_variables(self):
        """Exchange the two variables of a bivariate series."""
        if self.nvars != 2:
            raise DomainError("swap_variables needs a bivariate series")
        return self._spawn({(j, i): v for (i, j), v in self.coeffs.items()})

    def set_variable_zero(self, slot):
        """Kill one variable of a bivariate series, returning a univariate one."""
        if self.nvars != 2:
            raise DomainError("set_variable_zero needs a bivariate series")
        out = {}
        for (i, j), v in self.coeffs.items():
            if slot == 0 and i == 0:
                out[j] = v
            elif slot == 1 and j == 0:
                out[i] = v
        return TruncatedSeries(self.algebra, out, self.cap, 1)

    def __str__(self):
        def key_str(k):
            if self.nvars == 1:
                if k == 0:
                    return ""
                return "T" if k == 1 else "T^%d" % k
            bits = []
            for name, exp in zip(("X", "Y"), k):
                if exp == 1:
                    bits.append(name)
                elif exp != 0:
                    bits.append("%s^%d" % (name, exp))
            return "*".join(bits)
        if self.nvars == 1:
            order = sorted(self.coeffs)
        else:
            # display X before Y within each total degree
            order = sorted(self.coeffs, key=lambda kk: (sum(kk), tuple(-x for x in kk)))
        return format_terms((self.coeffs[k], key_str(k)) for k in order)

    def __repr__(self):
        return "TruncatedSeries(%s, cap=%d)" % (self, self.cap)


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


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
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

"""Exact rational scalars.

Every coefficient in this package is a nonzero ``int``, or a
``fractions.Fraction`` whose denominator is greater than 1: arbitrary
precision, in lowest terms with a positive denominator.  The structure
constants of the tower are integers, so most coefficients stay ``int`` and
take the fast integer path; ``int`` and ``Fraction`` mix exactly (both are
``numbers.Rational``, PEP 3141).  Nothing in the package ever touches
floating point, so all computed results are exact and every test asserts
equality on the nose.

``rational`` is the one normaliser: public constructors and every ``scale``
pass their scalars through it, and it refuses a ``float``.  ``quotient`` is
the one division, since ``int / int`` would give a float.  ``qmul``, ``qadd``
and ``qneg`` are the one product, sum and negation of coefficients, canonical
in and out (an integral ``Fraction`` in, as ``Fraction``'s operators leave
one, too): they dispatch on the operand types, cancel by gcd before they
multiply (Henrici 1956; Knuth, *TAOCP* vol. 2, section 4.5.1), and hand a
non-scalar operand to the operator.  What they or ``quotient`` form is in
lowest terms, so ``_coprime``, the one trusted scalar builder, stores the two
slots ``_numerator`` and ``_denominator`` without the second gcd, sign and
type checks of ``Fraction(n, d)``.  This module reads a ``Fraction`` by the
same slots, never by ``as_integer_ratio`` or the properties; as ``Fraction``
has ``__slots__``, a renamed slot would raise ``AttributeError`` on a read or
a write, never give a wrong value.  ``parse_scalar`` reads the spellings
``str`` writes, ASCII ``-?digits`` and ``-?digits/digits``, as an ``int`` or
a ``quotient``, and hands any other to ``Fraction``'s parser.  Hot loops keep
``int`` arithmetic inline; the slow routes that check them (``exactlinalg``,
the ``suites`` oracles) keep ``Fraction``'s own.  Only this module and
``suites`` call ``Fraction(...)``, and 1 and 0 are literals.  ``Q`` is the
rationals as the coefficient algebra of a series.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError


def rational(q):
    """``q`` in canonical form: an ``int``, or a ``Fraction`` with denominator > 1.

    Accepts anything ``Fraction`` accepts except a ``float``, whose binary
    expansion is never what was meant.
    """
    t = type(q)
    if t is int:
        return q
    if t is Fraction:
        return q._numerator if q._denominator == 1 else q
    if isinstance(q, float):
        raise DomainError("coefficients are exact rationals, not the float %r" % (q,))
    try:
        return rational(Fraction(q))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError("not a rational scalar: %r" % (q,)) from exc


def _coprime(n, d):
    """The ``Fraction`` n/d of coprime ``int``s n and d > 1, built without a
    second reduction."""
    q = object.__new__(Fraction)
    q._numerator, q._denominator = n, d
    return q


def quotient(a, b):
    """The exact quotient ``a / b`` of two rationals, in canonical form: two
    ``int``s over a positive divisor by one gcd, any other pair through
    ``Fraction``."""
    if type(a) is int and type(b) is int and b > 0:
        g = gcd(a, b)
        return a // g if g == b else _coprime(a // g, b // g)
    return rational(Fraction(a, b))


def qmul(a, b):
    """``a * b`` of two canonical scalars, canonical: c (n/d) cancels gcd(c, d)
    and (n1/d1)(n2/d2) gcd(n1, d2) and gcd(n2, d1), which leaves either in
    lowest terms for ``_coprime``.  Any other operand falls back to ``*``."""
    ta, tb = type(a), type(b)
    if ta is int and tb is Fraction:
        c, n, d = a, b._numerator, b._denominator
    elif ta is Fraction and tb is int:
        c, n, d = b, a._numerator, a._denominator
    elif ta is Fraction is tb:
        n1, d1, n2, d2 = a._numerator, a._denominator, b._numerator, b._denominator
        g1, g2 = gcd(n1, d2), gcd(n2, d1)
        n, d = (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)
        return n if d == 1 else _coprime(n, d)
    else:
        return a * b
    g = gcd(c, d)
    return (c // g) * n if g == d else _coprime((c // g) * n, d // g)


def qadd(a, b):
    """``a + b`` of two canonical scalars, canonical (``0`` when they cancel):
    c + n/d is (c*d + n)/d in lowest terms, and over two denominators only a
    factor of gcd(d1, d2) can cancel, so a non-integral result is built by
    ``_coprime``.  Any other operand falls back to ``+``."""
    ta, tb = type(a), type(b)
    if ta is int and tb is Fraction:
        n, d = a * b._denominator + b._numerator, b._denominator
    elif ta is Fraction and tb is int:
        n, d = b * a._denominator + a._numerator, a._denominator
    elif ta is Fraction is tb:
        n1, d1, n2, d2 = a._numerator, a._denominator, b._numerator, b._denominator
        g = gcd(d1, d2)
        if g == 1:
            n, d = n1 * d2 + n2 * d1, d1 * d2
        else:
            s = d1 // g
            t = n1 * (d2 // g) + n2 * s
            g = gcd(t, g)
            n, d = t // g, s * (d2 // g)
    else:
        return a + b
    return n if d == 1 else _coprime(n, d)


def qneg(a):
    """``-a`` of a canonical scalar, a ``Fraction`` with no call of its own
    ``__neg__``; anything else by the operator."""
    return qmul(a, -1) if type(a) is Fraction else -a


def clear_denominators(terms):
    """``(d, ints)``: the least common denominator of the canonical scalars
    in the dict ``terms`` and d times each; ``terms`` itself when d is 1."""
    if Fraction not in set(map(type, terms.values())):
        return 1, terms
    d = lcm(*(c._denominator for c in terms.values() if type(c) is Fraction))
    return d, {k: c._numerator * (d // c._denominator) if type(c) is Fraction else c * d
               for k, c in terms.items()}


def parse_scalar(text):
    """The canonical rational a literal such as ``"-5/2"`` names, as ``str`` writes it."""
    try:
        if type(text) is str and text.isascii():
            num, slash, den = text.partition("/")
            if (num[1:] if num[:1] == "-" else num).isdigit():
                if not slash:
                    return int(num)
                if den.isdigit() and den.strip("0"):
                    return quotient(int(num), int(den))
        return rational(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError("not a rational literal: %r" % (text,)) from exc


class Q:
    """The rationals as a series coefficient algebra.  Every coefficient algebra
    answers its protocol: ``one``, ``zero``, ``lift`` (a constructor's coefficient
    as a stored one), ``COMMUTATIVE``, and ``SCALAR``: are its values numbers."""

    COMMUTATIVE = SCALAR = True
    lift = staticmethod(rational)
    one = staticmethod(lambda: 1)
    zero = staticmethod(lambda: 0)


def coefficient_algebra(algebra):
    """``Q`` for ``Fraction``, the one reader of that spelling, or ``algebra``
    itself when it answers the protocol of ``Q``: in this package only a
    coefficient algebra has ``COMMUTATIVE``.  Anything else raises
    ``DomainError``."""
    if algebra is Fraction:
        return Q
    if hasattr(algebra, "COMMUTATIVE"):
        return algebra
    raise DomainError("a series coefficient algebra is Fraction, an algebra class or "
                      "a TensorSpace, not %r" % (algebra,))

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
the one division, since ``int / int`` would give a float.
"""

from fractions import Fraction

from .errors import DomainError

ZERO = 0
ONE = 1


def rational(q):
    """``q`` in canonical form: an ``int``, or a ``Fraction`` with denominator > 1.

    Accepts anything ``Fraction`` accepts except a ``float``, whose binary
    expansion is never what was meant.
    """
    t = type(q)
    if t is int:
        return q
    if t is Fraction:
        return q.numerator if q.denominator == 1 else q
    if isinstance(q, float):
        raise DomainError("coefficients are exact rationals, not the float %r" % (q,))
    try:
        return rational(Fraction(q))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError("not a rational scalar: %r" % (q,)) from exc


def quotient(a, b):
    """The exact quotient ``a / b`` of two rationals, in canonical form."""
    return rational(Fraction(a, b))


def format_scalar(q):
    """Render a rational as ``"p"`` or ``"p/q"`` (lowest terms, q > 0)."""
    return str(rational(q))


def parse_scalar(text):
    """Inverse of :func:`format_scalar`."""
    try:
        return rational(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError("not a rational literal: %r" % (text,)) from exc

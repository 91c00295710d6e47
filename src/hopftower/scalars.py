"""Exact rational scalars.

Every coefficient in this package is a ``fractions.Fraction``: arbitrary
precision, automatically reduced to lowest terms with a positive denominator.
Nothing in the package ever touches floating point, so all computed results
are exact and every test asserts equality on the nose.
"""

from fractions import Fraction

from .errors import DomainError

ZERO = Fraction(0)
ONE = Fraction(1)


def format_scalar(q):
    """Render a rational as ``"p"`` or ``"p/q"`` (lowest terms, q > 0)."""
    return str(Fraction(q))


def parse_scalar(text):
    """Inverse of :func:`format_scalar`."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError("not a rational literal: %r" % (text,)) from exc


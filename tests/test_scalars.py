"""Coefficients are exact: an int, or a Fraction with denominator > 1.

``scalars.rational`` is the one normaliser and refuses a float, whose binary
expansion would otherwise be stored as an exact but unintended rational.
``scalars.quotient`` is the one division: ``int / int`` gives a float, so no
other module of the package may use the ``/`` operator.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from hopftower.errors import DomainError
from hopftower.nsym import NSymElement, z
from hopftower.series import TruncatedSeries

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"


def test_rational_is_canonical():
    from hopftower.scalars import format_scalar, parse_scalar, quotient, rational
    assert type(rational(Fraction(6, 3))) is int and rational(Fraction(6, 3)) == 2
    assert rational(Fraction(1, 2)) == Fraction(1, 2)
    assert type(rational(True)) is int
    assert rational("-3/6") == Fraction(-1, 2)
    assert type(quotient(6, 3)) is int and quotient(1, 3) == Fraction(1, 3)
    assert quotient(Fraction(1, 2), Fraction(1, 4)) == 2
    assert type(parse_scalar("4/2")) is int
    assert format_scalar(Fraction(4, 2)) == format_scalar(2) == "2"


def test_element_constructor_rejects_floats():
    with pytest.raises(DomainError):
        NSymElement({(1,): 0.1})


def test_scale_rejects_floats():
    with pytest.raises(DomainError):
        z(1).scale(0.1)


def test_series_constructor_rejects_floats():
    with pytest.raises(DomainError):
        TruncatedSeries(Fraction, {1: 0.5}, 3)


def test_integral_results_are_ints():
    half = z(1).scale(Fraction(1, 2))
    assert half.terms == {(1,): Fraction(1, 2)}
    assert type((half + half).terms[(1,)]) is int
    assert type(half.scale(2).terms[(1,)]) is int
    assert type(NSymElement({(1,): Fraction(4, 2)}).terms[(1,)]) is int
    inverse = TruncatedSeries(Fraction, {0: 2}, 3).invert()
    assert inverse.coeffs == {0: Fraction(1, 2)}


def _division_sites(path):
    """Line of every ``/`` or ``/=`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)]


def test_division_only_in_scalars():
    stray = {(path.name, line)
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "scalars.py"
             for line in _division_sites(path)}
    assert not stray

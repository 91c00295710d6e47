"""Every number a public function returns is canonical, and one order lists terms.

A canonical number is an ``int`` where it is integral and a ``Fraction`` with
denominator > 1 otherwise.  Bare numbers in an element expression combine by
Python's operators, and the virtual-bundle oracle for characteristic numbers
sums with ``Fraction``'s own; both return the canonical value.  The rational
series of ``invert``, ``exp`` and ``log`` are built by ``scalars.quotient``
from integers, so they make no binary ``Fraction`` operator call.  The terms
of a JSON document come in the value's own ``_sort_key`` order, which
``jsonio`` does not restate.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from hopftower import jsonio
from hopftower.expr import parse_element
from hopftower.indices import partitions_of
from hopftower.series import TruncatedSeries
from hopftower.topology import cp_char_number, cp_char_number_oracle

_BINARY = ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow", "divmod")


@pytest.mark.parametrize("text, algebra, value", [
    ("1/2*2", None, 1), ("(1/2)^0", None, 1), ("2/3-2/3", None, 0),
    ("1/2+1/3", None, Fraction(5, 6)), ("(2/3)^2*9/4", None, 1), ("1/2*2", "sym", 1)])
def test_a_number_expression_returns_its_canonical_value(text, algebra, value):
    got, family = parse_element(text, algebra)
    assert family == (algebra or "scalar")
    assert got == value and type(got) is type(value)


def test_the_char_number_oracle_is_an_int_where_integral():
    for n in range(6):
        for lam in partitions_of(n):
            got = cp_char_number_oracle(n, lam)
            assert type(got) is int
            assert got == cp_char_number(n, lam)


@pytest.fixture
def no_binary_fraction_operator(monkeypatch):
    def refuse(*args):
        raise AssertionError("a binary Fraction operator was called")

    for name in _BINARY:
        for slot in ("__%s__" % name, "__r%s__" % name):
            monkeypatch.setattr(Fraction, slot, refuse)


def _rational_series():
    """A few rational series with their exp, log and inverse, computed before
    any operator is patched."""
    t = TruncatedSeries(Fraction, {1: 1}, 6)
    out = []
    for c0 in (2, Fraction(-2, 3), Fraction(5, 7), -1):
        s = t + c0
        out.append(("invert", s, s.invert()))
    for s in (t * Fraction(1, 2) + t * t, t - t * t * 3):
        out.append(("exp", s, s.exp()))
        out.append(("log", s + 1, (s + 1).log()))
    return out


def test_rational_series_functions_make_no_binary_fraction_call(request):
    cases = _rational_series()
    request.getfixturevalue("no_binary_fraction_operator")
    for name, s, expected in cases:
        got = getattr(s, name)()
        assert got.terms == expected.terms
        assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())


def test_the_patched_operators_are_the_ones_arithmetic_calls(request):
    request.getfixturevalue("no_binary_fraction_operator")
    with pytest.raises(AssertionError):
        Fraction(1, 2) * Fraction(2, 3)


def test_jsonio_restates_no_order():
    tree = ast.parse(Path(jsonio.__file__).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert "index_sort_key" not in names

"""Coefficients are exact: an int, or a Fraction with denominator > 1.

``scalars.rational`` is the one normaliser and refuses a float, whose binary
expansion would otherwise be stored as an exact but unintended rational.
``scalars.quotient`` is the one division: ``int / int`` gives a float, so no
other module of the package may use the ``/`` operator.  ``scalars.qmul`` and
``scalars.qadd`` are the one coefficient product and sum: they agree with
``Fraction``'s operators, return canonical scalars and hand anything that is
not a scalar back to the operator.  Their non-integral results, and those of
``quotient`` on two ``int``s, are built by ``scalars._coprime`` without a
second reduction, so they must equal ``Fraction``'s in every reading.
"""

import ast
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopftower.errors import DomainError
from hopftower.nsym import NSymElement, z
from hopftower.scalars import _coprime, qadd, qmul, quotient
from hopftower.series import TruncatedSeries
from hopftower.topology import BElement, BetaPolynomial

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"


def test_rational_is_canonical():
    from hopftower.scalars import parse_scalar, quotient, rational
    assert type(rational(Fraction(6, 3))) is int and rational(Fraction(6, 3)) == 2
    assert rational(Fraction(1, 2)) == Fraction(1, 2)
    assert type(rational(True)) is int
    assert rational("-3/6") == Fraction(-1, 2)
    assert type(quotient(6, 3)) is int and quotient(1, 3) == Fraction(1, 3)
    assert quotient(Fraction(1, 2), Fraction(1, 4)) == 2
    assert type(parse_scalar("4/2")) is int


def test_documents_write_each_coefficient_canonically():
    # a document writes str of the stored coefficient, already canonical
    from hopftower.jsonio import document_for, dumps
    two = '{"algebra":"scalar","terms":[{"index":[],"coeff":"2"}]}'
    assert dumps(document_for(Fraction(4, 2))) == dumps(document_for(2)) == two
    assert dumps(document_for(Fraction(-5, 2))) \
        == '{"algebra":"scalar","terms":[{"index":[],"coeff":"-5/2"}]}'
    s = TruncatedSeries(Fraction, {1: Fraction(-5, 2), 2: Fraction(4, 2)}, 2)
    assert dumps(document_for(s)) == ('{"algebra":"scalar","cap":2,"vars":1,"series":'
                                      '[{"power":1,"coeff":"-5/2"},{"power":2,"coeff":"2"}]}')
    assert dumps(document_for(z(1).scale(Fraction(-5, 2)) + 2)) == (
        '{"algebra":"nsym","structure":"binomial","terms":[{"index":[],"coeff":"2"},'
        '{"index":[1],"coeff":"-5/2"}]}')


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


# canonical scalars: ints (zero, negatives and ones far past a machine word
# included) and Fractions with denominator > 1
canonical = st.one_of(
    st.integers(-40, 40), st.integers(-2 ** 130, 2 ** 130),
    st.fractions(max_denominator=60).filter(lambda q: q.denominator > 1),
    st.builds(Fraction, st.integers(-2 ** 100, 2 ** 100), st.integers(2, 2 ** 90)).filter(
        lambda q: q.denominator > 1))


def _is_canonical(q, value):
    return q == value and (type(q) is int) == (Fraction(value).denominator == 1) and (
        type(q) in (int, Fraction))


def _readings(q):
    """Everything a caller can read off a rational, so a built value and
    ``Fraction``'s own must agree on all of it."""
    return (q.numerator, q.denominator), hash(q), str(q)


@settings(max_examples=400, deadline=None)
@given(canonical, canonical)
def test_the_kernel_agrees_with_fraction_and_stays_canonical(a, b):
    for q, value in ((qmul(a, b), Fraction(a) * Fraction(b)),
                     (qadd(a, b), Fraction(a) + Fraction(b))):
        assert _is_canonical(q, value)
        assert _readings(q) == _readings(value)


integers = st.one_of(st.integers(-40, 40), st.integers(-2 ** 130, 2 ** 130))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.just(0), integers), integers.filter(bool))
@example(0, 7)
@example(0, -7)
@example(3, -6)
@example(-3, -6)
@example(6, -3)
@example(-(2 ** 101 + 1), 2 ** 103)
@example(2 ** 120, -(2 ** 101))
@example(7 * (2 ** 101 + 1), 3 * (2 ** 101 + 1))
def test_an_int_quotient_is_fractions_in_every_reading(a, b):
    q, value = quotient(a, b), Fraction(a, b)
    assert _is_canonical(q, value)
    assert _readings(q) == _readings(value)
    back = pickle.loads(pickle.dumps(q))
    assert type(back) is type(q) and _readings(back) == _readings(value)


def test_the_trusted_builder_fills_the_only_two_slots():
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    q = _coprime(-(2 ** 101 + 3), 6)
    assert not hasattr(q, "__dict__")
    assert type(q) is Fraction and _readings(q) == _readings(Fraction(-(2 ** 101 + 3), 6))


def _name_references(path, name):
    """(enclosing function, is the callee of a call) for every use of ``name``
    in ``path``: a bare name, an attribute or an import alias."""
    refs = []

    def visit(node, func, callee):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and name in (node.name, node.asname))):
            refs.append((func, node is callee))
        for child in ast.iter_child_nodes(node):
            visit(child, func, node.func if isinstance(node, ast.Call) else None)

    visit(ast.parse(path.read_text(), filename=str(path)), None, None)
    return refs


def test_the_trusted_builder_is_called_only_by_the_kernel():
    found = {(path.name, func, called)
             for path in sorted(PACKAGE.rglob("*.py"))
             for func, called in _name_references(path, "_coprime")}
    assert found == {("scalars.py", func, True) for func in ("qmul", "qadd", "quotient")}


@settings(max_examples=200, deadline=None)
@given(canonical)
def test_a_cancelling_sum_is_the_int_zero(a):
    for total in (qadd(a, -a), qadd(-a, a)):
        assert total == 0 and type(total) is int


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(1, 5), canonical.filter(bool), max_size=6),
       canonical.filter(bool))
def test_scaling_an_element_is_the_kernel_product_term_by_term(terms, q):
    scaled = NSymElement({(k,): c for k, c in terms.items()}).scale(q).terms
    assert scaled == {(k,): c * q for k, c in terms.items()}
    for (k,), c in scaled.items():
        assert _is_canonical(c, Fraction(terms[k]) * q)


def test_an_element_operand_falls_back_to_the_operator():
    x = BElement({(1,): Fraction(1, 2), (2,): 3})
    half = Fraction(1, 2)
    for a, b in ((x, half), (half, x), (x, 2), (3, x), (x, x)):
        assert qmul(a, b) == a * b
        assert qadd(a, b) == a + b
    scaled = BetaPolynomial({1: x, 2: half}).scale(Fraction(2, 3)).terms
    assert scaled == {1: x.scale(Fraction(2, 3)), 2: BElement({(): Fraction(1, 3)})}

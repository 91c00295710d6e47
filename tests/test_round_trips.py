"""Tensors and beta polynomials come back from their JSON documents exactly,
and univariate series come back from their printed form."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractions import Fraction

from hopftower import structures
from hopftower.diffeo import FdBElement
from hopftower.expr import parse_series
from hopftower.jsonio import document_for, dumps, loads
from hopftower.linear import Tensor
from hopftower.nsym import NSymElement
from hopftower.series import TruncatedSeries
from hopftower.topology import BElement, BetaPolynomial

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
ROWS = list(structures.ALGEBRAS.values())


def _indices(row, top=3):
    return [idx for w in range(top + 1) for idx in row.indices(w)]


@st.composite
def tensors(draw):
    """A tensor over one to three factors drawn from the registry; a sym slot
    holds e-basis partitions, as every tensor slot does."""
    rows = draw(st.lists(st.sampled_from(ROWS), min_size=1, max_size=3))
    keys = st.tuples(*(st.sampled_from(_indices(row)) for row in rows))
    terms = draw(st.dictionaries(keys, fractions, max_size=4))
    return Tensor(tuple(row.cls for row in rows), terms)


@st.composite
def beta_polynomials(draw):
    """Powers 0 to 4 of beta, each with a random b-polynomial coefficient."""
    partitions = _indices(structures.algebra("bpoly"))
    coefficient = st.dictionaries(st.sampled_from(partitions), fractions, max_size=3)
    powers = draw(st.lists(st.integers(0, 4), max_size=5, unique=True))
    return BetaPolynomial({k: BElement(draw(coefficient)) for k in powers})


@settings(max_examples=120, deadline=None)
@given(tensors())
def test_tensor_documents_round_trip(x):
    back = loads(dumps(document_for(x)))
    assert back == x
    assert back.factors == x.factors


@settings(max_examples=120, deadline=None)
@given(beta_polynomials())
def test_beta_polynomial_documents_round_trip(x):
    back = loads(dumps(document_for(x)))
    assert type(back) is BetaPolynomial
    assert back == x


@st.composite
def univariate_series(draw):
    """A one-variable series over a scalar, element or beta-polynomial algebra.

    The expression language reads a series' algebra off its letters, so a
    series over an algebra has one coefficient that names it (a generator, or
    a positive power of beta); otherwise it would print as a scalar series.
    """
    cls = draw(st.sampled_from([Fraction, BElement, FdBElement, NSymElement,
                                BetaPolynomial]))
    cap = draw(st.integers(0, 4))
    powers = st.integers(0, cap)
    if cls is Fraction:
        return TruncatedSeries(Fraction, draw(st.dictionaries(powers, fractions,
                                                              max_size=4)), cap)
    if cls is BetaPolynomial:
        coefficient = beta_polynomials()
    else:
        row = structures.ALGEBRAS[structures.tag_of_class(cls)]
        coefficient = st.builds(cls, st.dictionaries(st.sampled_from(_indices(row)),
                                                     fractions, max_size=3))
    coeffs = draw(st.dictionaries(powers, coefficient, min_size=1, max_size=4))
    s = TruncatedSeries(cls, coeffs, cap)
    # a key that is not () or 0: a generator, or a positive power of beta
    assume(any(any(c.terms) for c in s.terms.values()))
    return s


@settings(max_examples=200, deadline=None)
@given(univariate_series())
def test_univariate_series_parse_back_from_their_printed_form(s):
    """print, then parse: ``parse_series(str(s), s.cap) == s``.  Bivariate
    series print in X and Y, which the series parser does not read (it stops
    at ``unknown letter 'X'``), so they are left out."""
    back = parse_series(str(s), s.cap)
    assert back.algebra is s.algebra
    assert back == s

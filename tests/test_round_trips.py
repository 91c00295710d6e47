"""Tensors and beta polynomials come back from their JSON documents exactly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import structures
from hopftower.jsonio import document_for, dumps, loads
from hopftower.linear import Tensor
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

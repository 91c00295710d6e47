"""Exponent-vector polynomials and the one substitution, against plain loops.

``linear.Polynomial`` multiplies by adding exponent vectors and skips every
pair whose key leaves its bound: none, a total degree, or a box
x_i^(n_i+1) = 0.  The properties compare its products with the untruncated
product cut down afterwards, ``linear.substitute`` with term-by-term
evaluation, and ``ProjectiveProductSpace.evaluate_qsym`` with the walk over
root subsets that it replaced, kept here as the reference.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower.errors import AlgebraMismatchError, DomainError
from hopftower.indices import compositions_of
from hopftower.linear import Polynomial, add_term, substitute
from hopftower.qsym import QSymElement
from hopftower.sym import format_polynomial
from hopftower.topology import BElement, ProjectiveProductSpace, b

scalars = st.one_of(st.integers(-3, 3).filter(bool),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))


def _inside(key, bound):
    if bound is None:
        return True
    if type(bound) is int:
        return sum(key) <= bound
    return all(k <= n for k, n in zip(key, bound))


def _plain_product(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            add_term(out, tuple(x + y for x, y in zip(ka, kb)), va * vb)
    return out


@st.composite
def rings(draw):
    """(nvars, bound) with a bound of each kind."""
    nvars = draw(st.integers(1, 3))
    bound = draw(st.one_of(st.none(), st.integers(0, 5),
                           st.tuples(*[st.integers(0, 3)] * nvars)))
    return nvars, bound


def dicts(nvars, coefficients=scalars, max_size=5):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), coefficients,
                           max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_bounded_product_is_the_full_product_cut_down(data):
    nvars, bound = data.draw(rings())
    a, c = data.draw(dicts(nvars)), data.draw(dicts(nvars))
    full = Polynomial(nvars, a) * Polynomial(nvars, c)
    assert full.terms == _plain_product(a, c)
    cut = {k: v for k, v in full.terms.items() if _inside(k, bound)}
    assert Polynomial(nvars, a, bound) * Polynomial(nvars, c, bound) \
        == Polynomial(nvars, cut, bound)


b_elements = st.sampled_from([b(1), b(1) - 2, b(2, 1).scale(Fraction(1, 2)), b(1, 1) + b(2)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_bounded_product_with_element_coefficients(data):
    nvars, bound = data.draw(rings())
    a = data.draw(dicts(nvars, st.one_of(scalars, b_elements), 4))
    c = data.draw(dicts(nvars, st.one_of(scalars, b_elements), 4))
    cut = {k: v for k, v in _plain_product(a, c).items() if _inside(k, bound)}
    assert Polynomial(nvars, a, bound) * Polynomial(nvars, c, bound) \
        == Polynomial(nvars, cut, bound)


def _naive_substitute(coeffs, values, one):
    total = one * 0
    for key, c in coeffs.items():
        term = one
        for q, k in enumerate(key):
            for _ in range(k):
                term = term * values[q]
        total = total + term.scale(c)
    return total


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_substitute_is_term_by_term_evaluation(data):
    nvars, bound = data.draw(rings())
    m = data.draw(st.integers(0, 3))
    coeffs = data.draw(dicts(m))
    values = [Polynomial(nvars, data.draw(dicts(nvars, max_size=3)), bound) for _ in range(m)]
    one = Polynomial(nvars, {(0,) * nvars: 1}, bound)
    assert substitute(coeffs, values, one) == _naive_substitute(coeffs, values, one)


# -- the ring walk that evaluate_qsym replaced --------------------------------

def _ring_mul(factors, a, c):
    return {k: v for k, v in _plain_product(a, c).items() if _inside(k, factors)}


def _walk(space, I):
    """M_I on the ordered roots: every increasing choice of len(I) roots,
    each root raised to its part by repeated ring products."""
    m = len(space.factors)
    one = {(0,) * m: 1}
    linear = [{tuple(int(i == j) for i in range(m)): c for j, c in enumerate(r) if c}
              for r in space.roots]
    total = {}
    for positions in combinations(range(len(space.roots)), len(I)):
        term = one
        for q, part in zip(positions, I):
            for _ in range(part):
                term = _ring_mul(space.factors, term, linear[q])
        for key, c in term.items():
            add_term(total, key, c)
    return total


@st.composite
def spaces(draw):
    factors = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    roots = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(factors),
                                   max_size=len(factors)), max_size=5))
    return ProjectiveProductSpace(factors, roots)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_evaluate_qsym_is_the_walk_over_root_subsets(data):
    space = data.draw(spaces())
    dim = sum(space.factors)
    indices = [I for w in range(dim + 1) for I in compositions_of(w)]
    f = data.draw(st.dictionaries(st.sampled_from(indices), scalars, max_size=3))
    want = {}
    for I, c in f.items():
        for key, v in _walk(space, I).items():
            add_term(want, key, c * v)
    assert space.evaluate_qsym(QSymElement(f)) == want


# -- pins -------------------------------------------------------------------

def test_the_unit_and_printing_come_from_the_base():
    x = Polynomial(2, {(1, 0): 1, (0, 1): 1}, (1, 1))
    assert x ** 0 == 1 == Polynomial(2, {(0, 0): 1}, (1, 1))
    assert x ** 2 == Polynomial(2, {(1, 1): 2}, (1, 1))
    assert x ** 3 == 0
    assert str(x ** 2 - 3) == "2*x1*x2 - 3"
    assert format_polynomial({(0, 2, 1): Fraction(-1, 2), (1, 0, 0): 1}) == "-1/2*x2^2*x3 + x1"


def test_values_of_another_ring_do_not_combine():
    x = Polynomial(2, {(1, 0): 1})
    for other in (Polynomial(3, {(1, 0, 0): 1}), Polynomial(2, {(1, 0): 1}, 3),
                  BElement.one()):
        with pytest.raises(AlgebraMismatchError):
            x * other
    assert x != Polynomial(2, {(1, 0): 1}, (1, 1))


@pytest.mark.parametrize("key", [(1,), (1, 2, 3), (-1, 0), (True, 0), (1.0, 0), 5, "ab"])
def test_a_key_is_a_vector_of_nonnegative_ints(key):
    with pytest.raises(DomainError):
        Polynomial(2, {key: 1})


@pytest.mark.parametrize("bound", [(1,), (1, 2, 3), (1, -1), (1, True), (1.0, 2), -1, True,
                                   "x", [1, 2]])
def test_a_bound_is_none_an_int_or_one_natural_per_variable(bound):
    with pytest.raises(DomainError):
        Polynomial(2, {(0, 3): 1}, bound)


def test_the_constructor_drops_keys_outside_the_bound():
    assert Polynomial(2, {(2, 0): 1, (1, 1): 1, (0, 1): 1}, 1).terms == {(0, 1): 1}
    assert Polynomial(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}, (1, 2)).terms == {(1, 1): 1, (0, 2): 1}


def test_substitute_with_no_values_is_the_constant_term():
    one = Polynomial(1, {(0,): 1}, (2,))
    assert substitute({(): Fraction(3, 2)}, [], one) == Fraction(3, 2)
    assert substitute({}, [], one) == 0

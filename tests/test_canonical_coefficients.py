"""Every stored coefficient is canonical, and rational arithmetic agrees with
integer arithmetic over a common denominator.

Each operation below runs on elements and arity-2 tensors with ``Fraction``
coefficients.  Its result must store only nonzero ``int``s or ``Fraction``s
with denominator > 1.  It must also equal the same operation on the operands
cleared of denominators (each multiplied by a common denominator D, so that
every coefficient is an ``int``), divided back by D: by D_x * D_y for a
product, D^2 for a square.  The cleared route meets almost no ``Fraction``,
so it checks the exact kernel of ``scalars`` (``qmul``, ``qadd``) by way of
plain integer arithmetic.  The cobar differential of ``algebroid``, whose
cofaces use ``Fraction``'s own operators and leave ``settle`` to canonicalise,
is checked the same way on cochains of both algebroids at levels 0 and 1.
The canonical pairings return a canonical number too: an ``int`` where the
value is integral.
"""

from argparse import Namespace
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import algebroid, cli, diffeo, nsym, qsym, structures, sym
from hopftower.diffeo import FdBElement
from hopftower.linear import Tensor
from hopftower.nsym import NSymElement
from hopftower.qsym import QSymElement
from hopftower.sym import SymElement

coefficients = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool))

# name -> (class, sym basis or None, coproduct, antipode)
ALGEBRAS = {
    "nsym": (NSymElement, None, nsym.coproduct, nsym.antipode),
    "qsym": (QSymElement, None, qsym.coproduct, qsym.antipode),
    "sym e": (SymElement, "e", sym.coproduct, sym.antipode),
    "sym m": (SymElement, "m", sym.coproduct, sym.antipode),
    "fdb": (FdBElement, None, diffeo.fdb_coproduct, diffeo.fdb_antipode),
}
# arity-2 tensors: the factors and the coproduct applied to slot 0
TENSORS = [((NSymElement, QSymElement), nsym.coproduct),
           ((FdBElement, FdBElement), diffeo.fdb_coproduct),
           ((QSymElement, NSymElement), qsym.coproduct)]


def _indices(cls, top=3):
    row = structures.ALGEBRAS[structures.tag_of_class(cls)]
    return [idx for w in range(top + 1) for idx in row.indices(w)]


@st.composite
def terms(draw, keys):
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    return {k: draw(coefficients) for k in chosen}


def _element(cls, basis, terms):
    return SymElement(terms, basis) if basis else cls(terms)


@st.composite
def element_pairs(draw):
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    cls, basis, _, _ = ALGEBRAS[name]
    keys = _indices(cls)
    return name, _element(cls, basis, draw(terms(keys))), _element(cls, basis, draw(terms(keys)))


@st.composite
def tensor_pairs(draw):
    factors, delta = draw(st.sampled_from(TENSORS))
    keys = [(i, j) for i in _indices(factors[0], 2) for j in _indices(factors[1], 2)]
    return (delta, Tensor(factors, draw(terms(keys))), Tensor(factors, draw(terms(keys))))


def _rebuild(x, terms):
    """A value of ``x``'s kind with ``terms``, through the validating constructor."""
    if type(x) is Tensor:
        return Tensor(x.factors, terms)
    return SymElement(terms, x.basis) if type(x) is SymElement else type(x)(terms)


def _denominator(x):
    return lcm(*(Fraction(c).denominator for c in x.terms.values()))


def _cleared(x, d):
    """``x`` times ``d``, a multiple of its denominators: integer coefficients."""
    out = _rebuild(x, {k: int(c * d) for k, c in x.terms.items()})
    assert all(type(c) is int for c in out.terms.values())
    return out


def _divided(terms, d):
    return {k: Fraction(c, d) for k, c in terms.items()}


def _assert_canonical(value):
    for c in value.terms.values():
        assert type(c) is int and c != 0 or type(c) is Fraction and c.denominator > 1, c


def _check(got, cleared, d):
    """``got`` is canonical and equals the integer result ``cleared`` over ``d``."""
    _assert_canonical(got)
    assert got.terms == _divided(cleared.terms, d)


def _check_ring_operations(x, y):
    dx, dy = _denominator(x), _denominator(y)
    d = lcm(dx, dy)
    q = Fraction(-5, 6)
    _check(x + y, _cleared(x, d) + _cleared(y, d), d)
    _check(x - y, _cleared(x, d) - _cleared(y, d), d)
    _check(x * y, _cleared(x, dx) * _cleared(y, dy), dx * dy)
    _check(x ** 2, _cleared(x, dx) ** 2, dx * dx)
    _check(x.scale(q), _cleared(x, dx).scale(q.numerator), dx * q.denominator)
    assert (x + (-x)).terms == {} and (x - x).terms == {}


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_element_operations_store_canonical_coefficients(case):
    name, x, y = case
    _, _, coproduct, antipode = ALGEBRAS[name]
    _check_ring_operations(x, y)
    d = _denominator(x)
    _check(coproduct(x), coproduct(_cleared(x, d)), d)
    _check(antipode(x), antipode(_cleared(x, d)), d)


@settings(max_examples=100, deadline=None)
@given(tensor_pairs())
def test_tensor_operations_store_canonical_coefficients(case):
    delta, t, u = case
    _check_ring_operations(t, u)
    factors = delta(t.factors[0].one()).factors
    cls = t.factors[0]

    def image(idx):
        return delta(cls.from_index(idx))

    d = _denominator(t)
    _check(t.apply(0, image, factors), _cleared(t, d).apply(0, image, factors), d)



def _check_differential(alg, x):
    d = _denominator(x)
    _check(algebroid.differential(alg, x), algebroid.differential(alg, _cleared(x, d)), d)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", sorted(algebroid.ALGEBROIDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_cofaces_store_canonical_coefficients(name, level, data):
    alg = algebroid.ALGEBROIDS[name]
    factors = (alg.base_cls,) + (alg.hopf_cls,) * level
    keys = list(product(*(_indices(f, 2) for f in factors)))
    _check_differential(alg, Tensor(factors, data.draw(terms(keys))))


def test_cofaces_whose_halves_meet_store_ints():
    # the raw cofaces sum halves to Fraction(0) here, and to Fraction(-1) too
    # in the second cochain
    half = Fraction(1, 2)
    _check_differential(algebroid.NN, Tensor((NSymElement, NSymElement),
                                             {((1,), (2,)): half, ((2,), (1,)): half}))
    _check_differential(algebroid.NN, Tensor((NSymElement, NSymElement),
                                             {((), ()): half, ((), (2,)): half}))


def _pairings(left, right):
    """The four canonical pairings, each of a left and a right coefficient
    placed on the same key: ``pair``, ``pair_tensor``, ``hall_pair`` and the
    ``pair`` command on two numbers."""
    return [
        qsym.pair(NSymElement({(1,): left}), QSymElement({(1,): right})),
        qsym.pair_tensor(Tensor.of(NSymElement({(1,): left}), NSymElement({(1,): 1})),
                         Tensor.of(QSymElement({(1,): right}), QSymElement({(1,): 1}))),
        sym.hall_pair(SymElement({(1,): left}, "h"), SymElement({(1,): right}, "m")),
        cli._cmd_pair(Namespace(left=str(left), right=str(right))),
    ]


@pytest.mark.parametrize("left, right, want", [
    (Fraction(1, 2), 2, 1),
    (Fraction(2, 3), Fraction(3, 2), 1),
    (Fraction(-1, 4), 8, -2),
])
def test_an_integral_pairing_is_an_int(left, right, want):
    for got in _pairings(left, right):
        assert type(got) is int and got == want, got


@pytest.mark.parametrize("left, right", [
    (Fraction(1, 2), 3),
    (Fraction(2, 3), Fraction(3, 4)),
])
def test_a_fractional_pairing_is_a_reduced_fraction(left, right):
    for got in _pairings(left, right):
        assert type(got) is Fraction and got.denominator > 1 and got == left * right, got

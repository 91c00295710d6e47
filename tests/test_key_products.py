"""Products of basis keys against references written here.

The monomial algebras multiply two basis keys into one key with coefficient
1 (``key_mul``): concatenation of words in NSym, the sorted merge of
partitions in the commutative algebras.  QSym and the sym m basis keep the
multi-term product.  Element and tensor products are checked against a
plain sum over term pairs, one reference key product per algebra, and the
tensor product against the slot-wise products of its factors, so that both
the one-key path and the slot-by-slot path of ``Tensor`` are covered.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import structures, topology
from hopftower.diffeo import FdBElement
from hopftower.linear import LinearElement, Tensor
from hopftower.nsym import NSymElement
from hopftower.qsym import QSymElement
from hopftower.sym import SymElement
from hopftower.topology import BElement

scalars = st.one_of(st.integers(-3, 3).filter(bool),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))


def _concatenation(i, j):
    return [i + j]


def _sorted_merge(i, j):
    return [tuple(sorted(i + j, reverse=True))]


def _quasi_shuffle(i, j):
    """Every overlapping shuffle of two compositions, with repetition."""
    if not i or not j:
        return [i + j]
    return ([(i[0],) + k for k in _quasi_shuffle(i[1:], j)]
            + [(j[0],) + k for k in _quasi_shuffle(i, j[1:])]
            + [(i[0] + j[0],) + k for k in _quasi_shuffle(i[1:], j[1:])])


REFERENCE = {NSymElement: _concatenation, QSymElement: _quasi_shuffle,
             SymElement: _sorted_merge, FdBElement: _sorted_merge, BElement: _sorted_merge}
# the sym bases whose product is the merge of partitions
MULTIPLICATIVE = ("e", "h", "p")


def _reference_product(cls, x, y, basis=None):
    out = {}
    for i, ci in x.terms.items():
        for j, cj in y.terms.items():
            for k in REFERENCE[cls](i, j):
                out[k] = out.get(k, 0) + Fraction(ci) * cj
    return SymElement(out, basis) if basis else cls(out)


@st.composite
def elements(draw, cls, basis=None):
    row = structures.ALGEBRAS[structures.tag_of_class(cls)]
    indices = [idx for w in range(4) for idx in row.indices(w)]
    keys = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=3, unique=True))
    terms = {k: draw(scalars) for k in keys}
    return SymElement(terms, basis) if basis else cls(terms)


@st.composite
def element_pairs(draw):
    cls = draw(st.sampled_from([row.cls for row in structures.ALGEBRAS.values()]))
    basis = draw(st.sampled_from(MULTIPLICATIVE)) if cls is SymElement else None
    return cls, basis, draw(elements(cls, basis)), draw(elements(cls, basis))


def test_every_algebra_of_the_registry_and_qsym_is_drawn():
    assert set(REFERENCE) == {row.cls for row in structures.ALGEBRAS.values()}
    assert QSymElement in REFERENCE


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_element_products_match_the_reference_key_products(case):
    cls, basis, x, y = case
    got = x * y
    assert got == _reference_product(cls, x, y, basis)
    assert type(got) is cls and all(type(c) is int or c.denominator > 1
                                    for c in got.terms.values())


# (factor classes, whether every factor shares one key product)
TENSOR_FACTORS = [((NSymElement, NSymElement), True),
                  ((FdBElement, FdBElement), True),
                  ((SymElement, FdBElement), True),
                  ((BElement, FdBElement, BElement), True),
                  ((NSymElement, FdBElement), False),
                  ((QSymElement, QSymElement), False),
                  ((QSymElement, NSymElement), False)]


@st.composite
def tensor_cases(draw):
    factors, monomial = draw(st.sampled_from(TENSOR_FACTORS))
    left = [draw(elements(cls)) for cls in factors]
    right = [draw(elements(cls)) for cls in factors]
    return factors, monomial, left, right


@settings(max_examples=120, deadline=None)
@given(tensor_cases())
def test_tensor_products_are_the_slotwise_products(case):
    factors, monomial, left, right = case
    key_muls = {f.key_mul for f in factors}
    assert (len(key_muls) == 1 and None not in key_muls) is monomial
    got = Tensor.of(*left) * Tensor.of(*right)
    assert got == Tensor.of(*(a * b for a, b in zip(left, right)))
    assert got.factors == factors


def test_the_addition_series_makes_no_basis_product_call(monkeypatch):
    """NSym series products multiply keys by ``key_mul`` alone."""
    calls = []
    for cls in {LinearElement} | {row.cls for row in structures.ALGEBRAS.values()}:
        if "basis_mul" in vars(cls):
            real = vars(cls)["basis_mul"].__func__

            def counted(c, i, j, real=real):
                calls.append(c.__name__)
                return real(c, i, j)
            monkeypatch.setattr(cls, "basis_mul", classmethod(counted))
    got = topology.cp_infinity_coproduct(6)
    assert calls == []
    monkeypatch.undo()
    assert got == topology.cp_infinity_coproduct(6)

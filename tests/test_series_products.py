"""Series products and compositions against a coefficient-by-coefficient
reference.

``TruncatedSeries.__mul__`` and ``compose`` add every coefficient product
into one raw sum per output power through the value's ``_mul_into`` hook and
settle each sum once.  The reference below takes the plain route instead:
each coefficient product is ``v1 * v2`` and the products on one power are
summed with ``+``, so the sum keeps the sym basis of its first product.  The
properties run over scalar series, every element family, sym series whose
coefficients mix bases, tensor series and beta-polynomial series, in one and
two variables, and check that every result is canonical.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import sym, topology
from hopftower.diffeo import FdBElement
from hopftower.errors import AlgebraMismatchError
from hopftower.linear import LinearElement, Tensor, TensorSpace
from hopftower.nsym import NSymElement
from hopftower.qsym import QSymElement
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement, e, h
from hopftower.topology import BElement, BetaPolynomial

PARTITIONS = [(), (1,), (2,), (1, 1)]
COMPOSITIONS = [(), (1,), (2,), (1, 1)]

scalars = st.one_of(st.integers(-3, 3).filter(bool),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))


def _terms(draw, indices):
    idxs = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=3, unique=True))
    return {idx: draw(scalars) for idx in idxs}


# family -> (series algebra, draw one nonzero coefficient)
FAMILIES = {
    "scalar": (Fraction, lambda draw: draw(scalars)),
    "sym": (SymElement, lambda draw: SymElement(_terms(draw, PARTITIONS),
                                                draw(st.sampled_from(sym.BASES)))),
    "nsym": (NSymElement, lambda draw: NSymElement(_terms(draw, COMPOSITIONS))),
    "qsym": (QSymElement, lambda draw: QSymElement(_terms(draw, COMPOSITIONS))),
    "fdb": (FdBElement, lambda draw: FdBElement(_terms(draw, PARTITIONS))),
    "bpoly": (BElement, lambda draw: BElement(_terms(draw, PARTITIONS))),
    "tensor": (TensorSpace(NSymElement, FdBElement),
               lambda draw: Tensor.of(NSymElement(_terms(draw, COMPOSITIONS)),
                                      FdBElement(_terms(draw, PARTITIONS)))),
    "beta": (BetaPolynomial,
             lambda draw: BetaPolynomial({k: BElement(_terms(draw, PARTITIONS))
                                          for k in draw(st.lists(st.integers(0, 2), min_size=1,
                                                                 max_size=2, unique=True))})),
}


def _keys(nvars, cap, lowest):
    if nvars == 1:
        return [k for k in range(lowest, cap + 1)]
    return [(i, d - i) for d in range(lowest, cap + 1) for i in range(d + 1)]


def _series(draw, family, nvars, lowest=0, max_size=4):
    algebra, coefficient = FAMILIES[family]
    cap = draw(st.integers(2, 4))
    keys = draw(st.lists(st.sampled_from(_keys(nvars, cap, lowest)), min_size=1,
                         max_size=max_size, unique=True))
    return TruncatedSeries(algebra, {k: coefficient(draw) for k in keys}, cap, nvars)


@st.composite
def series_pairs(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    nvars = draw(st.sampled_from((1, 2)))
    return _series(draw, family, nvars), _series(draw, family, nvars)


@st.composite
def compositions(draw):
    """An outer univariate series and an inner one with zero constant term."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    nvars = draw(st.sampled_from((1, 2)))
    return _series(draw, family, 1), _series(draw, family, nvars, lowest=1, max_size=3)


def _degree(key):
    return key if isinstance(key, int) else sum(key)


def _reference_product(f, g, cap):
    """{key: f * g coefficient}, one ``v1 * v2`` at a time, summed with ``+``."""
    out = {}
    for k1, v1 in f.items():
        for k2, v2 in g.items():
            key = k1 + k2 if isinstance(k1, int) else tuple(a + b for a, b in zip(k1, k2))
            if _degree(key) <= cap:
                out[key] = out[key] + v1 * v2 if key in out else v1 * v2
    return {k: v for k, v in out.items() if v}


def _reference_compose(outer, inner):
    cap = min(outer.cap, inner.cap)
    zero = 0 if inner.nvars == 1 else (0,) * inner.nvars
    power = {zero: 1 if inner.algebra is Fraction else inner.algebra.one()}
    out = {}
    for n in range(cap + 1):
        if n:
            power = _reference_product(power, inner.coeffs, cap)
        cn = outer.coeffs.get(n)
        if cn is not None:
            for k, v in power.items():
                out[k] = out[k] + cn * v if k in out else cn * v
    return {k: v for k, v in out.items() if v}


def _is_canonical_scalar(c):
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)


def _assert_canonical_value(v):
    if isinstance(v, BetaPolynomial):
        assert v.terms and all(type(k) is int and k >= 0 for k in v.terms)
        for c in v.terms.values():
            _assert_canonical_value(c)
        return
    if not isinstance(v, (LinearElement, Tensor)):
        assert _is_canonical_scalar(v)
        return
    assert v.terms and all(_is_canonical_scalar(c) for c in v.terms.values())
    if isinstance(v, Tensor):
        rebuilt = Tensor(v.factors, v.terms)
    elif isinstance(v, SymElement):
        rebuilt = SymElement(v.terms, v.basis)
    else:
        rebuilt = type(v)(v.terms)
    assert rebuilt.terms == v.terms


def _assert_matches(result, want, algebra, cap, nvars):
    assert (result.algebra, result.cap, result.nvars) == (algebra, cap, nvars)
    assert result.coeffs == want
    for key, v in result.coeffs.items():
        assert (type(key) is int if nvars == 1
                else type(key) is tuple and len(key) == nvars
                and all(type(x) is int for x in key))
        assert _degree(key) <= cap
        _assert_canonical_value(v)
        if isinstance(v, SymElement):
            assert v.basis == want[key].basis


@settings(max_examples=80, deadline=None)
@given(series_pairs())
def test_products_match_the_coefficient_reference(pair):
    f, g = pair
    cap = min(f.cap, g.cap)
    _assert_matches(f * g, _reference_product(f.coeffs, g.coeffs, cap),
                    f.algebra, cap, f.nvars)


@settings(max_examples=60, deadline=None)
@given(compositions())
def test_compositions_match_the_coefficient_reference(pair):
    outer, inner = pair
    _assert_matches(outer.compose(inner), _reference_compose(outer, inner),
                    outer.algebra, min(outer.cap, inner.cap), inner.nvars)


def test_mixed_basis_product_takes_the_first_products_basis():
    s = TruncatedSeries(SymElement, {0: h(1), 1: e(1)}, 2)
    t = TruncatedSeries(SymElement, {0: e(1), 1: sym.m(1)}, 2)
    got = s * t
    assert [got.coefficient(k).basis for k in range(3)] == ["h", "h", "e"]
    assert got.coefficient(1) == h(1) * sym.m(1) + e(1) * e(1)


def test_coefficients_of_two_classes_are_refused():
    with pytest.raises(AlgebraMismatchError):
        TruncatedSeries(NSymElement, {0: NSymElement.one(), 1: BElement.one()}, 2)
    clean = TruncatedSeries(NSymElement, {0: NSymElement.one(), 1: NSymElement.one()}, 2)
    # the trusted path skips the constructor's check; products still refuse
    mixed = clean._new({0: NSymElement.one(), 1: BElement.one()})
    for f, g in ((mixed, clean), (clean, mixed), (mixed, mixed)):
        with pytest.raises(AlgebraMismatchError):
            f * g
    with pytest.raises(AlgebraMismatchError):
        mixed.compose(TruncatedSeries(NSymElement, {1: NSymElement.one()}, 2))


def test_the_constructor_refuses_a_coefficient_of_another_algebra():
    space = TensorSpace(NSymElement, NSymElement)
    for algebra, foreign in ((NSymElement, topology.b(1)), (SymElement, NSymElement.one()),
                             (space, Tensor.of(NSymElement.one(), BElement.one())),
                             (space, NSymElement.one())):
        with pytest.raises(AlgebraMismatchError):
            TruncatedSeries(algebra, {1: foreign}, 2)
    ok = TruncatedSeries(space, {0: 2, 1: Tensor.of(NSymElement.one(), NSymElement.one())}, 2)
    assert ok.coefficient(0) == space.one().scale(2)


def test_series_products_make_no_element_product_calls(monkeypatch):
    """The addition series multiplies coefficients through the kernel only."""
    callers = []
    real = LinearElement.__mul__

    def counted(self, other):
        callers.append(Path(sys._getframe(1).f_code.co_filename).name)
        return real(self, other)

    monkeypatch.setattr(LinearElement, "__mul__", counted)
    got = topology.cp_infinity_coproduct(6)
    assert "series.py" not in callers
    monkeypatch.undo()
    assert got == topology.cp_infinity_coproduct(6)


def test_same_basis_sym_products_make_no_conversion(monkeypatch):
    calls = []
    real = sym.convert

    def counted(f, to, integral=False):
        calls.append((f.basis, to))
        return real(f, to, integral)

    monkeypatch.setattr(sym, "convert", counted)
    for basis in sym.BASES:
        x = SymElement({(2, 1): 1, (1,): Fraction(1, 2)}, basis)
        y = SymElement({(1,): 3, (): 1}, basis)
        assert (x * y).basis == basis
        series = TruncatedSeries(SymElement, {0: x, 1: y}, 3)
        series * series
    assert calls == []
    e(1) * h(1)
    assert calls == [("h", "e")]

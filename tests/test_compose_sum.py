"""``TruncatedSeries.compose_sum`` against the route it replaces.

``f.compose_sum(A)`` is f(A(X) + A(Y)).  The swap of the central X and Y fixes
A(X) + A(Y), so it builds each power of that sum only on the keys (i, j) with
i <= j and mirrors the result.  It must equal ``compose`` of the embedded sum
``A.embed_bivariate(0) + A.embed_bivariate(1)`` over commutative and
noncommutative coefficients, refuse what that route refuses with the same
error class, and make at most 0.6 times its coefficient products at cap 8 in
the group law (b(T) at the logarithm, the route ``topology.fgl`` took before
it counted in closed form) and ``topology.cp_infinity_coproduct``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import linear, series, topology
from hopftower.diffeo import bfk_antipode
from hopftower.errors import AlgebraMismatchError, DomainError
from hopftower.nsym import NSymElement, z, z_series
from hopftower.series import TruncatedSeries
from hopftower.topology import BElement, b, b_series, miscenko_log

INDICES = [(), (1,), (2,), (1, 1)]  # partitions and compositions alike

scalars = st.one_of(st.integers(-3, 3).filter(bool),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))


def _element(cls):
    @st.composite
    def draw_element(draw):
        idxs = draw(st.lists(st.sampled_from(INDICES), min_size=1, max_size=2, unique=True))
        return cls({idx: draw(scalars) for idx in idxs})
    return draw_element()


COEFFICIENTS = {Fraction: scalars, BElement: _element(BElement),
                NSymElement: _element(NSymElement)}


@st.composite
def outer_and_inner(draw):
    """An outer series over the inner one's algebra or over ``Fraction``, and
    an inner series with zero constant term, at a cap 1..8 or the inner one
    at 8; each has one to three terms."""
    algebra = draw(st.sampled_from(list(COEFFICIENTS)))
    cap = draw(st.integers(1, 8))

    def series_over(algebra, least, cap):
        powers = draw(st.lists(st.integers(least, cap), min_size=1, max_size=3, unique=True))
        return TruncatedSeries(algebra, {k: draw(COEFFICIENTS[algebra]) for k in powers}, cap)

    return (series_over(draw(st.sampled_from([algebra, Fraction])), 0, cap),
            series_over(algebra, 1, draw(st.sampled_from([cap, 8]))))


def _embedded_sum_route(f, inner):
    return f.compose(inner.embed_bivariate(0) + inner.embed_bivariate(1))


@settings(max_examples=120, deadline=None)
@given(outer_and_inner())
def test_compose_sum_is_compose_of_the_embedded_sum(case):
    f, inner = case
    got = f.compose_sum(inner)
    assert got == _embedded_sum_route(f, inner)
    assert got.nvars == 2 and got.algebra == inner.algebra
    assert got.swap_variables() == got


def test_compose_sum_puts_outer_coefficients_on_the_left():
    outer = TruncatedSeries(NSymElement, {2: z(1)}, 3)
    inner = TruncatedSeries(NSymElement, {1: z(2)}, 3)
    assert outer.compose_sum(inner).coeffs == {(2, 0): z(1, 2, 2), (1, 1): z(1, 2, 2).scale(2),
                                               (0, 2): z(1, 2, 2)}


def _scalar(coeffs, cap=4, nvars=1):
    return TruncatedSeries(Fraction, coeffs, cap, nvars)


# (label, outer, inner, error class of both routes)
REFUSALS = [
    ("nonzero constant term", _scalar({1: 1}), _scalar({0: 1, 1: 1}), DomainError),
    ("bivariate inner", _scalar({1: 1}), _scalar({(1, 0): 1}, nvars=2), DomainError),
    ("bivariate outer", _scalar({(1, 0): 1}, nvars=2), _scalar({1: 1}), DomainError),
    ("negative powers", _scalar({1: 1}), _scalar({3: 1}).shift(-4), DomainError),
    ("mismatched algebras", TruncatedSeries(BElement, {1: b(1)}, 4),
     TruncatedSeries(NSymElement, {1: z(1)}, 4), AlgebraMismatchError),
    ("algebra outer, scalar inner", TruncatedSeries(BElement, {1: b(1)}, 4),
     _scalar({1: 1}), AlgebraMismatchError),
]


@pytest.mark.parametrize("label, f, inner, error", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_compose_sum_refuses_what_the_embedded_sum_route_refuses(label, f, inner, error):
    with pytest.raises(error):
        _embedded_sum_route(f, inner)
    with pytest.raises(error):
        f.compose_sum(inner)


def _old_fgl(cap):
    return _embedded_sum_route(b_series(cap), miscenko_log(cap))


def _old_cp_infinity_coproduct(cap):
    zs = z_series(cap)
    return _embedded_sum_route(zs, zs.map_coefficients(bfk_antipode))


def _add_product_calls(monkeypatch, build):
    """The value of ``build()`` and its number of ``add_product`` calls, every
    cache it reads warmed by a first call."""
    build()
    calls, add_product = [], linear.add_product

    def counting(*args):
        calls.append(None)
        return add_product(*args)

    with monkeypatch.context() as m:
        m.setattr(linear, "add_product", counting)
        m.setattr(series, "add_product", counting)
        value = build()
    return value, len(calls)


def _group_law_by_compose_sum(cap):
    return b_series(cap).compose_sum(miscenko_log(cap))


@pytest.mark.parametrize("new, old", [(_group_law_by_compose_sum, _old_fgl),
                                      (topology.cp_infinity_coproduct,
                                       _old_cp_infinity_coproduct)],
                         ids=["fgl", "cp_infinity_coproduct"])
def test_the_addition_series_take_at_most_six_tenths_of_the_products(monkeypatch, new, old):
    got, calls = _add_product_calls(monkeypatch, lambda: new(8))
    expected, old_calls = _add_product_calls(monkeypatch, lambda: old(8))
    assert got == expected
    assert calls <= 0.6 * old_calls

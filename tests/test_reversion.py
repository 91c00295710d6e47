"""Series reversion in one pass, against one composition per degree.

``TruncatedSeries.revert`` keeps a table of [T^m] g^k and fills degree n
from g_1 .. g_(n-1) before it sets g_n.  The reference below is the route
it replaced: at each degree n it composes f, known to degree n, with the
reversion known so far, and removes the coefficient of T^n that is left
over.  The compositional inverse is unique, so the two must agree.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower.diffeo import FdBElement, t_series
from hopftower.linear import LinearElement
from hopftower.series import TruncatedSeries
from hopftower.topology import BElement

PARTITIONS = [(), (1,), (2,), (1, 1)]

scalars = st.one_of(st.integers(-3, 3).filter(bool),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))


def reference_revert(f):
    g = TruncatedSeries(f.algebra, {1: 1}, f.cap)
    for n in range(2, f.cap + 1):
        left = f.truncate(n).compose(g.truncate(n)).coefficient(n)
        g = g - TruncatedSeries(f.algebra, {n: left}, f.cap)
    return g


@st.composite
def coefficients(draw, algebra):
    if algebra is Fraction:
        return draw(scalars)
    keys = draw(st.lists(st.sampled_from(PARTITIONS), min_size=1, max_size=2, unique=True))
    return algebra({k: draw(scalars) for k in keys})


@st.composite
def invertible_series(draw):
    """T + higher order terms over the rationals, BElement or FdBElement."""
    algebra = draw(st.sampled_from((Fraction, BElement, FdBElement)))
    cap = draw(st.integers(1, 10))
    powers = draw(st.lists(st.integers(2, max(cap, 2)), max_size=3, unique=True))
    coeffs = {k: draw(coefficients(algebra)) for k in powers if k <= cap}
    coeffs[1] = 1
    return TruncatedSeries(algebra, coeffs, cap)


@settings(max_examples=60, deadline=None)
@given(invertible_series())
def test_revert_matches_one_composition_per_degree(f):
    g = f.revert()
    assert g == reference_revert(f)
    assert f.compose(g) == TruncatedSeries(f.algebra, {1: 1}, f.cap)


def test_the_generic_diffeomorphism_reverts_to_its_inverse():
    for cap in range(1, 11):
        f = t_series(cap)
        assert f.revert() == reference_revert(f)
        assert f.compose(f.revert()) == TruncatedSeries(FdBElement, {1: 1}, cap)


def test_reversion_makes_no_series_product_and_few_element_products(monkeypatch):
    """t_series(10).revert() took 83 series products through 9 compositions
    (750 element products); one pass takes 210."""
    calls = {"series *": 0, "compose": 0, "element products": 0}

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    f = t_series(10)
    monkeypatch.setattr(TruncatedSeries, "__mul__",
                        counting("series *", TruncatedSeries.__mul__))
    monkeypatch.setattr(TruncatedSeries, "compose",
                        counting("compose", TruncatedSeries.compose))
    # every element product, series coefficients included, runs this hook
    monkeypatch.setattr(LinearElement, "_mul_into",
                        counting("element products", LinearElement._mul_into))
    got = f.revert()
    assert calls["series *"] == calls["compose"] == 0
    assert 0 < calls["element products"] <= 210
    monkeypatch.undo()
    assert got == reference_revert(f)

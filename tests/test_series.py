"""Truncated series arithmetic, composition and calculus."""

import re
from fractions import Fraction

import pytest

from hopftower.errors import DomainError
from hopftower.jsonio import from_document
from hopftower.nsym import z, z_series
from hopftower.scalars import Q
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement, e
from hopftower.topology import b


def S(coeffs, cap=6):
    return TruncatedSeries(Fraction, coeffs, cap)


def test_scalar_series_arithmetic():
    f = S({1: Fraction(1)})
    assert (1 + f).coefficient(0) == 1
    assert (f + 1) == (1 + f)
    assert (1 - f).coefficient(1) == -1
    g = S({0: Fraction(2), 2: Fraction(3)})
    assert (f * g).coeffs == {1: 2, 3: 3}
    assert (f ** 3).coeffs == {3: 1}


def test_truncation_drops_high_degrees():
    f = S({3: Fraction(1)}, cap=5)
    assert (f * f).coeffs == {}
    g = S({2: Fraction(1)}, cap=5)
    assert (f * g).coeffs == {5: 1}


def test_truncate_never_raises_the_cap():
    f = S({0: 1, 1: 1}, cap=2)
    assert f.truncate(5) == f
    assert f.truncate(5).invert() == S({0: 1, 1: -1, 2: 1}, cap=2)
    assert str(f.truncate(5).invert()) == "1 - T + T^2"
    assert f.truncate(1) == S({0: 1, 1: 1}, cap=1)
    assert f.truncate(0).coeffs == {0: 1}


def test_invert_is_multiplicative_inverse():
    f = S({0: Fraction(1), 1: Fraction(2), 3: Fraction(-1, 3)})
    assert (f * f.invert()).coeffs == {0: 1}
    geom = S({0: Fraction(1), 1: Fraction(-1)}).invert()
    assert all(geom.coefficient(k) == 1 for k in range(7))


def test_invert_needs_invertible_constant_term():
    with pytest.raises(DomainError):
        S({1: Fraction(1)}).invert()


def test_compose_linear_substitution():
    f = S({1: Fraction(1), 2: Fraction(1)}, cap=4)
    assert f.compose(f).coeffs == {1: 1, 2: 2, 3: 2, 4: 1}


def test_compose_puts_outer_coefficients_on_the_left():
    # order matters over a noncommutative coefficient algebra: the outer
    # coefficient multiplies the inner powers from the left
    outer = TruncatedSeries(type(z(1)), {2: z(1)}, 4)
    inner = TruncatedSeries(type(z(1)), {1: z(2)}, 4)
    assert outer.compose(inner).coeffs == {2: z(1, 2, 2)}


def test_revert_round_trips():
    f = S({1: Fraction(1), 2: Fraction(-3), 4: Fraction(5)})
    g = f.revert()
    ident = S({1: Fraction(1)})
    assert f.compose(g) == ident
    assert g.compose(f) == ident


def test_revert_needs_unit_linear_term():
    with pytest.raises(DomainError):
        S({1: Fraction(2)}).revert()
    with pytest.raises(DomainError):
        S({0: Fraction(1), 1: Fraction(1)}).revert()


def test_exp_log_inverse_pair():
    f = S({1: Fraction(1), 2: Fraction(1, 2)})
    assert f.exp().log() == f
    g = S({0: Fraction(1), 1: Fraction(-2), 3: Fraction(1, 5)})
    assert g.log().exp() == g


def test_log_of_one_plus_t():
    got = S({0: Fraction(1), 1: Fraction(1)}, cap=4).log()
    assert got.coeffs == {1: Fraction(1), 2: Fraction(-1, 2),
                          3: Fraction(1, 3), 4: Fraction(-1, 4)}


def test_shift_and_residue():
    zs = z_series(4)
    assert zs.shift(-3).residue() == z(1)
    assert zs.shift(2).coefficient(3) == type(z(1)).one()
    # T^5 of zs is unknown, so a shift by -6 cannot know its residue
    assert zs.shift(-3).cap == 1 and z_series(5).shift(-6).residue() == z(4)
    with pytest.raises(DomainError):
        zs.shift(-6).residue()
    assert S({0: Fraction(1)}).residue() == 0


def test_a_coefficient_beyond_the_cap_is_refused():
    """Beyond the cap a coefficient is unknown, not zero."""
    s = TruncatedSeries(Fraction, {0: 1, 1: 1}, 2)
    for series, k, term, cap in ((s, 9, "T^9", 2), (s * s, 3, "T^3", 2),
                                 (s.shift(-1), 2, "T^2", 1),
                                 (s.embed_bivariate(0), (2, 1), "X^2*Y^1", 2)):
        with pytest.raises(DomainError, match=r"^the coefficient of %s is unknown: this "
                           r"series is known only to total degree %d$" % (re.escape(term), cap)):
            series.coefficient(k)
    assert (s * s).coefficient(2) == 1 and s.shift(-1).coefficient(1) == 0
    assert s.embed_bivariate(1).coefficient((0, 2)) == 0


def test_negative_exponents_are_refused():
    for coeffs, nvars in (({-1: 1, 1: 1}, 1), ({(-1, 2): 1}, 2), ({(2, -1): 1}, 2)):
        with pytest.raises(DomainError):
            TruncatedSeries(Fraction, coeffs, 3, nvars)
    with pytest.raises(DomainError):
        from_document({"algebra": "scalar", "cap": 3, "vars": 1,
                       "series": [{"power": -1, "coeff": "1"}]})
    with pytest.raises(DomainError):
        from_document({"algebra": "scalar", "cap": 3, "vars": 2,
                       "series": [{"powers": [2, -1], "coeff": "1"}]})


def test_laurent_views_only_feed_residue():
    """A shifted series keeps its negative powers for ``residue``; nothing
    that would drop or mistreat them accepts it."""
    laurent = z_series(4).shift(-3)
    assert laurent.residue() == z(1)
    for call in (lambda: laurent.compose(z_series(4)),
                 lambda: S({1: 1, 2: 1}).compose(S({1: 1}).shift(-2)),
                 lambda: S({1: 1, 2: 1}).shift(-2).exp(),
                 lambda: (1 + S({1: 1}).shift(-2)).log(),
                 lambda: (1 + S({1: 1}).shift(-2)).invert(),
                 lambda: (S({1: 1}) + S({1: 1}).shift(-2)).revert()):
        with pytest.raises(DomainError):
            call()
    # refused up front, by a message that names what was asked for
    with pytest.raises(DomainError, match="^inversion needs a power series"):
        (1 + S({1: 1}).shift(-2)).invert()


def test_products_of_shift_views_know_fewer_powers():
    # T^1 of z_series(3).shift(-3) is the unknown T^4 of z_series(3)
    x = z_series(3).shift(-3)
    assert x.cap == 0 and (x * x).cap == -2
    with pytest.raises(DomainError):
        (x * x).residue()
    y = z_series(4).shift(-3)
    assert (y * y).residue() == z(1, 2) + z(2, 1) + z(3).scale(2)
    assert (y * y).residue() == (z_series(6).shift(-3) ** 2).residue()


def test_alternate_flips_odd_degrees():
    f = S({0: Fraction(1), 1: Fraction(1), 2: Fraction(1), 3: Fraction(1)})
    assert f.alternate().coeffs == {0: 1, 1: -1, 2: 1, 3: -1}


def test_bivariate_embedding_and_swap():
    f = TruncatedSeries(Fraction, {1: Fraction(1), 2: Fraction(3)}, 4)
    x = f.embed_bivariate(0)
    y = f.embed_bivariate(1)
    assert x.coeffs == {(1, 0): 1, (2, 0): 3}
    assert x.swap_variables() == y
    prod = x * y
    assert prod.coefficient((1, 1)) == 1
    assert prod.coefficient((2, 1)) == 3
    assert prod.set_variable_zero(1).coeffs == {}


def test_bivariate_slots_outside_0_and_1_are_refused():
    f = TruncatedSeries(Fraction, {1: 1, 2: 3}, 4)
    xy = f.embed_bivariate(0) * f.embed_bivariate(1)
    for slot in (2, -1, 7):
        with pytest.raises(DomainError):
            f.embed_bivariate(slot)
        with pytest.raises(DomainError):
            xy.set_variable_zero(slot)
    assert xy.set_variable_zero(0) == xy.set_variable_zero(1) == f.scale(0)


def test_a_series_has_one_or_two_variables():
    for nvars in (0, 3, -1):
        with pytest.raises(DomainError):
            TruncatedSeries(Fraction, {}, 3, nvars)
    # the printer names only X and Y, so a third variable printed as "X + 3"
    with pytest.raises(DomainError):
        TruncatedSeries(Fraction, {(1, 0, 1): 1, (0, 0, 2): 3}, 3, 3)
    with pytest.raises(DomainError):
        from_document({"algebra": "scalar", "cap": 3, "vars": 3, "series": []})
    assert str(TruncatedSeries(Fraction, {(1, 1): 2}, 3, 2)) == "2*X*Y"


def test_series_str_pins():
    assert str(S({1: Fraction(1), 2: Fraction(-1, 2)})) == "T - 1/2*T^2"
    assert str(S({0: Fraction(1)})) == "1"
    assert str(TruncatedSeries(Fraction, {}, 3)) == "0"
    el = TruncatedSeries(SymElement, {1: e(1), 2: e(1, 1) - e(2)}, 3)
    assert str(el) == "e[1]*T + (e[1,1] - e[2])*T^2"
    biv = TruncatedSeries(type(b(1)), {(1, 0): b(1).one(), (0, 1): b(1).one(),
                                       (1, 1): b(1).scale(2)}, 3, 2)
    assert str(biv) == "X + Y + 2*b[1]*X*Y"


def test_map_coefficients_changes_algebra():
    f = TruncatedSeries(SymElement, {1: e(2)}, 3)
    g = f.map_coefficients(lambda c: c.counit(), algebra=Fraction)
    assert g.algebra is Q
    assert g.coeffs == {}


@pytest.mark.parametrize("coeffs, cap, nvars", [
    # a bivariate exponent of the wrong length, or one variable's key
    ({(1, 0, 1): 1, (0, 0, 2): 3}, 3, 2),
    ({(1,): 1}, 3, 2),
    ({1: 1}, 3, 2),
    ({(1, 0): 1}, 3, 1),
    # exponents, caps and variable counts that int() would truncate
    ({1.5: 1}, 3, 1),
    ({True: 1}, 3, 1),
    ({(1, 0.5): 1}, 3, 2),
    ({1: 1}, 2.7, 1),
    ({1: 1}, True, 1),
    ({1: 1}, 3, 1.0),
    ({1: 1}, 3, True),
])
def test_series_exponents_caps_and_variable_counts_must_be_ints(coeffs, cap, nvars):
    with pytest.raises(DomainError):
        TruncatedSeries(Fraction, coeffs, cap, nvars)


@pytest.mark.parametrize("fields, entry", [
    ({}, {"power": 1.5}),
    ({"vars": 2}, {"powers": [1.5, 0]}),
    ({}, {"power": "2"}),
    ({}, {"power": True}),
    ({"cap": 2.7}, {"power": 1}),
    ({"vars": 1.9}, {"power": 1}),
])
def test_series_documents_are_refused_not_truncated(fields, entry):
    doc = dict({"algebra": "scalar", "cap": 3}, **fields)
    doc["series"] = [dict(entry, coeff="1")]
    with pytest.raises(DomainError):
        from_document(doc)


def test_list_powers_are_kept():
    doc = {"algebra": "scalar", "cap": 3, "vars": 2,
           "series": [{"powers": [0, 1], "coeff": "2"}]}
    assert from_document(doc) == TruncatedSeries(Fraction, {(0, 1): 2}, 3, 2)

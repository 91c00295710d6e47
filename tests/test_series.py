"""Truncated series arithmetic, composition and calculus."""

from fractions import Fraction

import pytest

from hopftower.errors import DomainError
from hopftower.nsym import z, z_series
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
    assert S({0: Fraction(1)}).residue() == 0


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
    assert g.algebra is Fraction
    assert g.coeffs == {}

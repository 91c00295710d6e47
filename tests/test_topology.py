"""Bordism-flavored applications: logarithm, characteristic numbers,
group law, deformations, quasitoric spaces.

Degree pins come from Lagrange inversion by hand; the projective-space
numbers are double-checked through the independent normal-bundle route.
"""

import io
from fractions import Fraction

import pytest

from hopftower import topology
from hopftower.cli import run_command
from hopftower.diffeo import FdBElement, fdb_antipode
from hopftower.errors import AlgebraMismatchError, CapabilityError, DomainError
from hopftower.nsym import z
from hopftower.series import TruncatedSeries
from hopftower.topology import (BElement, BetaPolynomial,
                                ProjectiveProductSpace, abelianize_series_to_b,
                                b, b_series, beta_series, chi_b,
                                cp_char_number, cp_char_number_oracle,
                                cp_hurewicz, cp_infinity_coproduct,
                                crn_invariant, cumulant_series,
                                evaluate_bivariate, fgl, miscenko_log,
                                quasitoric_char_number)


def test_log_is_the_reversion_of_the_generator_series():
    cap = 5
    log = miscenko_log(cap)
    ident = TruncatedSeries(BElement, {1: BElement.one()}, cap)
    assert b_series(cap).compose(log) == ident
    assert log.compose(b_series(cap)) == ident


def test_log_coefficient_pins():
    log = miscenko_log(4)
    assert log.coefficient(1) == BElement.one()
    assert log.coefficient(2) == -b(1)
    assert log.coefficient(3) == b(1, 1).scale(2) - b(2)
    assert log.coefficient(4) == (-b(1, 1, 1).scale(5) + b(2, 1).scale(5)
                                  - b(3))


def test_log_coefficients_transport_the_structural_antipode():
    for n in range(1, 6):
        transported = BElement(dict(fdb_antipode(FdBElement({(n,): 1})).terms))
        assert chi_b(n) == transported


def test_hurewicz_pins():
    assert cp_hurewicz(0) == BElement.one()
    assert cp_hurewicz(1) == -b(1).scale(2)
    assert cp_hurewicz(2) == b(1, 1).scale(6) - b(2).scale(3)


def test_a_dimension_that_is_not_an_int_is_a_domain_error():
    """A float used to reach ``range`` and raise a raw TypeError."""
    for call in (lambda: cp_hurewicz(2.0), lambda: cp_char_number(2.0, (1, 1)),
                 lambda: cp_hurewicz(Fraction(2))):
        with pytest.raises(DomainError, match="dimension must be an int"):
            call()


def test_projective_numbers_match_oracle():
    cases = [(0, ()), (1, (1,)), (2, (2,)), (2, (1, 1)), (3, (3,)),
             (3, (2, 1)), (3, (1, 1, 1)), (4, (2, 2)), (4, (4,))]
    for n, lam in cases:
        assert cp_char_number(n, lam) == cp_char_number_oracle(n, lam)
    assert cp_char_number(1, (1,)) == -2
    assert cp_char_number(2, (1, 1)) == 6
    assert cp_char_number(2, (2,)) == -3
    with pytest.raises(DomainError):
        cp_char_number(2, (1,))


def test_group_law_pins_and_axioms():
    cap = 4
    F = fgl(cap)
    assert F.coefficient((1, 0)) == BElement.one()
    assert F.coefficient((0, 1)) == BElement.one()
    assert F.coefficient((1, 1)) == b(1).scale(2)
    ident = TruncatedSeries(BElement, {1: 1}, cap)
    assert F.set_variable_zero(0) == ident
    assert F.set_variable_zero(1) == ident
    assert F.swap_variables() == F


def test_group_law_in_closed_form_equals_the_composition():
    """The binomial count of ``fgl`` against ``compose_sum`` of the
    logarithm, keys and ``int`` coefficients included, for caps 1-14; it
    composes nothing and reads no logarithm."""
    for cap in range(1, 15):
        F = fgl(cap)
        G = b_series(cap).compose_sum(miscenko_log(cap))
        assert (F.cap, F.nvars, F.algebra) == (G.cap, G.nvars, G.algebra), cap
        assert F.terms.keys() == G.terms.keys(), cap
        for key, v in F.terms.items():
            assert type(v) is BElement and v.terms == G.terms[key].terms, (cap, key)
            assert all(type(c) is int for c in v.terms.values()), (cap, key)


def test_group_law_composes_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("composition")

    for name in ("compose", "compose_sum", "revert"):
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    monkeypatch.setattr(topology, "miscenko_log", refuse)
    assert fgl(6).coefficient((1, 1)) == b(1).scale(2)


def test_one_memoised_row_of_log_powers_serves_fgl_and_beta():
    """``fgl`` and ``beta_series`` read each row [T^n] L^k of
    ``_log_powers`` once between them, and neither hands out an element or a
    dict of the memo."""
    topology._log_powers.cache_clear()
    F, B = fgl(8), beta_series(8)
    info = topology._log_powers.cache_info()
    assert info.currsize == 8 and info.misses == 8 and info.hits > 0
    cached = {id(x) for n in range(1, 9) for _, power in topology._log_powers(n)
              for x in (power, power.terms)}
    handed = {id(x) for v in F.terms.values() for x in (v, v.terms)}
    handed |= {id(x) for v in B.terms.values() for c in v.terms.values()
               for x in (c, c.terms)}
    assert not cached & handed
    for n in range(1, 9):
        assert [k for k, _ in topology._log_powers(n)] == list(range(1, n + 1))


def test_group_law_associativity_low_degree():
    cap = 4
    F = fgl(cap)
    f3 = {(i, j, 0): c for (i, j), c in F.coeffs.items()}
    g3 = {(0, i, j): c for (i, j), c in F.coeffs.items()}
    xvar = {(1, 0, 0): BElement.one()}
    zvar = {(0, 0, 1): BElement.one()}
    assert evaluate_bivariate(F, f3, zvar, cap) \
        == evaluate_bivariate(F, xvar, g3, cap)


def test_beta_series_pins():
    B = beta_series(3)
    beta = BetaPolynomial({1: BElement.one()})
    assert B.coefficient(0) == BetaPolynomial.one()
    assert B.coefficient(1) == beta
    assert B.coefficient(2) == BetaPolynomial(
        {1: -b(1), 2: BElement({(): Fraction(1, 2)})})


def test_beta_series_multiplies_over_the_group_law():
    cap = 4
    B = beta_series(cap)
    lift = fgl(cap).map_coefficients(lambda el: BetaPolynomial({0: el}),
                                     algebra=BetaPolynomial)
    assert B.compose(lift) == B.embed_bivariate(0) * B.embed_bivariate(1)


def test_beta_polynomial_arithmetic_and_str():
    beta = BetaPolynomial({1: BElement.one()})
    sq = beta * beta
    assert sq == BetaPolynomial({2: BElement.one()})
    mixed = BetaPolynomial({1: -b(1), 2: BElement({(): Fraction(1, 2)})})
    assert str(mixed) == "-b[1]*beta + 1/2*beta^2"
    assert str(BetaPolynomial.zero()) == "0"
    assert beta * BetaPolynomial({0: b(1)}) == BetaPolynomial({1: b(1)})


def test_beta_polynomial_takes_scalars_on_beta0_and_refuses_foreign_values():
    one, beta = BetaPolynomial.one(), BetaPolynomial({1: BElement.one()})
    assert one + 1 == 1 + one == BetaPolynomial({0: 2})
    assert one - 1 == BetaPolynomial.zero()
    assert 1 - beta == BetaPolynomial({0: 1, 1: -1}) == -(beta - 1)
    assert beta + Fraction(1, 2) == BetaPolynomial({0: Fraction(1, 2), 1: 1})
    assert beta * 3 == 3 * beta == BetaPolynomial({1: 3})
    for foreign in (b(1), BElement.one(), z(1), 1.5, "1"):
        for op in (lambda x: one + x, lambda x: x + one, lambda x: one - x,
                   lambda x: one * x):
            with pytest.raises(AlgebraMismatchError):
                op(foreign)
    with pytest.raises(AlgebraMismatchError):
        b(1) * one


def test_noncommutative_addition_series():
    cap = 4
    CP = cp_infinity_coproduct(cap)
    # degenerates to the identity when either variable vanishes
    ident = TruncatedSeries(type(z(1)), {1: 1}, cap)
    assert CP.set_variable_zero(0) == ident
    assert CP.set_variable_zero(1) == ident
    # pinned lowest cross term, and the commutative image is the group law
    assert CP.coefficient((1, 1)) == z(1).scale(2)
    assert abelianize_series_to_b(CP) == fgl(cap)
    # the series itself is symmetric; the noncommutativity sits in the
    # coefficient words, which favor one letter order over the other
    assert CP.swap_variables() == CP
    deg22 = CP.coefficient((2, 2))
    assert deg22.terms.get((2, 1)) == -6
    assert (1, 2) not in deg22.terms


def test_cumulant_series_pins():
    C = cumulant_series(3)
    assert C.coefficient(1) == -type(z(1)).one()
    assert C.coefficient(2) == -z(1)
    assert C.coefficient(3) == z(2) - z(1, 1).scale(2)


def test_composition_sum_invariant():
    assert crn_invariant(1) == z(1)
    assert crn_invariant(2) == z(1, 1) + z(2)
    assert crn_invariant(3) == z(1, 1, 1) + z(1, 2) + z(2, 1) + z(3)
    inv = crn_invariant(6)
    assert len(inv.terms) == 32
    assert set(inv.terms.values()) == {Fraction(1)}


def test_composition_sum_invariant_is_budgeted():
    """Past weight 18 the 2^(k-1) compositions are refused before any is
    built; the message names the estimate and the bound."""
    for k in (19, 30):
        with pytest.raises(CapabilityError) as caught:
            crn_invariant(k)
        assert "2^%d compositions" % (k - 1) in str(caught.value)
        assert "2^17 = 131072" in str(caught.value)


QT_CP1 = {"factors": [1], "roots": [[1], [1]]}
QT_CP1_SQ = {"factors": [1, 1], "roots": [[1, 0], [1, 0], [0, 1], [0, 1]]}


def test_quasitoric_tangent_numbers():
    cp1 = ProjectiveProductSpace.from_document(QT_CP1)
    sq = ProjectiveProductSpace.from_document(QT_CP1_SQ)
    assert quasitoric_char_number(cp1, (1,)) == 2
    assert quasitoric_char_number(sq, (1, 1)) == 4
    assert quasitoric_char_number(sq, (2,)) == 0


def test_quasitoric_normal_numbers():
    # normal convention pairs against the antipode image: S(M_1) = -M_1
    # gives -2 on the projective line, S(M_11) = M_11 + M_2 gives 4 + 0 on
    # its square, S(M_2) = -M_2 gives 0 there
    cp1 = ProjectiveProductSpace.from_document(QT_CP1)
    sq = ProjectiveProductSpace.from_document(QT_CP1_SQ)
    assert quasitoric_char_number(cp1, (1,), convention="normal") == -2
    assert quasitoric_char_number(sq, (1, 1), convention="normal") == 4
    assert quasitoric_char_number(sq, (2,), convention="normal") == 0


def test_quasitoric_parts_must_be_ints_not_bools():
    cp1 = ProjectiveProductSpace.from_document(QT_CP1)
    for I in ((True,), (1, False), (1.0,)):
        with pytest.raises(DomainError):
            quasitoric_char_number(cp1, I)


def test_quasitoric_number_of_a_space_with_no_roots():
    # nothing to substitute: M_() is the unit, whose top coefficient is 0
    out, err = io.StringIO(), io.StringIO()
    code = run_command(["charnum", "quasitoric", "--space", '{"factors":[1],"roots":[]}',
                        "--composition", ""], out, err)
    assert (code, out.getvalue(), err.getvalue()) == (0, "0\n", "")
    space = ProjectiveProductSpace([2], [])
    assert quasitoric_char_number(space, ()) == 0
    assert quasitoric_char_number(space, (2,), convention="normal") == 0


def test_space_documents_round_trip():
    sq = ProjectiveProductSpace.from_document(QT_CP1_SQ)
    assert sq.factors == (1, 1)
    assert sq.roots == ((1, 0), (1, 0), (0, 1), (0, 1))

"""Symmetric functions: conversions, products, structure maps, pairing.

The conversion tables in weight <= 4 are frozen from the classical
identities (Newton relations and their inverses), worked out by hand, so
they check the transition-matrix machinery against an independent source.
The counted transition matrices and m-products are also compared with the
literal polynomial expansion up to weight 6; ``verify`` goes on to weight 7.
"""

import sys
from fractions import Fraction

import pytest

from hopftower import exactlinalg, linear, sym
from hopftower.errors import DomainError
from hopftower.indices import partitions_of
from hopftower.linear import Tensor
from hopftower.sym import (SymElement, antipode, convert, coproduct, e,
                           e_series, h, h_series, hall_pair, involution, m, p)
from hopftower.suites import _expanded_m_product, _expanded_transition, _gauss_jordan_inverse

# hand-frozen expansions in the e basis
H_IN_E = {
    1: e(1),
    2: e(1, 1) - e(2),
    3: e(1, 1, 1) - e(2, 1).scale(2) + e(3),
    4: (e(1, 1, 1, 1) - e(2, 1, 1).scale(3) + e(2, 2)
        + e(3, 1).scale(2) - e(4)),
}
P_IN_E = {
    1: e(1),
    2: e(1, 1) - e(2).scale(2),
    3: e(1, 1, 1) - e(2, 1).scale(3) + e(3).scale(3),
    4: (e(1, 1, 1, 1) - e(2, 1, 1).scale(4) + e(2, 2).scale(2)
        + e(3, 1).scale(4) - e(4).scale(4)),
}


def test_h_to_e_matches_hand_table():
    for n, want in H_IN_E.items():
        assert convert(h(n), "e") == want


def test_p_to_e_matches_hand_table():
    for n, want in P_IN_E.items():
        assert convert(p(n), "e") == want


def test_m_to_e_pins():
    # m_(1,1) = e_2 and m_(2) = p_2; m_(2,1) = p_1 p_2 - p_3
    assert convert(m(1), "e") == e(1)
    assert convert(m(1, 1), "e") == e(2)
    assert convert(m(2), "e") == P_IN_E[2]
    assert convert(m(2, 1), "e") == e(2, 1) - e(3).scale(3)


def test_conversion_round_trips():
    bases = ("e", "h", "p", "m")
    probes = [e(3), h(2, 1), p(4), m(2, 2), e(1) + m(3), h(2) - p(1, 1)]
    for x in probes:
        for via in bases:
            back = convert(convert(x, via), x.basis)
            assert back == x


def test_integral_flag_rejects_denominators():
    # e_2 = (p_1^2 - p_2)/2 needs a denominator
    with pytest.raises(DomainError):
        convert(e(2), "p", integral=True)
    assert convert(e(2), "h", integral=True) == h(1, 1) - h(2)
    # a denominator the input already has is kept, not refused
    half = Fraction(1, 2)
    assert convert(e(1).scale(half), "e", integral=True) == e(1).scale(half)
    assert convert(e(2).scale(half), "h", integral=True) == (h(1, 1) - h(2)).scale(half)
    # e_2/2 = (p_1^2 - p_2)/4: the conversion doubles the denominator
    with pytest.raises(DomainError, match="not integral"):
        convert(e(2).scale(half), "p", integral=True)


def test_monomial_products_are_orbit_sums():
    assert m(1) * m(1) == m(1, 1).scale(2) + m(2)
    assert m(2, 1) * m(1) == m(2, 1, 1).scale(2) + m(2, 2).scale(2) + m(3, 1)
    assert m(2) * m(1, 1) == m(2, 1, 1) + m(3, 1)


def test_monomial_product_cross_check_through_e():
    # multiply in the m basis, then compare against multiplying the images
    pairs = [(m(1), m(1)), (m(2), m(1)), (m(1, 1), m(1)), (m(2), m(2)),
             (m(2, 1), m(1, 1))]
    for a, b in pairs:
        lhs = convert(a * b, "e")
        rhs = convert(a, "e") * convert(b, "e")
        assert lhs == rhs


def test_counted_transition_matrices_equal_the_expansion():
    for basis in ("e", "h", "p", "m"):
        for w in range(7):
            parts, rows = sym._transition(basis, w)
            assert parts == partitions_of(w)
            assert rows == _expanded_transition(basis, w), (basis, w)


def test_counted_m_products_equal_the_expansion():
    for w1 in range(7):
        for w2 in range(7 - w1):
            for lam in partitions_of(w1):
                for mu in partitions_of(w2):
                    assert m(*lam) * m(*mu) == _expanded_m_product(lam, mu), (lam, mu)
    assert m(4, 3) * m(3, 2) == _expanded_m_product((4, 3), (3, 2))


def _clear_sym_caches():
    for value in vars(sym).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    linear.word_image.cache_clear()


def test_cold_round_trip_at_weight_ten():
    _clear_sym_caches()
    assert convert(convert(h(10), "e"), "h") == h(10)


def test_triangular_transition_inverses_equal_gauss_jordan():
    for basis in ("e", "h", "p"):
        for w in range(10):
            assert sym._transition_inverse(basis, w) == _gauss_jordan_inverse(basis, w), \
                (basis, w)


def test_cold_conversions_never_call_gauss_jordan():
    """Watched by code object, so no alias of ``invert_matrix`` escapes."""
    _clear_sym_caches()
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is exactlinalg.invert_matrix.__code__:
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        for w in range(8):
            for src in sym.BASES:
                for to in sym.BASES:
                    if src != to:
                        f = SymElement({lam: 1 for lam in partitions_of(w)}, src)
                        assert convert(convert(f, to), src) == f, (src, to, w)
    finally:
        sys.setprofile(None)
    assert calls == []


def test_conversions_are_canonical_and_share_no_dict_with_a_cache():
    cached = [id(x) for w in range(8) for basis in sym.BASES
              for table in (sym._transition, sym._sparse_transition) for x in table(basis, w)]
    cached += [id(x) for w in range(8) for basis in ("e", "h", "p")
               for x in sym._transition_inverse(basis, w)]
    cached += [id(linear.word_image(sym._antipode_e_gen, lam).terms)
               for w in range(8) for lam in partitions_of(w)]
    for w in range(8):
        for src in sym.BASES:
            f = SymElement({lam: Fraction(k + 1, 2) for k, lam in enumerate(partitions_of(w))},
                           src)
            for to in sym.BASES:
                got = convert(f, to)
                assert got.basis == to and id(got.terms) not in cached
                for lam, c in got.terms.items():
                    assert lam in partitions_of(w)
                    assert type(c) is int and c or type(c) is Fraction and c.denominator > 1
                assert got == SymElement(got.terms, to)


def test_multiplicative_bases_concatenate():
    assert e(2) * e(1) == e(2, 1)
    assert e(1) * e(2) == e(2, 1)
    assert h(3, 1) * h(2) == h(3, 2, 1)
    assert p(1) * p(1) == p(1, 1)


def test_coproduct_of_elementary_generators():
    got = coproduct(e(2))
    want = Tensor((SymElement, SymElement),
                  {((), (2,)): 1, ((1,), (1,)): 1, ((2,), ()): 1})
    assert got == want
    # the coproduct is an algebra map
    lhs = coproduct(e(1) * e(2))
    rhs = coproduct(e(1)) * coproduct(e(2))
    assert lhs == rhs


def test_tensors_keep_m_basis_elements():
    # tensor slots are e-based, so a slot filled from another basis is converted
    assert Tensor.of(m(2)).slot_element() == e(1, 1) - e(2).scale(2)
    assert Tensor.of(m(2)).slot_element().terms == {(1, 1): 1, (2,): -2}
    t = Tensor.of(m(1), m(1))
    assert t * t == Tensor.of(m(1) * m(1), m(1) * m(1))
    assert str(t * t) == "e[1,1] (x) e[1,1]"


def test_counit_reads_the_constant_term():
    assert (e(2) + SymElement.one().scale(Fraction(5, 2))).counit() \
        == Fraction(5, 2)
    assert e(1).counit() == 0


def test_antipode_swaps_e_and_h_with_sign():
    for n in range(1, 7):
        assert antipode(e(n)) == convert(h(n), "e").scale((-1) ** n)


def test_antipode_pins():
    assert antipode(e(3)) == -e(1, 1, 1) + e(2, 1).scale(2) - e(3)


def test_generating_series_identity():
    # the alternating-inverse relation between the two generator series
    cap = 6
    assert e_series(cap).alternate().invert() == h_series(cap)


def test_involutions_are_involutive_algebra_maps():
    probes = [e(2), h(2, 1), m(2, 1), p(3)]
    for which in ("dual", "whitney", "omega"):
        for x in probes:
            twice = involution(involution(x, which), which)
            assert convert(twice, x.basis) == x
        a, b = e(2), e(1, 1)
        assert involution(a * b, which) == involution(a, which) * involution(b, which)


def test_involution_pins():
    assert involution(e(3), "dual") == -e(3)
    assert involution(e(2), "whitney") == h(2)
    assert involution(e(2), "omega") == h(2)


def test_hall_pairing_values():
    # h against m is the delta pairing
    assert hall_pair(h(2, 1), m(2, 1)) == 1
    assert hall_pair(h(2), m(1, 1)) == 0
    assert hall_pair(h(1, 1), m(2)) == 0
    # power sums are orthogonal with the classical normalization
    assert hall_pair(p(2), p(2)) == 2
    assert hall_pair(p(1, 1), p(1, 1)) == 2
    assert hall_pair(p(2, 1), p(2, 1)) == 2
    assert hall_pair(p(3), p(3)) == 3
    assert hall_pair(p(2), p(1, 1)) == 0
    assert hall_pair(e(2), m(1, 1)) == 1


def test_hall_pairing_is_multiplicative_against_coproduct():
    # coproduct tensors carry e-basis slots
    a, b, c = h(1), h(2), m(2, 1)
    lhs = hall_pair(a * b, c)
    rhs = sum(hall_pair(a, SymElement({i: 1}, "e"))
              * hall_pair(b, SymElement({j: 1}, "e")) * coeff
              for (i, j), coeff in coproduct(c).terms.items())
    assert lhs == rhs == 1


def test_indices_must_be_positive():
    with pytest.raises(DomainError):
        SymElement({(0, 1): 1}, "e")
    with pytest.raises(DomainError):
        e(-2)

"""Symmetric functions: conversions, products, structure maps, pairing.

The conversion tables in weight <= 4 are frozen from the classical
identities (Newton relations and their inverses), worked out by hand, so
they check the transition-matrix machinery against an independent source.
The e and p transition tables, built as m-products, are compared with the
same matrices counted directly (pinned to weight 5) and, with the counted
m-products, with the literal polynomial expansion up to weight 6; ``verify``
goes on to weight 7.  The h basis has no table: its conversions to and from
m are compared with the expansion and its Gauss-Jordan inverse instead.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import exactlinalg, linear, sym
from hopftower.exactlinalg import invert_matrix
from hopftower.errors import DomainError
from hopftower.indices import partitions_of
from hopftower.linear import Tensor
from hopftower.sym import (SymElement, antipode, convert, coproduct, e,
                           e_series, h, h_series, hall_pair, involution, m, p)
from hopftower.suites import (_converted_rows, _expanded_m_product, _expanded_transition,
                              _gauss_jordan_inverse, _nonzeros)

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
    # h_2 = (p_1^2 + p_2)/2, while m_(1,1) = e_2 = h_1^2 - h_2
    with pytest.raises(DomainError, match="not integral"):
        convert(h(2), "p", integral=True)
    assert convert(m(1, 1), "h", integral=True) == h(1, 1) - h(2)
    # a denominator the input already has is kept, not refused
    half = Fraction(1, 2)
    assert convert(e(1).scale(half), "e", integral=True) == e(1).scale(half)
    assert convert(e(2).scale(half), "h", integral=True) == (h(1, 1) - h(2)).scale(half)
    assert convert(h(2).scale(half), "e", integral=True) == (e(1, 1) - e(2)).scale(half)
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


# the e and p transition matrices to weight 5, counted as matrices with row
# sums lam and column sums mu (0-1 ones for e, one entry per row for p), with
# no m-product and no ``_M_FORMS``; row and column order is ``partitions_of``
COUNTED_TRANSITIONS = {
    "e": {
        0: ((1,),),
        1: ((1,),),
        2: ((0, 1), (1, 2)),
        3: ((0, 0, 1), (0, 1, 3), (1, 3, 6)),
        4: ((0, 0, 0, 0, 1), (0, 0, 0, 1, 4), (0, 0, 1, 2, 6), (0, 1, 2, 5, 12),
            (1, 4, 6, 12, 24)),
        5: ((0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1, 5), (0, 0, 0, 0, 1, 3, 10),
            (0, 0, 0, 1, 2, 7, 20), (0, 0, 1, 2, 5, 12, 30), (0, 1, 3, 7, 12, 27, 60),
            (1, 5, 10, 20, 30, 60, 120)),
    },
    "p": {
        0: ((1,),),
        1: ((1,),),
        2: ((1, 0), (1, 2)),
        3: ((1, 0, 0), (1, 1, 0), (1, 3, 6)),
        4: ((1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 2, 0, 0), (1, 2, 2, 2, 0),
            (1, 4, 6, 12, 24)),
        5: ((1, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0, 0),
            (1, 2, 1, 2, 0, 0, 0), (1, 1, 2, 0, 2, 0, 0), (1, 3, 4, 6, 6, 6, 0),
            (1, 5, 10, 20, 30, 60, 120)),
    },
}


def test_transition_tables_equal_the_counted_matrices():
    for basis, tables in COUNTED_TRANSITIONS.items():
        for w, matrix in tables.items():
            parts, pos, rows = sym._transition(basis, w)
            assert parts == partitions_of(w)
            assert pos == {lam: i for i, lam in enumerate(parts)}
            assert rows == _nonzeros(matrix), (basis, w)


def test_counted_transition_matrices_equal_the_expansion():
    for basis in ("e", "p"):
        for w in range(7):
            parts, _, rows = sym._transition(basis, w)
            assert parts == partitions_of(w)
            assert rows == _nonzeros(_expanded_transition(basis, w)), (basis, w)


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


def test_h_conversions_equal_the_expansion_and_its_inverse():
    for w in range(8):
        expanded = _expanded_transition("h", w)
        assert _converted_rows("h", "m", w) == expanded, w
        assert _converted_rows("m", "h", w) == tuple(map(tuple, invert_matrix(expanded))), w


def test_triangular_transition_inverses_equal_gauss_jordan():
    for basis in ("e", "p"):
        for w in range(10):
            parts, _, rows = sym._transition(basis, w)
            dense = [[dict(row).get(j, 0) for j in range(len(parts))] for row in rows]
            assert sym._transition_inverse(basis, w) == _gauss_jordan_inverse(dense), \
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


def test_no_conversion_builds_the_inverse_table():
    """A conversion solves x T = v once per weight; ``_transition_inverse``
    (watched by code object, under its cache) is built only for the
    Gauss-Jordan check."""
    _clear_sym_caches()
    inverse = sym._transition_inverse.__wrapped__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is inverse:
            calls.append(frame.f_locals["w"])

    sys.setprofile(profile)
    try:
        for w in range(9):
            for src in sym.BASES:
                f = SymElement({lam: k + 1 for k, lam in enumerate(partitions_of(w))}, src)
                for to in sym.BASES:
                    convert(f, to)
    finally:
        sys.setprofile(None)
    assert calls == []


def test_m_conversions_at_weights_ten_to_twelve_equal_gauss_jordan():
    """m -> e, h and p on seeded random elements, ``int`` and ``Fraction``
    coefficients, against v times the Gauss-Jordan inverse of the dense
    table of the target in m (read off ``convert`` into m)."""
    rng = random.Random(20261020)
    for w in (10, 11, 12):
        parts = partitions_of(w)
        elements = [SymElement({rng.choice(parts): coefficient() for _ in range(5)}, "m")
                    for coefficient in (lambda: rng.randint(-9, 9),
                                        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                    for _ in range(2)]
        for to in ("e", "h", "p"):
            inverse = invert_matrix(_converted_rows(to, "m", w))
            for f in elements:
                want = {}
                for j, mu in enumerate(parts):
                    x = sum(c * inverse[parts.index(lam)][j] for lam, c in f.terms.items())
                    if x:
                        want[mu] = x
                got = convert(f, to).terms
                assert got == want, (w, to, f)
                assert all(type(c) is (int if want[k].denominator == 1 else Fraction)
                           for k, c in got.items()), (w, to, f)


def test_no_table_is_ever_built_or_read_for_h():
    """h is traded with e through the antipode memo, so no table function
    (watched by code object, under its cache) sees the basis ``"h"``."""
    _clear_sym_caches()
    watched = {fn.__wrapped__.__code__ for fn in (sym._m_row, sym._transition,
                                                  sym._transition_inverse)}
    watched.add(sym._solve.__code__)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls.append((frame.f_code.co_name, frame.f_locals["basis"]))

    sys.setprofile(profile)
    try:
        for w in range(9):
            for src in sym.BASES:
                f = SymElement({lam: 1 for lam in partitions_of(w)}, src)
                for to in sym.BASES:
                    convert(f, to)
    finally:
        sys.setprofile(None)
    assert calls and all(basis != "h" for _, basis in calls), \
        sorted({call for call in calls if call[1] == "h"})


def test_h_and_p_trade_through_the_omega_sign_without_the_swap(monkeypatch):
    """omega is (-1)^(|lam| - l(lam)) on p_lam, so p -> h and h -> p twist the
    p side and read h as e; neither calls ``_h_swap``, and both agree with
    the route through e, which does."""
    swaps = []
    swap = sym._h_swap
    monkeypatch.setattr(sym, "_h_swap", lambda *args: swaps.append(args) or swap(*args))
    for w in range(7):
        for src, to in (("p", "h"), ("h", "p")):
            f = SymElement({lam: Fraction(k + 1, 3) for k, lam in enumerate(partitions_of(w))},
                           src)
            direct = convert(f, to)
            assert not swaps
            assert direct.basis == to and direct == convert(convert(f, "e"), to)
            assert swaps or w == 0
            swaps.clear()


def test_no_table_is_ever_built_or_read_for_m():
    """m is the coordinates the tables land in, so no table function (watched
    by code object, under its cache) sees the basis ``"m"``, and m -> p
    builds no e row."""
    watched = {fn.__wrapped__.__code__ for fn in (sym._m_row, sym._transition,
                                                  sym._transition_inverse)}
    watched.add(sym._solve.__code__)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls.append((frame.f_code.co_name, frame.f_locals["basis"]))

    def watch(conversions):
        _clear_sym_caches()
        calls.clear()
        sys.setprofile(profile)
        try:
            for w in range(9):
                for src, to in conversions:
                    convert(SymElement({lam: 1 for lam in partitions_of(w)}, src), to)
        finally:
            sys.setprofile(None)
        return {basis for _, basis in calls}

    assert watch([(basis, "m") for basis in sym.BASES]
                 + [("m", basis) for basis in sym.BASES]) == {"e", "p"}
    assert watch([("m", "p")]) == {"p"}


def test_conversions_are_canonical_and_share_no_dict_with_a_cache():
    cached = [id(x) for w in range(8) for basis in ("e", "p") for x in sym._transition(basis, w)]
    cached += [id(sym._m_row(basis, lam)) for w in range(8) for basis in ("e", "p")
               for lam in partitions_of(w)]
    cached += [id(x) for w in range(8) for basis in ("e", "p")
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
    assert Tensor.of(m(2)) == Tensor.of(e(1, 1) - e(2).scale(2))
    assert Tensor.of(m(2)).terms == {((1, 1),): 1, ((2,),): -2}
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
    assert antipode(p(3, 2, 1)).terms == {(3, 2, 1): -1}
    assert antipode(p(2, 2)).terms == {(2, 2): 1}
    assert antipode(h(2)).terms == {(1, 1): 1, (2,): -1}
    assert antipode(h(2)).basis == "h"


def _e_route(x):
    """The antipode through the e basis: one letter map there."""
    return convert(linear.on_words(convert(x, "e"), sym._antipode_e_gen), x.basis)


@st.composite
def sym_elements(draw):
    basis = draw(st.sampled_from(sym.BASES))
    partitions = [lam for w in range(9) for lam in partitions_of(w)]
    coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return SymElement(draw(st.dictionaries(st.sampled_from(partitions), coefficient,
                                           max_size=4)), basis)


@settings(max_examples=80, deadline=None)
@given(sym_elements())
def test_antipode_equals_the_e_route_in_every_basis(x):
    got = antipode(x)
    assert got.basis == x.basis
    assert got.terms == _e_route(x).terms
    assert antipode(got).terms == x.terms


def test_antipode_of_p_converts_nothing_and_of_h_reads_no_table():
    """Watched by code object, under the caches: p takes a sign, h one letter map."""
    _clear_sym_caches()
    tables = {fn.__wrapped__.__code__ for fn in (sym._m_row, sym._transition,
                                                 sym._transition_inverse)}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and (frame.f_code is convert.__code__ or frame.f_code in tables):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for w in range(9):
            for basis in ("p", "h"):
                antipode(SymElement({lam: 1 for lam in partitions_of(w)}, basis))
    finally:
        sys.setprofile(None)
    assert calls == []
    # the watch sees the m route, which converts through p
    sys.setprofile(profile)
    try:
        antipode(m(2, 1))
    finally:
        sys.setprofile(None)
    assert "convert" in calls and "_transition" in calls


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

"""Formal diffeomorphisms: both coproducts, both antipodes, the coaction.

The degree 3 coproduct and antipode values are frozen from a hand
computation of series composition and Lagrange inversion.
"""

from fractions import Fraction
from itertools import product

from hopftower import diffeo
from hopftower.diffeo import (FdBElement, bfk_abelianize, bfk_antipode,
                              bfk_coproduct, coaction_sym, fdb_antipode,
                              fdb_coproduct, t, t_series)
from hopftower.linear import Tensor, TensorSpace, add_term
from hopftower.nsym import NSymElement, z, z_series
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement, e

FF = (FdBElement, FdBElement)
NN = (NSymElement, NSymElement)


def test_composition_coproduct_pins():
    assert fdb_coproduct(t(1)) == Tensor(FF, {((1,), ()): 1, ((), (1,)): 1})
    assert fdb_coproduct(t(2)) == Tensor(
        FF, {((2,), ()): 1, ((1,), (1,)): 2, ((), (2,)): 1})
    # degree 3 by hand: the T^4 coefficient of f(g(T)) for two generic
    # cubic jets is g3 + f1 g1^2 + 2 f1 g2 + 3 f2 g1 + f3, outer jet on
    # the left slot
    assert fdb_coproduct(t(3)) == Tensor(
        FF, {((3,), ()): 1, ((1,), (1, 1)): 1, ((1,), (2,)): 2,
             ((2,), (1,)): 3, ((), (3,)): 1})


def test_composition_coproduct_is_an_algebra_map():
    assert fdb_coproduct(t(1) * t(2)) == fdb_coproduct(t(1)) * fdb_coproduct(t(2))


def test_fdb_indices_are_unordered():
    assert t(1, 2) == t(2, 1)
    assert FdBElement({(1, 2): 1}) == FdBElement({(2, 1): 1})


def test_diffeo_antipode_lagrange_pins():
    assert fdb_antipode(t(1)) == -t(1)
    assert fdb_antipode(t(2)) == t(1, 1).scale(2) - t(2)
    assert fdb_antipode(t(3)) == -t(1, 1, 1).scale(5) + t(2, 1).scale(5) - t(3)


def test_diffeo_antipode_inverts_the_generic_series():
    cap = 6
    f = t_series(cap)
    g = f.map_coefficients(fdb_antipode)
    ident = TruncatedSeries(FdBElement, {1: FdBElement.one()}, cap)
    assert f.compose(g) == ident
    assert g.compose(f) == ident
    assert f.revert() == g


def test_coaction_pins():
    SF = (SymElement, FdBElement)
    assert coaction_sym(e(1)) == Tensor(SF, {((1,), ()): 1})
    assert coaction_sym(e(2)) == Tensor(SF, {((2,), ()): 1, ((1,), (1,)): 1})
    assert coaction_sym(e(3)) == Tensor(
        SF, {((3,), ()): 1, ((2,), (1,)): 2, ((1,), (2,)): 1})


def test_coaction_is_a_comodule_structure():
    for x in (e(2), e(3), e(2, 1), e(4)):
        psi = coaction_sym(x)
        left = psi.apply(0, lambda idx: coaction_sym(SymElement({idx: 1}, "e")),
                         (SymElement, FdBElement))
        right = psi.apply(1, lambda idx: fdb_coproduct(FdBElement({idx: 1})),
                          (FdBElement, FdBElement))
        assert left == right
        assert psi.project_counit(1) == Tensor.of(x)


def test_series_powers_coproduct_pins():
    assert bfk_coproduct(z(1)) == Tensor(NN, {((1,), ()): 1, ((), (1,)): 1})
    assert bfk_coproduct(z(2)) == Tensor(
        NN, {((2,), ()): 1, ((1,), (1,)): 2, ((), (2,)): 1})
    got3 = bfk_coproduct(z(3))
    assert got3 == Tensor(
        NN, {((3,), ()): 1, ((), (3,)): 1, ((1,), (1, 1)): 1,
             ((1,), (2,)): 2, ((2,), (1,)): 3})
    # genuinely noncocommutative: swapping the slots changes it
    assert got3.swap_slots(0, 1) != got3


def test_series_powers_antipode_pins():
    assert bfk_antipode(z(1)) == -z(1)
    assert bfk_antipode(z(2)) == z(1, 1).scale(2) - z(2)
    assert bfk_antipode(z(3)) == (-z(1, 1, 1).scale(5) + z(1, 2).scale(2)
                                  + z(2, 1).scale(3) - z(3))


def test_series_powers_antipode_convolution_identity():
    for word in ((3,), (1, 2), (2, 2), (1, 1, 1)):
        x = NSymElement({word: 1})
        acc = NSymElement.zero()
        for (i, j), c in bfk_coproduct(x).terms.items():
            acc = acc + (bfk_antipode(NSymElement({i: 1}))
                         * NSymElement({j: 1})).scale(c)
        assert acc == NSymElement.zero()


def test_abelianization_to_diffeo():
    assert bfk_abelianize(z(2, 1)) == t(2, 1)
    assert bfk_abelianize(z(1, 2)) == t(2, 1)
    for n in range(1, 5):
        assert bfk_abelianize(bfk_antipode(z(n))) == fdb_antipode(t(n))


def test_antipode_is_antimultiplicative():
    lhs = bfk_antipode(z(1) * z(2))
    rhs = bfk_antipode(z(2)) * bfk_antipode(z(1))
    assert lhs == rhs
    assert fdb_antipode(t(1) * t(2)) == fdb_antipode(t(2)) * fdb_antipode(t(1))


# -- the substitution formula against the constructions it replaced ---------

def _fdb_coproduct_by_composition(n):
    """The T^{n+1} coefficient of (t (x) 1)((1 (x) t)(T)), composing two
    tensor-coefficient series."""
    space = TensorSpace(FdBElement, FdBElement)
    if n == 0:
        return space.one()
    cap = n + 1
    outer = TruncatedSeries(space, {
        m + 1: Tensor.of(FdBElement({((m,) if m else ()): 1}), FdBElement.one())
        for m in range(n + 1)}, cap)
    inner = TruncatedSeries(space, {
        k + 1: Tensor.of(FdBElement.one(), FdBElement({((k,) if k else ()): 1}))
        for k in range(n + 1)}, cap)
    return outer.compose(inner).coefficient(cap)


def _bfk_coproduct_by_powers(n):
    """sum_{k>=1} Z_{k-1} (x) [T^{n+1}] Z(T)^k, one power of z_series at a time."""
    if n == 0:
        return Tensor(NN, {((), ()): 1})
    zs = z_series(n + 1)
    power = TruncatedSeries(NSymElement, {0: NSymElement.one()}, n + 1)
    total = Tensor(NN, {})
    for k in range(1, n + 2):
        power = power * zs
        right = power.coefficient(n + 1)
        if right:
            left = NSymElement({((k - 1,) if k > 1 else ()): 1})
            total = total + Tensor.of(left, right)
    return total


def _weak_compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]


def _coaction_by_weak_compositions(n):
    """sum_j e_j (x) t_lambda over the weak compositions of n - j into j
    parts, lambda their nonzero parts sorted."""
    SF = (SymElement, FdBElement)
    if n == 0:
        return Tensor(SF, {((), ()): 1})
    terms = {}
    for j in range(1, n + 1):
        for wc in _weak_compositions(n - j, j):
            lam = tuple(sorted((k for k in wc if k), reverse=True))
            add_term(terms, ((j,), lam), 1)
    return Tensor(SF, terms)


def test_generator_maps_equal_the_reference_constructions():
    for n in range(11):
        assert diffeo._fdb_coproduct_gen(n) == _fdb_coproduct_by_composition(n)
        assert diffeo._bfk_coproduct_gen(n) == _bfk_coproduct_by_powers(n)
        assert diffeo._coaction_gen(n) == _coaction_by_weak_compositions(n)

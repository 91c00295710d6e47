"""The dual pair: noncommutative and quasisymmetric functions.

Antipodes are checked against the closed combinatorial formulas (signed
sums over compositions and over coarsenings of the reversal), which were
frozen independently of the recursive implementations.
"""

import signal
from fractions import Fraction

import pytest

from hopftower.diffeo import bfk_abelianize
from hopftower.errors import AlgebraMismatchError
from hopftower.indices import compositions_of
from hopftower.linear import Tensor
from hopftower.nsym import NSymElement, abelianize, antipode, coproduct, z
from hopftower.qsym import (M, QSymElement, expand_ordered, include_symmetric,
                            pair, pair_tensor, quasi_shuffle)
from hopftower.qsym import antipode as q_antipode
from hopftower.qsym import coproduct as q_coproduct
from hopftower.sym import e, hall_pair, m, p
from hopftower.topology import abelianize_to_b


def coarsenings(I):
    # merge runs of adjacent parts; independent helper for the oracle
    if len(I) <= 1:
        return [I]
    out = []
    for J in coarsenings(I[1:]):
        out.append((I[0],) + J)
        out.append((I[0] + J[0],) + J[1:])
    return out


def test_z_product_concatenates():
    assert z(1, 1) * z(2, 3) == z(1, 1, 2, 3)
    assert z(2) * z(1) == z(2, 1)
    assert z(2) * z(1) != z(1) * z(2)


def test_binomial_coproduct_splits_each_letter():
    got = coproduct(z(2))
    want = Tensor((NSymElement, NSymElement),
                  {((), (2,)): 1, ((1,), (1,)): 1, ((2,), ()): 1})
    assert got == want
    # multiplicativity gives the word rule
    assert coproduct(z(1, 1)) == coproduct(z(1)) * coproduct(z(1))


def test_z_antipode_matches_signed_composition_sum():
    for n in range(1, 7):
        want = NSymElement.zero()
        for I in compositions_of(n):
            want = want + NSymElement({I: (-1) ** len(I)})
        assert antipode(z(n)) == want


def test_z_antipode_pins():
    assert antipode(z(3)) == -z(1, 1, 1) + z(1, 2) + z(2, 1) - z(3)
    assert antipode(z(2, 1)) == antipode(z(1)) * antipode(z(2))


def test_quasi_shuffle_pins():
    assert M(1) * M(1) == M(1, 1).scale(2) + M(2)
    assert M(1) * M(2) == M(1, 2) + M(2, 1) + M(3)
    assert M(1) * M(1, 1) == M(1, 1, 1).scale(3) + M(2, 1) + M(1, 2)
    assert dict(quasi_shuffle((1,), (2,))) == {(1, 2): 1, (2, 1): 1, (3,): 1}


def test_quasi_shuffle_matches_ordered_expansion():
    words = [(1,), (2,), (1, 1), (1, 2), (2, 1)]
    for I in words:
        for J in words:
            nvars = sum(I) + sum(J)
            lhs = expand_ordered(QSymElement({I: 1}) * QSymElement({J: 1}),
                                 nvars)
            a = expand_ordered(QSymElement({I: 1}), nvars)
            b = expand_ordered(QSymElement({J: 1}), nvars)
            prod = {}
            for ka, ca in a.items():
                for kb, cb in b.items():
                    key = tuple(x + y for x, y in zip(ka, kb))
                    prod[key] = prod.get(key, Fraction(0)) + ca * cb
            prod = {k: v for k, v in prod.items() if v}
            assert lhs == prod


def test_deconcatenation_coproduct():
    got = q_coproduct(M(1, 2))
    want = Tensor((QSymElement, QSymElement),
                  {((), (1, 2)): 1, ((1,), (2,)): 1, ((1, 2), ()): 1})
    assert got == want


def test_m_antipode_matches_reversal_coarsening_formula():
    for w in range(1, 6):
        for I in compositions_of(w):
            want = QSymElement.zero()
            for J in coarsenings(tuple(reversed(I))):
                want = want + QSymElement({J: (-1) ** len(I)})
            assert q_antipode(QSymElement({I: 1})) == want


def test_m_antipode_pins():
    assert q_antipode(M(1, 1)) == M(1, 1) + M(2)
    assert q_antipode(M(2)) == -M(2)


def test_pairing_is_delta_on_bases():
    for w in range(5):
        for I in compositions_of(w):
            for J in compositions_of(w):
                want = Fraction(1 if I == J else 0)
                assert pair(NSymElement({I: 1}), QSymElement({J: 1})) == want
    assert pair(z(2), M(1, 1)) == 0
    assert pair(z(2), M(1) * M(1)) == 1


def test_pairing_adjunctions_small():
    # <xy, f> = <x (x) y, deconcatenation f>
    x, y, f = z(1), z(2), M(1, 2)
    lhs = pair(x * y, f)
    rhs = pair_tensor(Tensor.of(x, y), q_coproduct(f))
    assert lhs == rhs == 1
    # <split z, f (x) g> = <z, fg>
    zc, f2, g2 = z(3), M(1), M(2)
    lhs = pair_tensor(coproduct(zc), Tensor.of(f2, g2))
    rhs = pair(zc, f2 * g2)
    assert lhs == rhs == 1


def test_abelianize_sorts_the_word():
    assert abelianize(z(2, 1)) == e(2, 1)
    assert abelianize(z(1, 2)) == e(2, 1)
    assert abelianize(z(1, 1) - z(2)) == e(1, 1) - e(2)
    assert abelianize(z(1) * z(2)) == abelianize(z(1)) * abelianize(z(2))


def test_the_tower_maps_refuse_input_outside_their_domain():
    # read as a word, m_21 would go to e_21; but m_21 = e_21 - 3 e_3
    for down in (abelianize, bfk_abelianize, abelianize_to_b):
        for f in (m(2, 1), p(2), e(1), M(1, 2), 3):
            with pytest.raises(AlgebraMismatchError):
                down(f)
    for f in (z(1), M(1), 3):
        with pytest.raises(AlgebraMismatchError):
            include_symmetric(f)


def test_the_pairings_refuse_the_wrong_algebras():
    dz, dm = coproduct(z(1)), q_coproduct(M(1))
    for left, right in ((dz, dz), (dm, dm), (dm, dz), (Tensor.of(e(1)), Tensor.of(e(1))),
                        (z(1), M(1))):
        with pytest.raises(AlgebraMismatchError):
            pair_tensor(left, right)
    assert pair_tensor(dz, dm) == 2
    for f, g in ((z(1), e(1)), (e(1), z(1)), (e(1), M(1))):
        with pytest.raises(AlgebraMismatchError):
            hall_pair(f, g)


def test_include_symmetric_sums_rearrangements():
    assert include_symmetric(m(2, 1)) == M(1, 2) + M(2, 1)
    assert include_symmetric(m(1)) == M(1)
    assert include_symmetric(e(2)) == M(1, 1)
    assert include_symmetric(m(2, 2)) == M(2, 2)


def test_include_symmetric_makes_each_rearrangement_once():
    """m_(1^16) has one rearrangement; walking its 16! orderings cannot finish."""
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(5)
    try:
        assert include_symmetric(m(*[1] * 16)) == M(*[1] * 16)
    finally:
        signal.alarm(0)


def _timeout(signum, frame):
    raise TimeoutError("include_symmetric walked every ordering")


def test_pairing_against_inclusion_detects_rearrangement():
    words = ((2, 1), (1, 2), (1, 1, 1), (3,))
    for I in words:
        for lam in ((2, 1), (1, 1, 1), (3,)):
            got = pair(z(*I), include_symmetric(m(*lam)))
            want = Fraction(1 if tuple(sorted(I, reverse=True)) == lam else 0)
            assert got == want

"""Series whose coefficients are tensors over a ``TensorSpace``.

The space stands for the coefficient algebra: its ``zero`` is the coefficient
of an absent power, and it is commutative exactly when every factor is, which
``revert`` reads before it builds anything.
"""

from fractions import Fraction

import pytest

from hopftower.diffeo import FdBElement, t
from hopftower.errors import DomainError
from hopftower.linear import Tensor, TensorSpace
from hopftower.nsym import NSymElement, z
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement, e

CAP = 5


def _series(space, second, third):
    return TruncatedSeries(space, {1: 1, 2: second, 3: third}, CAP)


def test_a_tensor_series_over_commutative_factors_reverts():
    space = TensorSpace(SymElement, FdBElement)
    assert repr(space) == "TensorSpace(SymElement, FdBElement)"
    assert space.COMMUTATIVE
    s = _series(space, Tensor.of(e(1), t(1)),
                Tensor.of(e(2), t(1)) + Tensor.of(e(1, 1), t(2)).scale(Fraction(1, 2)))
    absent = s.coefficient(CAP)
    assert type(absent) is Tensor and absent.factors == (SymElement, FdBElement)
    assert absent.terms == {}
    identity = TruncatedSeries(space, {1: 1}, CAP)
    r = s.revert()
    assert r.algebra == space and r.terms[2] == -s.terms[2]
    assert s.compose(r) == identity
    assert r.compose(s) == identity


def test_a_tensor_series_over_noncommutative_factors_is_refused():
    space = TensorSpace(NSymElement, NSymElement)
    assert not space.COMMUTATIVE
    s = _series(space, Tensor.of(z(1), z(2)), Tensor.of(z(2), z(1)))
    with pytest.raises(DomainError) as exc:
        s.revert()
    assert str(exc.value) == "reversion requires commutative coefficients"

"""Frozen bytes of ``dumps(document_for(x))`` for the kinds of value that no
other test pins: a 3-slot tensor, a series of tensors, beta polynomials and
their series, the bivariate BFK addition law and a sym series whose document
is written in the h basis.  Each also loads back to the value it came from.
"""

from fractions import Fraction

import pytest

from hopftower.jsonio import document_for, dumps, loads
from hopftower.linear import Tensor, TensorSpace
from hopftower.nsym import NSymElement, z
from hopftower.qsym import M
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement, e, h
from hopftower.topology import (BElement, BetaPolynomial, b, beta_series,
                                cp_infinity_coproduct)

CASES = [
    ("three-slot tensor",
     lambda: Tensor.of(e(1), z(2), M(1)) - Tensor.of(e(2), z(1, 1), M(2)).scale(Fraction(1, 2)),
     None,
     '{"algebra":"tensor","factors":["sym","nsym","qsym"],"terms":'
     '[{"slots":[[1],[2],[1]],"coeff":"1"},{"slots":[[2],[1,1],[2]],"coeff":"-1/2"}]}'),
    ("three-slot nsym tensor under bfk",
     lambda: Tensor.of(z(1), z(2), z(1)) + Tensor.of(z(), z(1), z(1, 1)).scale(3),
     "bfk",
     '{"algebra":"tensor","factors":["nsym","nsym","nsym"],"structure":"bfk","terms":'
     '[{"slots":[[],[1],[1,1]],"coeff":"3"},{"slots":[[1],[2],[1]],"coeff":"1"}]}'),
    ("series of tensors",
     lambda: TruncatedSeries(TensorSpace(NSymElement, SymElement), {
         1: Tensor.of(z(1), e(1)),
         2: Tensor.of(z(2), e(1, 1)) - Tensor.of(z(), e(2)).scale(Fraction(2, 3))}, 3),
     None,
     '{"algebra":"tensor","factors":["nsym","sym"],"cap":3,"vars":1,"series":['
     '{"power":1,"terms":[{"left":[1],"right":[1],"coeff":"1"}]},'
     '{"power":2,"terms":[{"left":[],"right":[2],"coeff":"-2/3"},'
     '{"left":[2],"right":[1,1],"coeff":"1"}]}]}'),
    ("beta polynomial",
     lambda: BetaPolynomial({0: b(1), 2: BElement.one().scale(-3)}),
     None,
     '{"algebra":"bpoly","beta":[{"power":0,"terms":[{"index":[1],"coeff":"1"}]},'
     '{"power":2,"terms":[{"index":[],"coeff":"-3"}]}]}'),
    ("beta series",
     lambda: beta_series(3),
     None,
     '{"algebra":"bpoly","coefficients":"beta","cap":3,"vars":1,"series":['
     '{"power":0,"beta":[{"power":0,"terms":[{"index":[],"coeff":"1"}]}]},'
     '{"power":1,"beta":[{"power":1,"terms":[{"index":[],"coeff":"1"}]}]},'
     '{"power":2,"beta":[{"power":1,"terms":[{"index":[1],"coeff":"-1"}]},'
     '{"power":2,"terms":[{"index":[],"coeff":"1/2"}]}]},'
     '{"power":3,"beta":[{"power":1,"terms":[{"index":[1,1],"coeff":"2"},'
     '{"index":[2],"coeff":"-1"}]},{"power":2,"terms":[{"index":[1],"coeff":"-1"}]},'
     '{"power":3,"terms":[{"index":[],"coeff":"1/6"}]}]}]}'),
    ("bfk addition law",
     lambda: cp_infinity_coproduct(2),
     "bfk",
     '{"algebra":"nsym","structure":"bfk","cap":2,"vars":2,"series":['
     '{"powers":[0,1],"terms":[{"index":[],"coeff":"1"}]},'
     '{"powers":[1,0],"terms":[{"index":[],"coeff":"1"}]},'
     '{"powers":[1,1],"terms":[{"index":[1],"coeff":"2"}]}]}'),
    ("sym series in the h basis",
     lambda: TruncatedSeries(SymElement, {1: h(1), 2: h(2) - h(1, 1).scale(Fraction(1, 2)),
                                          3: e(3)}, 3),
     None,
     '{"algebra":"sym","basis":"h","cap":3,"vars":1,"series":['
     '{"power":1,"terms":[{"index":[1],"coeff":"1"}]},'
     '{"power":2,"terms":[{"index":[1,1],"coeff":"-1/2"},{"index":[2],"coeff":"1"}]},'
     '{"power":3,"terms":[{"index":[1,1,1],"coeff":"1"},{"index":[2,1],"coeff":"-2"},'
     '{"index":[3],"coeff":"1"}]}]}'),
]


@pytest.mark.parametrize("label,build,structure,expected", CASES,
                         ids=[case[0] for case in CASES])
def test_document_bytes_are_frozen(label, build, structure, expected):
    value = build()
    text = dumps(document_for(value, structure))
    assert text == expected
    assert loads(text) == value

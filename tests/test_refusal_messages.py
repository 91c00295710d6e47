"""Refusals that no other test reaches in process, each with its message.

A CLI refusal exits 1 through ``run_command`` with ``error: <message>`` on
stderr and nothing on stdout; any other refusal raises ``DomainError``, or
the exception class its case names as a third entry.
"""

import io
from fractions import Fraction

import pytest

from hopftower import cli
from hopftower.algebroid import SB, coface
from hopftower.errors import AlgebraMismatchError, DomainError, ExpressionError
from hopftower.exactlinalg import invert_matrix
from hopftower.expr import parse_element, parse_series
from hopftower.jsonio import document_for
from hopftower.linear import Tensor, TensorSpace
from hopftower.nsym import NSymElement, z_series
from hopftower.qsym import QSymElement, pair_tensor
from hopftower.scalars import parse_scalar, rational
from hopftower.series import TruncatedSeries
from hopftower.structures import tag_of_class
from hopftower.sym import SymElement, convert, e, involution
from hopftower.topology import ProjectiveProductSpace, quasitoric_char_number


def _bivariate():
    return TruncatedSeries(Fraction, {(0, 1): 1, (1, 0): 1}, 3, 2)


def _t():
    return TruncatedSeries(Fraction, {1: 1}, 3)


def _noncommutative_tensor_series():
    space = TensorSpace(NSymElement, NSymElement)
    return TruncatedSeries(space, {1: 1, 2: Tensor((NSymElement,) * 2, {((1,), (2,)): 1})}, 3)


CASES = [
    ("charnum cp needs --dim", ("charnum", "cp")),
    ("charnum quasitoric needs --space and --composition", ("charnum", "quasitoric")),
    ("reversion requires commutative coefficients", lambda: z_series(3).revert()),
    ("reversion needs a univariate series", lambda: _bivariate().revert()),
    ("residue is univariate only", lambda: _bivariate().residue()),
    ("shift is univariate only", lambda: _bivariate().shift(1)),
    ("alternate is univariate only", lambda: _bivariate().alternate()),
    ("matrix is not square", lambda: invert_matrix([[1, 2]])),
    ("matrix is singular", lambda: invert_matrix([[1, 2], [2, 4]])),
    ("inversion needs a nonzero rational times 1 as constant term", lambda: _t().invert()),
    ("compose_sum needs a univariate inner series", lambda: _t().compose_sum(_bivariate())),
    ("embed_bivariate needs a univariate series", lambda: _bivariate().embed_bivariate(0)),
    ("swap_variables needs a bivariate series", lambda: _t().swap_variables()),
    ("set_variable_zero needs a bivariate series", lambda: _t().set_variable_zero(0)),
    ("variable slot must be 0 or 1, not 2", lambda: _t().embed_bivariate(2)),
    ("exp needs a power series with zero constant term", lambda: (_t() + 1).exp()),
    ("log needs a power series with constant term 1", lambda: _t().log()),
    ("a bare number needs --algebra to pick a coproduct", ("coproduct", "2")),
    ("no pairing between qsym and qsym expressions", ("pair", "M[1]", "M[1]")),
    ("coface index 2 out of range for level 0", lambda: coface(SB, e(1), 2)),
    ("not a rational scalar: 'x'", lambda: rational("x")),
    ("not a rational literal: 'x'", lambda: parse_scalar("x")),
    ("no JSON tag for <class 'int'>", lambda: tag_of_class(int)),
    ("no JSON tag for <class 'bool'>", lambda: document_for(True)),
    ("no JSON tag for <class 'bool'>", lambda: document_for(False)),
    ("unknown symmetric function basis 'q'", lambda: SymElement({(1,): 1}, "q")),
    ("unknown symmetric function basis 'q'", lambda: convert(e(1), "q")),
    ("unknown involution 'flip'", lambda: involution(e(1), "flip")),
    ("a space needs at least one factor", lambda: ProjectiveProductSpace((), [])),
    ("each root needs one coefficient per factor",
     lambda: ProjectiveProductSpace((1,), [(1, 0)])),
    ("space document needs 'factors' and 'roots' lists",
     lambda: ProjectiveProductSpace.from_document({"roots": []})),
    ("convention must be 'tangent' or 'normal'",
     lambda: quasitoric_char_number(ProjectiveProductSpace((1,), [(1,)]), (1,), "both")),
    ("tensor arities differ",
     lambda: pair_tensor(Tensor((NSymElement,), {((1,),): 1}),
                         Tensor((QSymElement,) * 2, {((1,), (1,)): 1})),
     AlgebraMismatchError),
    ("name 'beta' is not allowed here at column 1", lambda: parse_element("beta"),
     ExpressionError),
    ("expected a number, a generator or '(' at column 1", lambda: parse_element("*"),
     ExpressionError),
    ("expected an index part at column 3", lambda: parse_element("e[1/2]"), ExpressionError),
    ("a series coefficient algebra is Fraction, an algebra class or a TensorSpace, not 'foo'",
     lambda: TruncatedSeries("foo")),
    ("a series coefficient algebra is Fraction, an algebra class or a TensorSpace, "
     "not <class 'int'>", lambda: TruncatedSeries(int)),
    ("a series coefficient algebra is Fraction, an algebra class or a TensorSpace, not None",
     lambda: TruncatedSeries(None, {0: 1}, 2)),
    ("series coefficients mix BElement with FdBElement",
     lambda: parse_series("b[1]*T + t[1]*T", 2), AlgebraMismatchError),
    ("reversion requires commutative coefficients",
     lambda: _noncommutative_tensor_series().revert()),
]


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_each_refusal_says_what_it_refuses(case):
    message, call, refusal = (*case, DomainError)[:3]
    if isinstance(call, tuple):
        out, err = io.StringIO(), io.StringIO()
        assert cli.run_command(list(call), out, err) == 1
        assert (out.getvalue(), err.getvalue()) == ("", "error: %s\n" % message)
    else:
        with pytest.raises(refusal) as exc:
            call()
        assert type(exc.value) is refusal
        assert str(exc.value) == message

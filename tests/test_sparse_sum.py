"""One sparse-sum core: every value kind takes its operands the same way.

Elements, tensors, beta polynomials and truncated series all derive from
``linear.SparseSum``, whose ``_operand`` is the one operand rule: a value of
the same kind is combined, an ``int`` or ``Fraction`` stands for that
multiple of the unit, and anything else raises ``AlgebraMismatchError``.
The guard below keeps negation, subtraction, the scalar action and the
operand rule in the base; the table checks the rule on every kind.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from hopftower.errors import AlgebraMismatchError
from hopftower.linear import LinearElement, SparseSum, Tensor, TensorSpace
from hopftower.nsym import NSymElement, z
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement, e, h
from hopftower.topology import BElement, BetaPolynomial, b

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
BASE_ONLY = {"__neg__", "__sub__", "__rsub__", "__rmul__", "scale", "_operand"}


def _class_members(path):
    """(class name, member name) of every method or class attribute defined
    in a class body of ``path``."""
    members = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members.add((node.name, item.name))
                elif isinstance(item, ast.Assign):
                    members.update((node.name, t.id) for t in item.targets
                                   if isinstance(t, ast.Name))
    return members


def test_every_value_kind_is_a_sparse_sum():
    for cls in (LinearElement, Tensor, BetaPolynomial, TruncatedSeries):
        assert issubclass(cls, SparseSum), cls


def test_arithmetic_rules_live_only_in_the_base():
    found = {(path.name,) + member for path in sorted(PACKAGE.rglob("*.py"))
             for member in _class_members(path) if member[1] in BASE_ONLY}
    assert {("linear.py", "SparseSum", name) for name in BASE_ONLY} <= found
    assert {site for site in found if site[1] != "SparseSum"} == set()


def _tensor(*slots_and_coeffs):
    return Tensor((NSymElement, SymElement), dict(slots_and_coeffs))


# kind -> (a value, its unit as the validating constructor builds it from a
# scalar q, foreign values)
KINDS = {
    "sym": (e(2) + h(1), lambda q: SymElement({(): q}),
            (z(1), b(1), Tensor.of(e(1)), 0.5, "1")),
    "nsym": (z(1, 2) - z(3), lambda q: NSymElement({(): q}),
             (e(1), Tensor.of(z(1)), TruncatedSeries(NSymElement, {0: 1}, 2), 0.5)),
    "tensor": (_tensor((((1,), (2,)), 3), (((), (1,)), -1)),
               lambda q: _tensor((((), ()), q)),
               (Tensor.of(e(1), z(1)), Tensor.of(z(1)), z(1), 0.5)),
    "bpoly": (BetaPolynomial({1: b(1), 2: 1}), lambda q: BetaPolynomial({0: q}),
              (b(1), BElement.one(), z(1), 0.5, "1")),
    "series": (TruncatedSeries(SymElement, {0: h(1), 2: e(1, 1)}, 3),
               lambda q: TruncatedSeries(SymElement, {0: q}, 3),
               (TruncatedSeries(NSymElement, {0: 1}, 3),
                TruncatedSeries(SymElement, {(0, 0): 1}, 3, 2), e(1), 0.5)),
    "scalar series": (TruncatedSeries(Fraction, {0: 2, 1: Fraction(1, 2)}, 4),
                      lambda q: TruncatedSeries(Fraction, {0: q}, 4),
                      (TruncatedSeries(BElement, {1: 1}, 4), Fraction(1, 2) * b(1))),
    "tensor series": (TruncatedSeries(TensorSpace(SymElement, SymElement),
                                      {1: Tensor.of(e(1), e(2))}, 2),
                      lambda q: TruncatedSeries(TensorSpace(SymElement, SymElement),
                                                {0: q}, 2),
                      (TruncatedSeries(TensorSpace(NSymElement, NSymElement), {0: 1}, 2),
                       Tensor.of(e(1), e(2)))),
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_scalars_go_on_the_unit(kind):
    x, unit, _ = KINDS[kind]
    for q in (3, -1, Fraction(-2, 3)):
        assert x + q == q + x == x + unit(q)
        assert x - q == x - unit(q)
        assert q - x == unit(q) - x
        assert x * q == q * x == x * unit(q) == x.scale(q)
    assert x + 0 == x - 0 == x
    assert not x * 0 and not 0 * x


@pytest.mark.parametrize("kind", list(KINDS))
def test_foreign_values_are_refused(kind):
    x, _, foreign = KINDS[kind]
    for other in foreign:
        for op in (lambda: x + other, lambda: x - other, lambda: x * other):
            with pytest.raises(AlgebraMismatchError):
                op()


@pytest.mark.parametrize("kind", list(KINDS))
def test_equality_and_the_left_scalar_action_leave_a_str_to_python(kind):
    x = KINDS[kind][0]
    assert x.__eq__("1") is NotImplemented and x.__rmul__("1") is NotImplemented
    assert x != "1"
    with pytest.raises(TypeError):
        "1" * x

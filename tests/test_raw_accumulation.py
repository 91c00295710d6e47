"""The sparse-sum loops add raw terms and settle once, with no wasted scalar work.

Every coefficient product and sum in a hot loop of ``linear`` is ``int``
arithmetic inline or a call of the exact kernel ``scalars.qmul``/``qadd``, so
the public routes that run those loops make no call of a ``Fraction`` operator
at all.  The loops store the value of a key they see for the first time as is,
multiply by no structure constant equal to 1, and leave zeros to one
``settle`` per result; ``scale`` by 1 is a copy.  A kernel call with a unit
operand (a product with 1, a sum with 0) still builds a new ``Fraction``, so a
counter on the names ``linear`` binds the kernel to checks the same routes for
those, and an ast guard keeps the ``get(key, 0) + ...`` spelling out of the
modules that hold the loops.  ``exactlinalg.sparse_rank`` counts columns in
``int``s, where ``0 + 1`` costs nothing, and is not checked.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hopftower import algebroid, linear, nsym, qsym
from hopftower.linear import Tensor, on_words
from hopftower.nsym import NSymElement
from hopftower.qsym import QSymElement
from hopftower.series import TruncatedSeries

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
HOT_MODULES = ("linear.py", "algebroid.py", "series.py")
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")

HALF, THIRD, FIFTH = Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)


def _count_operators(monkeypatch):
    """The calls of ``Fraction``'s arithmetic operators made from now until
    the test ends, as ``(operator, a, b)``."""
    seen = []

    def watch(name):
        op = getattr(Fraction, name)

        def counted(a, b):
            seen.append((name, a, b))
            return op(a, b)

        monkeypatch.setattr(Fraction, name, counted)

    for name in OPERATORS:
        watch(name)
    return seen


def _is_scalar(x, unit):
    return type(x) in (int, Fraction) and x == unit


def _count_wasted(monkeypatch):
    """The kernel calls through ``linear``'s names made from now until the
    test ends that have a unit operand: a product with 1, a sum with 0; as
    ``(kernel, a, b)``."""
    seen = []

    def watch(name, unit):
        kernel = getattr(linear, name)

        def counted(a, b):
            if _is_scalar(a, unit) or _is_scalar(b, unit):
                seen.append((name, a, b))
            return kernel(a, b)

        monkeypatch.setattr(linear, name, counted)

    watch("qmul", 1)
    watch("qadd", 0)
    return seen


def _routes():
    """Every route the counters check, on Fraction coefficients other than 1;
    the word-image memo is warmed here, before anything is counted."""
    x = NSymElement({(2, 1): HALF, (1,): THIRD, (1, 2): FIFTH})
    y = NSymElement({(1, 1): THIRD, (2,): FIFTH})
    m = QSymElement({(1,): HALF, (2, 1): THIRD})
    t = nsym.coproduct(x)
    u = qsym.coproduct(m)
    f = TruncatedSeries(Fraction, {0: 3, 1: HALF, 2: THIRD, 4: FIFTH}, 6)
    g = TruncatedSeries(Fraction, {1: FIFTH, 2: -HALF, 3: 2}, 6)

    def delta(idx):
        return nsym.coproduct(NSymElement({idx: 1}))

    routes = {
        "Tensor.apply": lambda: t.apply(0, delta, t.factors),
        "Tensor.of": lambda: (Tensor.of(x, y), Tensor.of(y, x, m)),
        "on_words": lambda: on_words(x + y, nsym._coproduct_gen),
        "on_words, cancelling": lambda: nsym.antipode(
            NSymElement({(1, 1): HALF, (2,): -HALF, (3,): THIRD})),
        "SparseSum.__add__": lambda: (x + y, x + (-x), t + t, t - t),
        "scale": lambda: (x.scale(1), x.scale(HALF), t.scale(1), t.scale(THIRD)),
        "key product": lambda: (x * y, y * x, x * x),
        "powers": lambda: (x ** 2, x ** 3, t ** 2),
        "structure-constant product": lambda: m * m,
        "tensor products": lambda: (t * t, u * u),
        "series over Fraction": lambda: (f * g, g * f, f ** 2),
    }
    return {name: (call, call()) for name, call in routes.items()}


def test_the_sparse_sum_loops_call_no_fraction_operator(monkeypatch):
    routes = _routes()
    calls = _count_operators(monkeypatch)
    for name, (call, want) in routes.items():
        got = call()
        assert calls == [], name
        assert got == want, name


def test_the_sparse_sum_loops_make_no_wasted_kernel_call(monkeypatch):
    routes = _routes()
    wasted = _count_wasted(monkeypatch)
    for name, (call, want) in routes.items():
        got = call()
        assert got == want, name
        assert wasted == [], name


def _count_truth_tests(monkeypatch):
    """The ``Fraction.__bool__`` calls made from now until the test ends."""
    seen = []
    truth = Fraction.__bool__

    def counted(a):
        seen.append(a)
        return truth(a)

    monkeypatch.setattr(Fraction, "__bool__", counted)
    return seen


def test_settle_makes_no_fraction_truth_test(monkeypatch):
    raw = {(1,): HALF, (2,): Fraction(4, 2), (3,): Fraction(0), (4,): 0, (5,): 3}
    halves = Tensor((NSymElement, NSymElement), {((), ()): HALF, ((), (2,)): HALF})
    want = algebroid.differential(algebroid.NN, halves)
    calls = _count_truth_tests(monkeypatch)
    got = linear.settle(raw)
    assert got == {(1,): HALF, (2,): 2, (5,): 3} and type(got[(2,)]) is int
    # the cofaces leave Fraction(0) and Fraction(-1) for settle
    assert algebroid.differential(algebroid.NN, halves) == want
    assert calls == []
    assert bool(HALF) and calls == [HALF]


def test_the_operator_counter_sees_fraction_operators(monkeypatch):
    calls = _count_operators(monkeypatch)
    assert HALF + THIRD == Fraction(-1, 6) and 2 * FIFTH == Fraction(6, 5)
    assert 1 - HALF == HALF and HALF * THIRD == Fraction(-1, 3)
    assert [name for name, _, _ in calls] == ["__add__", "__rmul__", "__rsub__", "__mul__"]


def test_the_counter_sees_the_wasted_operations(monkeypatch):
    wasted = _count_wasted(monkeypatch)
    assert linear.qadd(0, HALF) == HALF and linear.qmul(THIRD, 1) == THIRD
    assert linear.qmul(1, FIFTH) == FIFTH
    assert linear.qmul(HALF, THIRD) and linear.qadd(HALF, THIRD)
    assert [(name, a) for name, a, _ in wasted] == [("qadd", 0), ("qmul", THIRD), ("qmul", 1)]


def _zero_default_sums(source):
    """The lines of ``source`` adding to ``<mapping>.get(<key>, 0)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            for side in (node.left, node.right):
                if (isinstance(side, ast.Call) and len(side.args) == 2
                        and getattr(side.func, "attr", getattr(side.func, "id", None)) == "get"
                        and isinstance(side.args[1], ast.Constant)
                        and side.args[1].value == 0):
                    lines.append(node.lineno)
    return lines


def test_no_hot_loop_adds_to_a_zero_default():
    found = {name: _zero_default_sums((PACKAGE / name).read_text()) for name in HOT_MODULES}
    assert found == {name: [] for name in HOT_MODULES}


def test_the_guard_sees_a_zero_default_sum():
    source = ("get = out.get\n"
              "out[k] = get(k, 0) + c\n"
              "out[k] = c + out.get(k, 0)\n"
              "out[k] = out.get(k, 1) + c\n"
              "old = get(k)\n")
    assert _zero_default_sums(source) == [2, 3]

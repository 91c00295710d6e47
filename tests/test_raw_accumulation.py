"""The sparse-sum loops add raw terms and settle once, with no wasted Fraction work.

A hot loop of ``linear`` stores the value of a key it sees for the first
time as is, multiplies by no structure constant equal to 1, and leaves zeros
and integral ``Fraction``s to one ``settle`` per result; ``scale`` by 1 is a
copy.  ``0 + Fraction`` and ``Fraction * 1`` each cost a full Fraction
operation, so a counter on ``Fraction``'s operators checks the public routes
that run these loops, and an ast guard keeps the ``get(key, 0) + ...``
spelling out of the modules that hold them.  ``exactlinalg.sparse_rank``
counts columns in ``int``s, where ``0 + 1`` costs nothing, and is not checked.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hopftower import nsym, qsym
from hopftower.linear import on_words
from hopftower.nsym import NSymElement
from hopftower.qsym import QSymElement

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
HOT_MODULES = ("linear.py", "algebroid.py", "series.py")

HALF, THIRD, FIFTH = Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)


def _count_wasted(monkeypatch):
    """The Fraction additions with a zero operand and multiplications with an
    operand equal to 1 made from now until the test ends, as
    ``(operator, a, b)``."""
    seen = []

    def watch(name, unit):
        op = getattr(Fraction, name)

        def counted(a, b):
            if type(b) in (int, Fraction) and (a == unit or b == unit):
                seen.append((name, a, b))
            return op(a, b)

        monkeypatch.setattr(Fraction, name, counted)

    for name in ("__add__", "__radd__"):
        watch(name, 0)
    for name in ("__mul__", "__rmul__"):
        watch(name, 1)
    return seen


def _routes():
    """Every route the counter checks, on Fraction coefficients other than 1;
    the word-image memo is warmed here, before anything is counted."""
    x = NSymElement({(2, 1): HALF, (1,): THIRD, (1, 2): FIFTH})
    y = NSymElement({(1, 1): THIRD, (2,): FIFTH})
    m = QSymElement({(1,): HALF, (2, 1): THIRD})
    t = nsym.coproduct(x)
    u = qsym.coproduct(m)

    def delta(idx):
        return nsym.coproduct(NSymElement({idx: 1}))

    routes = {
        "Tensor.apply": lambda: t.apply(0, delta, t.factors),
        "on_words": lambda: on_words(x + y, nsym._coproduct_gen),
        "on_words, cancelling": lambda: nsym.antipode(
            NSymElement({(1, 1): HALF, (2,): -HALF, (3,): THIRD})),
        "SparseSum.__add__": lambda: (x + y, x + (-x), t + t, t - t),
        "scale": lambda: (x.scale(1), x.scale(HALF), t.scale(1), t.scale(THIRD)),
        "key product": lambda: (x * y, y * x, x * x),
        "powers": lambda: (x ** 2, x ** 3, t ** 2),
        "structure-constant product": lambda: m * m,
        "tensor products": lambda: (t * t, u * u),
    }
    return {name: (call, call()) for name, call in routes.items()}


def test_the_sparse_sum_loops_make_no_wasted_fraction_operation(monkeypatch):
    routes = _routes()
    wasted = _count_wasted(monkeypatch)
    for name, (call, want) in routes.items():
        got = call()
        assert got == want, name
        assert wasted == [], name


def test_the_counter_sees_the_wasted_operations(monkeypatch):
    wasted = _count_wasted(monkeypatch)
    assert 0 + HALF == HALF and THIRD * 1 == THIRD and 1 * FIFTH == FIFTH
    assert HALF + THIRD and HALF * THIRD
    assert [(name, a) for name, a, _ in wasted] == [
        ("__radd__", HALF), ("__mul__", THIRD), ("__rmul__", FIFTH)]


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

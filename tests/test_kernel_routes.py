"""Negation, JSON input and the cobar differential run no ``Fraction`` method.

The exact kernel of ``scalars`` reads a ``Fraction`` by its two slots and
builds one only through its trusted builder, so a route that negates
coefficients (``qneg``), reads a document's coefficients (``parse_scalar``)
or takes the differential of a cochain with ``Fraction`` coefficients (over
one common denominator, then ``quotient``) makes no call of
``Fraction.__new__``, ``Fraction.__neg__`` or any arithmetic operator that
``tests/test_raw_accumulation.py`` counts.  Each route is warmed once, then
run under the counters, and its value is checked against one made by
``Fraction``'s own arithmetic or by a slower route before the count began.
"""

from fractions import Fraction
from functools import partial

from hopftower import algebroid, jsonio, sym
from hopftower.linear import Tensor
from hopftower.nsym import NSymElement
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")

HALF, THIRD, FIFTH = Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)


def _count_fraction_methods(monkeypatch):
    """The calls of ``Fraction.__new__``, ``Fraction.__neg__`` and the
    arithmetic operators made from now until the test ends, by name."""
    seen = []

    def watch(name):
        method = getattr(Fraction, name)

        def counted(*args, **kwargs):
            seen.append(name)
            return method(*args, **kwargs)

        monkeypatch.setattr(Fraction, name, staticmethod(counted) if name == "__new__" else counted)

    for name in ("__new__", "__neg__") + OPERATORS:
        watch(name)
    return seen


def _alternating_cofaces(alg, x):
    """sum_i (-1)^i d_i(x), through the slow ``coface`` route."""
    n = x.arity - 1
    total = algebroid.coface(alg, x, 0)
    for i in range(1, n + 2):
        total = total + (-1) ** i * algebroid.coface(alg, x, i)
    return total


def _routes():
    """Each route with the value it must give, both made before counting."""
    x = NSymElement({(2, 1): HALF, (1,): THIRD, (1, 2): FIFTH, (3,): 2})
    y = NSymElement({(1, 1): THIRD, (2,): FIFTH, (1,): 4})
    p = SymElement({(2, 1): HALF, (1,): THIRD, (3, 1, 1): FIFTH, (2,): -3}, "p")
    f = SymElement({(2, 1): HALF, (1,): THIRD, (1, 1): FIFTH, (3,): 5}, "e")
    s = TruncatedSeries(Fraction, {0: 3, 1: HALF, 2: THIRD, 3: FIFTH, 5: -1}, 6)
    cochains = {name: Tensor((alg.base_cls, alg.hopf_cls),
                             {((), (1,)): HALF, ((1,), (2,)): THIRD, ((2,), (1, 1)): 3})
                for name, alg in algebroid.ALGEBROIDS.items()}
    text = jsonio.dumps(jsonio.document_for(x))

    def signed(terms, sign):
        return {k: -c if sign(k) else c for k, c in terms.items()}

    difference = dict(x.terms)
    for k, c in y.terms.items():
        difference[k] = difference.get(k, 0) - c
    routes = {
        "-x": (lambda: -x, NSymElement(signed(x.terms, lambda k: True))),
        "x - y": (lambda: x - y, NSymElement(difference)),
        "antipode on p": (lambda: sym.antipode(p),
                          SymElement(signed(p.terms, lambda lam: len(lam) % 2), "p")),
        "dual involution": (lambda: sym.involution(f, "dual"),
                            SymElement(signed(f.terms, lambda lam: sum(lam) % 2), "e")),
        "alternate": (lambda: s.alternate(),
                      TruncatedSeries(Fraction, signed(s.coeffs, lambda k: k % 2), 6)),
        "loads": (lambda: jsonio.loads(text), x),
    }
    for name, cochain in cochains.items():
        alg = algebroid.ALGEBROIDS[name]
        routes["differential on " + name] = (partial(algebroid.differential, alg, cochain),
                                             _alternating_cofaces(alg, cochain))
    return routes


def test_the_kernel_routes_call_no_fraction_method(monkeypatch):
    routes = _routes()
    for call, _ in routes.values():
        call()
    calls = _count_fraction_methods(monkeypatch)
    for name, (call, want) in routes.items():
        got = call()
        assert calls == [], name
        assert got == want, name
        terms = got.coeffs if isinstance(got, TruncatedSeries) else got.terms
        assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
                   for c in terms.values()), name


def test_the_counter_sees_each_fraction_method(monkeypatch):
    calls = _count_fraction_methods(monkeypatch)
    assert -HALF == Fraction(-1, 2) and HALF - THIRD == Fraction(7, 6)
    assert calls == ["__neg__", "__new__", "__new__", "__sub__", "__new__", "__new__"]

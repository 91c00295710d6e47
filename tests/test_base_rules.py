"""The rules every kind of sparse sum takes from ``linear.SparseSum``.

Elements, tensors, beta polynomials, exponent-vector polynomials and
truncated series share one product, one power, one scalar equality and one
coefficient rule.  The tables below run each rule on every kind; the guard
keeps the rules in the base, with the few overrides that a kind needs named
and explained.
"""

import ast
import io
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hopftower import structures
from hopftower.cli import run_command
from hopftower.diffeo import FdBElement, t
from hopftower.errors import AlgebraMismatchError, DomainError
from hopftower.jsonio import from_document
from hopftower.linear import LinearElement, Polynomial, SparseSum, Tensor, TensorSpace
from hopftower.nsym import NSymElement, z
from hopftower.qsym import M, QSymElement
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement, e, h, m
from hopftower.topology import BElement, BetaPolynomial, b

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"

# one value of every kind, each with more than one term
VALUES = {
    "sym e": e(1) + e(2, 1).scale(2),
    "sym m": m(1) - m(2).scale(Fraction(1, 2)),
    "nsym": z(1) - z(2, 1),
    "qsym": M(1) + M(1, 2),
    "fdb": t(1) + 3,
    "tensor": Tensor.of(z(1), e(1)) + Tensor.of(z(2), e(1, 1)).scale(-1),
    "mixed tensor": Tensor.of(M(1), z(1)) + 1,
    "bpoly": BetaPolynomial({0: b(1), 1: 2, 2: b(1, 1)}),
    "scalar series": TruncatedSeries(Fraction, {0: 1, 1: Fraction(1, 3), 2: -2}, 4),
    "shift view": TruncatedSeries(Fraction, dict.fromkeys(range(7), 1), 6).shift(-2),
    "nsym series": TruncatedSeries(NSymElement, {0: 1, 1: z(1), 2: z(1, 1) - z(2)}, 4),
    "bivariate series": TruncatedSeries(BElement, {(0, 0): 1, (1, 0): b(1), (0, 1): 2}, 3, 2),
    "tensor series": TruncatedSeries(TensorSpace(NSymElement, NSymElement),
                                     {0: 1, 1: Tensor.of(z(1), z(2))}, 3),
    "beta series": TruncatedSeries(BetaPolynomial, {0: 1, 1: BetaPolynomial({1: b(1)})}, 3),
    "polynomial": Polynomial(2, {(1, 0): 1, (0, 1): Fraction(-1, 2)}),
    "box polynomial": Polynomial(2, {(0, 0): 2, (1, 0): 1, (1, 1): 3}, (2, 3)),
    "degree polynomial": Polynomial(3, {(1, 0, 0): b(1), (0, 1, 1): 2}, 4),
}


# one term each, whose square is one term: these power by squaring
MONOMIALS = {
    "sym e": e(2, 1).scale(3),
    "nsym": z(1, 2),
    "shift view": TruncatedSeries(Fraction, {3: Fraction(2, 3)}, 9).shift(-2),
    "nsym series": TruncatedSeries(NSymElement, {1: z(1)}, 12),
    "degree polynomial": Polynomial(3, {(1, 0, 0): b(1)}, 10),
}
# one term each, whose square has several: these take one factor at a time
ONE_TERM = {
    "sym m": m(2, 1),
    "qsym": M(1),
    "sym m series": TruncatedSeries(SymElement, {1: m(1)}, 12),
}
POWERED = {**VALUES, **{"monomial " + k: x for k, x in MONOMIALS.items()},
           **{"one-term " + k: x for k, x in ONE_TERM.items()}}


@pytest.mark.parametrize("kind", list(POWERED))
def test_powers_are_repeated_products(kind):
    """Each power equals the product of its factors taken one at a time, the
    cap of a series included, whether it goes by squaring (a one-term x
    whose square is one term) or not.  QSym stops at 5, where the
    quasi-shuffles of the repeated product are already in the tens of
    thousands of terms."""
    x = POWERED[kind]
    if kind.startswith(("monomial", "one-term")):
        assert (x * x)._one_term() == kind.startswith("monomial")
    assert x ** 3 == x * x * x
    assert x ** 1 == x
    assert x ** 0 == 1 == x._operand(1)
    product = x
    for n in range(2, 6 if kind == "qsym" else 10):
        product = product * x
        assert x ** n == product and type(x ** n) is type(product), n
        assert getattr(x ** n, "cap", None) == getattr(product, "cap", None), n


def test_a_large_power_takes_few_products():
    def timeout(signum, frame):
        raise TimeoutError("e[1]^100000 made a product per factor")

    signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        out, err = io.StringIO(), io.StringIO()
        assert run_command(["eval", "e[1]^100000"], out, err) == 0
    finally:
        signal.alarm(0)
    assert out.getvalue() == "e[%s]\n" % ",".join(["1"] * 100000)


@pytest.mark.parametrize("x", [M(1) + M(1, 2), M(1), m(2, 1)])
def test_a_power_that_grows_multiplies_by_the_base(monkeypatch, x):
    """Squaring x^3 would pair two powers of many terms, whose quasi-shuffles
    or m-products cost far more than x^5 * x; every product has x on the
    right instead."""
    cls, seen = type(x), []
    mul_into = cls._mul_into

    def counted(self, out, a, b):
        seen.append(b.terms == x.terms)
        return mul_into(self, out, a, b)

    monkeypatch.setattr(cls, "_mul_into", counted)
    x ** 6
    assert all(seen) and len(seen) >= 5


@pytest.mark.parametrize("kind", list(VALUES))
def test_an_exponent_is_a_nonnegative_int(kind):
    x = VALUES[kind]
    for n in (-1, True, 1.5, Fraction(2), "2"):
        with pytest.raises(DomainError):
            x ** n


@pytest.mark.parametrize("kind", list(VALUES))
def test_scalars_compare_as_multiples_of_the_unit(kind):
    x = VALUES[kind]
    assert x * 0 == 0 and 0 == x * 0
    for q in (1, -2, Fraction(3, 4)):
        assert x._operand(q) == q and q == x._operand(q)
        assert x._operand(q) != q + 1
    assert x != 1 and x != 0
    assert (x == "1") is False and (x == 1.0) is False


@pytest.mark.parametrize("cls", [row.cls for row in structures.ALGEBRAS.values()]
                         + [BetaPolynomial])
def test_one_and_zero_come_from_the_base(cls):
    assert cls.one() == 1 and type(cls.one()) is cls
    assert cls.zero() == 0 and not cls.zero()
    assert cls.one() * cls.one() == cls.one()


def test_the_sym_unit_and_basis_elements_are_e_based():
    assert SymElement.one().basis == SymElement.zero().basis == "e"
    assert SymElement.from_index((2, 1)) == e(2, 1)
    assert SymElement.from_index((2, 1)).basis == "e"


def test_from_index_canonicalises_its_index_once():
    calls = []
    canonical = SymElement.canonical_index.__func__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is canonical:
            calls.append(frame.f_locals["idx"])

    sys.setprofile(profile)
    try:
        x = SymElement.from_index([1, 2])
    finally:
        sys.setprofile(None)
    assert x == e(2, 1) and x.terms == {(2, 1): 1}
    assert calls == [[1, 2]]


def test_tensor_of_adopts_its_terms_with_no_second_pass():
    left, right = z(1) + z(2, 1), e(1, 2)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "canonical_index":
            calls.append(frame.f_locals["idx"])

    sys.setprofile(profile)
    try:
        x = Tensor.of(left, right)
    finally:
        sys.setprofile(None)
    assert calls == []
    assert x == Tensor((NSymElement, SymElement), {((1,), (2, 1)): 1, ((2, 1), (1, 2)): 1})


def test_scalar_equality_of_the_kinds_that_used_to_refuse_it():
    assert BetaPolynomial.one() == 1
    assert Tensor.of(e(1)) * 0 == 0
    assert TruncatedSeries(NSymElement, {0: 2}, 3) == 2
    # equality still tells series known to different caps apart
    assert TruncatedSeries(Fraction, {0: 1}, 2) != TruncatedSeries(Fraction, {0: 1}, 3)


# constructors with a float coefficient: DomainError, as scalars.rational says
FLOAT_COEFFICIENTS = {
    "sym": lambda: SymElement({(1,): 0.5}),
    "sym h": lambda: SymElement({(1,): 0.5}, "h"),
    "nsym": lambda: NSymElement({(1, 2): 0.5}),
    "qsym": lambda: QSymElement({(1,): 0.5}),
    "fdb": lambda: FdBElement({(1,): 0.5}),
    "b": lambda: BElement({(): 2.0}),
    "tensor": lambda: Tensor((NSymElement, SymElement), {((1,), (1,)): 0.5}),
    "bpoly on the unit": lambda: BetaPolynomial({0: 0.5}),
    "bpoly": lambda: BetaPolynomial({2: 1.0}),
    "scalar series": lambda: TruncatedSeries(Fraction, {1: 0.5}, 2),
    "nsym series": lambda: TruncatedSeries(NSymElement, {0: 0.5}, 2),
    "bivariate series": lambda: TruncatedSeries(BElement, {(1, 0): 0.5}, 2, 2),
    "tensor series": lambda: TruncatedSeries(TensorSpace(NSymElement, NSymElement),
                                             {0: 0.5}, 2),
    "beta series": lambda: TruncatedSeries(BetaPolynomial, {1: 1.5}, 2),
    "polynomial": lambda: Polynomial(2, {(1, 0): 0.5}),
}


@pytest.mark.parametrize("kind", list(FLOAT_COEFFICIENTS))
def test_a_float_coefficient_is_refused_by_every_constructor(kind):
    with pytest.raises(DomainError):
        FLOAT_COEFFICIENTS[kind]()


def test_a_key_is_checked_then_dropped_before_its_coefficient_is_read():
    assert TruncatedSeries(Fraction, {9: 0.5, 1: 2}, 2) == TruncatedSeries(Fraction, {1: 2}, 2)
    assert TruncatedSeries(BElement, {(2, 1): z(1)}, 2, 2) == 0
    assert Polynomial(2, {(3, 0): 0.5, (0, 1): 1}, 2).terms == {(0, 1): 1}
    assert Polynomial(2, {(2, 0): "junk"}, (1, 1)).terms == {}
    # a malformed key is refused before a coefficient of another kind is lifted
    with pytest.raises(DomainError):
        TruncatedSeries(BElement, {-1: z(1)}, 2)


def _bpoly_document(power):
    return {"algebra": "bpoly",
            "beta": [{"power": power, "terms": [{"index": [1], "coeff": "1"}]}]}


@pytest.mark.parametrize("power", [1.5, "2", True, -1, None])
def test_a_power_of_beta_is_a_nonnegative_int(power):
    with pytest.raises(DomainError):
        BetaPolynomial({power: b(1)})
    with pytest.raises(DomainError):
        from_document(_bpoly_document(power))


def test_a_power_of_beta_after_its_bool_twin_is_still_refused():
    doc = _bpoly_document(1)
    doc["beta"].append(_bpoly_document(True)["beta"][0])
    with pytest.raises(DomainError):
        from_document(doc)


@pytest.mark.parametrize("coeff", [z(1), e(1), Tensor.of(b(1)), BetaPolynomial({1: 1}),
                                   TruncatedSeries(BElement, {0: 1}, 2), "junk", "1"])
def test_a_beta_coefficient_of_another_kind_is_refused(coeff):
    with pytest.raises(AlgebraMismatchError):
        BetaPolynomial({1: coeff})


def test_beta_coefficients_lift_scalars_and_drop_zeros():
    assert BetaPolynomial({1: 3, 2: Fraction(1, 2), 3: 0, 4: b(1) - b(1)}) \
        == BetaPolynomial({1: BElement({(): 3}), 2: BElement({(): Fraction(1, 2)})})
    assert str(BetaPolynomial({0: 1, 2: b(2)})) == "1 + b[2]*beta^2"


def test_a_scalar_series_coefficient_goes_on_the_unit():
    s = TruncatedSeries(SymElement, {0: 2, 1: h(1), 2: Fraction(1, 2)}, 3)
    assert s.coefficient(0) == SymElement({(): 2})
    assert s.coefficient(1).basis == "h"
    with pytest.raises(AlgebraMismatchError):
        TruncatedSeries(SymElement, {1: z(1)}, 3)


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), out, err)
    return code, out.getvalue().rstrip("\n"), err.getvalue()


def test_compose_promotes_a_scalar_outer_series():
    assert _run("compose", "T^2", "Z[1]*T", "--cap", "4", "--text") \
        == (0, "Z[1,1]*T^2 (cap 4)", "")
    assert _run("compose", "T+T^2", "t[1]*T", "--cap", "3", "--text") \
        == (0, "t[1]*T + t[1,1]*T^2 (cap 3)", "")
    # the inner series is promoted as before, and foreign algebras still clash
    assert _run("compose", "Z[1]*T", "T+T^2", "--cap", "3", "--text") \
        == (0, "Z[1]*T + Z[1]*T^2 (cap 3)", "")
    code, _, err = _run("compose", "e[1]*T", "Z[1]*T", "--text")
    assert code == 1 and "mix" in err


# the definitions of these rules in class bodies, and why each one that is not
# in the base exists
RULES = {"__eq__", "__mul__", "__pow__", "_mul_into", "_lift", "one", "zero", "from_index",
         "basis_mul"}
DEFINED = {("SparseSum", name) for name in RULES - {"from_index", "basis_mul"}} | {
    # bound to the base product so bench/layers.py can time each on its own
    ("LinearElement", "__mul__"), ("Tensor", "__mul__"), ("SymElement", "__mul__"),
    ("LinearElement", "from_index"),  # a basis element from its index
    ("LinearElement", "basis_mul"),  # the one pair of key_mul, in a monomial algebra
    ("QSymElement", "basis_mul"),  # the quasi-shuffle product of compositions
    ("Tensor", "basis_mul"),  # slot by slot, where the factors' key_mul differ
    ("Polynomial", "_mul_into"),  # skips a pair outside the bound before multiplying
    ("SymElement", "_mul_into"),  # the m basis and mixed bases
    ("SymElement", "__eq__"),  # compares across bases
    ("TruncatedSeries", "__mul__"),  # truncates at the smaller cap
    ("TruncatedSeries", "__eq__"),  # tells caps apart
    # not a sparse sum: the coefficient algebra of a tensor series
    ("TensorSpace", "one"), ("TensorSpace", "zero"), ("TensorSpace", "__eq__"),
    # not a sparse sum: the coefficient algebra of a rational series
    ("Q", "one"), ("Q", "zero"),
}


def _rule_definitions():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        names = [item.name]
                    elif isinstance(item, ast.Assign):
                        names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                    else:
                        names = []
                    found.update((node.name, n) for n in names if n in RULES)
    return found


def test_products_powers_units_and_equality_live_in_the_base():
    assert _rule_definitions() == DEFINED
    assert LinearElement.__mul__ is SparseSum.__mul__
    assert Tensor.__mul__ is SparseSum.__mul__
    assert BetaPolynomial.__mul__ is SparseSum.__mul__
    assert Polynomial.__mul__ is SparseSum.__mul__


def _sparse_sum_inits():
    """``(class name, __init__ node)`` of every kind of sparse sum in the
    package, the kinds found by their bases."""
    classes = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    kinds, grown = {"SparseSum"}, True
    while grown:
        found = {name for name, node in classes.items()
                 if any(getattr(b, "id", None) in kinds for b in node.bases)}
        grown = not found <= kinds
        kinds |= found
    return [(name, item) for name in sorted(kinds) for item in classes[name].body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"]


def _own_term_loops(init):
    """The lines of ``init`` that loop over a dict's items or call ``add_term``."""
    lines = []
    for node in ast.walk(init):
        if isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if isinstance(it, ast.Call) and getattr(it.func, "attr", None) == "items":
                lines.append(it.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "add_term":
            lines.append(node.lineno)
    return sorted(lines)


def _calls_checked(init):
    return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "checked"
               for node in ast.walk(init))


def test_every_constructor_stores_its_terms_through_checked():
    inits = _sparse_sum_inits()
    assert {name: _own_term_loops(init) for name, init in inits} \
        == {name: [] for name, _ in inits}
    assert {name for name, init in inits if _calls_checked(init)} == {
        "LinearElement", "Tensor", "Polynomial", "BetaPolynomial", "TruncatedSeries"}


def test_the_guard_sees_a_constructor_storing_its_own_terms():
    init = ast.parse("def __init__(self, terms):\n"
                     "    data = {}\n"
                     "    for k, c in terms.items():\n"
                     "        data[k] = c\n"
                     "    self.terms = {k: c for k, c in terms.items() if c}\n"
                     "    add_term(data, (), 1)\n"
                     "    self.factors = tuple(f for f in data)\n").body[0]
    assert _own_term_loops(init) == [3, 5, 6]
    assert not _calls_checked(init)

"""One term printer for every sparse sum.

Elements, tensors, beta polynomials, truncated series and expanded
polynomials all print through ``linear.format_terms``, so the sign and
parenthesis rules live in one place.  The guard below keeps it that way; the
pins cover cases the rest of the suite does not print.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hopftower.linear import Tensor
from hopftower.nsym import NSymElement, z
from hopftower.sym import SymElement, e, format_polynomial
from hopftower.topology import BetaPolynomial, b

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
SIGNS = {" + ", " - "}


def _sign_sites(path):
    """(enclosing function name, line) of every ``" + "`` or ``" - "`` constant."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and node.value in SIGNS:
            sites.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return sites


def test_signs_are_printed_only_by_format_terms():
    found = {(path.name, func, line)
             for path in sorted(PACKAGE.rglob("*.py"))
             for func, line in _sign_sites(path)}
    assert found
    assert {site for site in found if site[:2] != ("linear.py", "format_terms")} == set()


def test_tensor_with_unit_slots_and_a_negative_fractional_lead():
    t = Tensor.of(SymElement.one(), e(1)).scale(Fraction(-1, 2))
    assert str(t) == "-1/2*1 (x) e[1]"
    assert str(t + Tensor.of(e(1), e(1))) == "-1/2*1 (x) e[1] + e[1] (x) e[1]"
    assert str(-Tensor.of(z(2), NSymElement.one())) == "-Z[2] (x) 1"
    assert repr(Tensor.of(SymElement.one(), SymElement.one()).scale(3)) == "3*1 (x) 1"


def test_beta_polynomial_with_multi_term_coefficients():
    poly = BetaPolynomial({0: -b(1) - 1, 1: b(1) + b(2).scale(3), 2: -b(1)})
    assert str(poly) == "(-1 - b[1]) + (b[1] + 3*b[2])*beta - b[1]*beta^2"


def test_format_polynomial_with_a_constant_and_a_negative_lead():
    assert format_polynomial({(0, 0): -3, (1, 1): -1}) == "-x1*x2 - 3"
    assert format_polynomial({(2, 0): Fraction(-1, 2), (0, 1): 1, (0, 0): 1}) \
        == "-1/2*x1^2 + x2 + 1"
    assert format_polynomial({(0, 0): Fraction(2, 3)}) == "2/3"
    assert format_polynomial({}) == "0"

"""Every coefficient algebra of a series answers one protocol.

``scalars.Q`` is the rationals as a series coefficient algebra, and
``scalars.coefficient_algebra`` is the one reader of the spelling ``Fraction``
for it.  A module that compares an algebra with ``Fraction`` (``algebra is
Fraction``) or passes ``Fraction`` as a series algebra
(``TruncatedSeries(Fraction, ...)``, ``map_coefficients(fn, Fraction)``)
restates a fact the protocol answers: the unit, the zero, the lift,
commutativity, or whether the values are numbers.  The check walks the
package with ``ast`` and names each such line outside ``scalars`` and
``structures``, which own the kinds.  A test of a value's type (``type(c) is
Fraction``, ``isinstance(c, (int, Fraction))``) is about a number, not an
algebra, and passes.  ``jsonio`` reaches the rationals, the beta polynomials
and the tensor spaces through ``scalars.Q`` and the ``structures.KINDS`` rows,
so it imports none of ``Fraction``, ``BetaPolynomial`` and ``TensorSpace``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
ALLOWED = {
    "scalars.py": "reads the spelling Fraction once, for Q",
    "structures.py": "the registry of the coefficient kinds",
}
KIND_CLASSES = {"Fraction", "BetaPolynomial", "TensorSpace"}
_EQUALITY = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _is_type_call(node):
    return isinstance(node, ast.Call) and _name(node.func) == "type"


def _names_fraction_as_algebra(node):
    """Whether ``node`` compares something other than a value's type with
    ``Fraction``, or passes ``Fraction`` as the algebra of a series."""
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return (any(isinstance(op, _EQUALITY) for op in node.ops)
                and any(_name(side) == "Fraction" for side in sides)
                and not any(map(_is_type_call, sides)))
    if isinstance(node, ast.Call):
        func = _name(node.func)
        position = {"TruncatedSeries": 0, "map_coefficients": 1}.get(func)
        return ((position is not None and len(node.args) > position
                 and _name(node.args[position]) == "Fraction")
                or any(k.arg == "algebra" and _name(k.value) == "Fraction"
                       for k in node.keywords))
    return False


def _fraction_algebras(package):
    """(file name, line) of each place ``package`` names ``Fraction`` as an algebra."""
    return {(path.name, node.lineno)
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if _names_fraction_as_algebra(node)}


def _imported_names(path):
    """Every name a module binds by ``import``, and each module it imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names |= {alias.name.rpartition(".")[2], alias.asname}
    return names - {None}


def test_only_the_owners_name_fraction_as_an_algebra():
    assert {(name, line) for name, line in _fraction_algebras(PACKAGE)
            if name not in ALLOWED} == set()


def test_the_guard_sees_each_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from fractions import Fraction\n"
        "def f(s, x):\n"
        "    a = s.algebra is Fraction\n"
        "    b = s.algebra is not Fraction\n"
        "    c = Fraction == s.algebra\n"
        "    d = TruncatedSeries(Fraction, {}, 2)\n"
        "    e = series.TruncatedSeries(fractions.Fraction)\n"
        "    g = s.map_coefficients(int, algebra=Fraction)\n"
        "    h = s.map_coefficients(int, Fraction)\n"
        "    k = type(x) is Fraction\n"
        "    m = isinstance(x, (int, Fraction))\n"
        "    n = TruncatedSeries(Q, {0: Fraction(1, 2)}, 2)\n"
        "    return a, b, c, d, e, g, h, k, m, n\n")
    assert _fraction_algebras(tmp_path) == {("mod.py", line) for line in range(3, 10)}


def test_jsonio_imports_no_kind_class():
    assert _imported_names(PACKAGE / "jsonio.py") & KIND_CLASSES == set()


def test_the_import_check_sees_each_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from fractions import Fraction\n"
                    "from .topology import BElement, BetaPolynomial\n"
                    "from .linear import Tensor as TensorSpace\n")
    assert _imported_names(path) & KIND_CLASSES == KIND_CLASSES

"""The refusal of an integer argument is written once, in ``indices.natural``.

A hand-written ``if type(n) is not int or n < 0: raise DomainError(...)`` is a
second copy of the rule, with its own wording and its own gaps: the copies
used to disagree on bools, floats and strings.  The check walks the package
with ``ast`` and names each function (qualified by its class) that raises
``DomainError`` and holds a ``type(x) is int``, ``type(x) is not int`` or
``isinstance(x, int)`` test.  The functions that keep their own test are
listed with the reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
ALLOWED = {
    ("indices.py", "natural"): "the one check",
    ("linear.py", "LinearElement.canonical_index"):
        "its per-part loop runs in every element constructor, a hot path",
    ("series.py", "TruncatedSeries._norm_key"): "an exponent is an int or a pair of ints",
    ("series.py", "TruncatedSeries.__init__"): "the number of variables is 1 or 2, a set",
    ("linear.py", "Polynomial._exponents"): "an exponent vector is checked as a whole key",
    ("topology.py", "ProjectiveProductSpace.__init__"): "root coefficients may be negative",
    ("jsonio.py", "_index"): "the type is checked before a repeated key merges",
}


def _is_int_test(node):
    """Whether ``node`` is ``type(x) is [not] int`` or ``isinstance(x, int)``."""
    def is_int(n):
        return isinstance(n, ast.Name) and n.id == "int"

    def is_type_call(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "type")

    if isinstance(node, ast.Compare):
        operands = [node.left] + node.comparators
        return (all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(map(is_int, operands)) and any(map(is_type_call, operands)))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and is_int(node.args[1]))


def _raises_domain_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "DomainError"


def _hand_written_checks(package):
    """(file name, qualified function name) of each function of ``package``
    that raises ``DomainError`` and tests for an ``int``."""
    out = set()

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    nodes = list(ast.walk(child))
                    if any(map(_is_int_test, nodes)) and any(map(_raises_domain_error, nodes)):
                        out.add((path.name, name))
                visit(child, name + ".", path)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "", path)
    return out


def test_only_natural_refuses_an_integer_argument():
    assert _hand_written_checks(PACKAGE) <= set(ALLOWED)


def test_the_guard_sees_each_form_of_the_hand_written_check(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _check_weight(n):\n"
        "    if not isinstance(n, int) or n < 0:\n"
        "        raise DomainError('weight')\n\n"
        "class Series:\n"
        "    def __init__(self, cap):\n"
        "        if type(cap) is not int or cap < 0:\n"
        "            raise errors.DomainError('cap')\n\n"
        "    def key(self, k):\n"
        "        if type(k) is int and k >= 0:\n"
        "            return k\n"
        "        raise DomainError('key')\n\n"
        "def parts(idx):\n"
        "    if any(type(p) is not int for p in idx):\n"
        "        raise DomainError('parts')\n\n"
        "def sort_key(k):\n"
        "    return k if type(k) is int else sum(k)\n\n"
        "def scalar(q):\n"
        "    if isinstance(q, float):\n"
        "        raise DomainError('float')\n\n"
        "def cap(n):\n"
        "    if type(n) is not int:\n"
        "        raise TypeError('cap')\n")
    assert _hand_written_checks(tmp_path) == {
        ("mod.py", "_check_weight"), ("mod.py", "Series.__init__"),
        ("mod.py", "Series.key"), ("mod.py", "parts")}

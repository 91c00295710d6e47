"""The refusal of an element of the wrong algebra is written once, in
``LinearElement.require``.

Every map out of an algebra calls ``require``; a hand-written ``if not
isinstance(f, <...>Element): raise AlgebraMismatchError(...)`` elsewhere is a
second copy of the rule, with its own wording and its own gaps.  The check
walks the package with ``ast`` and names each function (qualified by its
class) that raises ``AlgebraMismatchError`` under such a test, the negation
alone or inside a boolean combination.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
ALLOWED = {("linear.py", "LinearElement.require")}


def _names_an_element_class(node):
    return any(isinstance(n, ast.Name) and n.id.endswith("Element")
               or isinstance(n, ast.Attribute) and n.attr.endswith("Element")
               for n in ast.walk(node))


def _negates_an_element_check(test):
    """Whether the ``if`` test holds ``not isinstance(x, <...>Element)``."""
    return any(isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Not)
               and isinstance(n.operand, ast.Call)
               and isinstance(n.operand.func, ast.Name)
               and n.operand.func.id == "isinstance"
               and len(n.operand.args) == 2
               and _names_an_element_class(n.operand.args[1])
               for n in ast.walk(test))


def _raises_mismatch(statements):
    for stmt in statements:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Raise) and n.exc is not None:
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "AlgebraMismatchError":
                    return True
    return False


def _hand_written_checks(package):
    """(file name, qualified function name) of each function of ``package``
    that raises ``AlgebraMismatchError`` under ``if not isinstance(x, <...>Element)``."""
    out = set()

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(n, ast.If) and _negates_an_element_check(n.test)
                        and _raises_mismatch(n.body) for n in ast.walk(child)):
                    out.add((path.name, name))
                visit(child, name + ".", path)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "", path)
    return out


def test_only_require_refuses_a_wrong_element_class():
    assert _hand_written_checks(PACKAGE) <= ALLOWED


def test_the_guard_sees_each_form_of_the_hand_written_check(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def require(self, f):\n"
        "        if not isinstance(f, BoxElement):\n"
        "            raise AlgebraMismatchError('box')\n"
        "        return f\n\n"
        "def require_nsym(f, name):\n"
        "    if not isinstance(f, NSymElement):\n"
        "        raise AlgebraMismatchError(name)\n\n"
        "def pair(a, b):\n"
        "    if not isinstance(a, NSymElement) or not isinstance(b, qsym.QSymElement):\n"
        "        raise errors.AlgebraMismatchError('pair')\n\n"
        "def involution(f):\n"
        "    if not isinstance(f, SymElement):\n"
        "        raise DomainError('sym only')\n\n"
        "def cochain(x):\n"
        "    if not isinstance(x, Tensor):\n"
        "        raise AlgebraMismatchError('tensor')\n")
    assert _hand_written_checks(tmp_path) == {
        ("mod.py", "Box.require"), ("mod.py", "require_nsym"), ("mod.py", "pair")}

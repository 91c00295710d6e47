"""Trusted construction stays inside the ``_new`` builders.

Arithmetic adopts the dicts it builds through ``_new``, which makes the
object with ``object.__new__`` and skips the validating constructor.  Only
the ``_new`` methods of ``linear.py`` and ``sym.py`` may do that, so no other
code path can hand out an element that was never checked.  The one other
site is ``scalars._coprime``: it builds a scalar, not an element, and every
caller hands it a reduced pair (``tests/test_scalars.py`` pins its callers).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
ALLOWED_FILES = {"linear.py", "sym.py"}
SCALAR_SITE = ("scalars.py", "_coprime")


def _object_new_sites(path):
    """(enclosing function name, line) of every ``object.__new__`` in ``path``."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            sites.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return sites


def test_object_new_only_in_the_new_builders():
    found = {(path.name, func, line)
             for path in sorted(PACKAGE.rglob("*.py"))
             for func, line in _object_new_sites(path)}
    assert len(found) >= 2  # SparseSum._new and Tensor._new
    stray = {site for site in found
             if (site[0] not in ALLOWED_FILES or site[1] != "_new")
             and site[:2] != SCALAR_SITE}
    assert not stray

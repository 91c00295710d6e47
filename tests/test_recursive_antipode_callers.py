"""The connected-graded antipode recursion serves only where no closed form is
known, and as an oracle.

``linear.recursive_antipode`` reads S(x) off the coproduct of x, recursing on
the left slot: every image it builds is a product.  Each structure whose
antipode has a closed form counts it directly (sym, nsym and the Faa di Bruno
algebra on generators, QSym by Ehrenborg's coarsening formula), and the
recursion stays as the independent check of that closed form.  The check
walks the package with ``ast`` and names each function (qualified by its
class) that calls ``recursive_antipode``; only the renormalization
generators of ``diffeo`` and the oracles of ``verify`` and ``suites`` may.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
ALLOWED = {
    ("diffeo.py", "_bfk_antipode_gen"): "no closed form of the BFK antipode is known here",
    ("verify.py", "_fdb_chi_gen_oracle"): "the oracle of the Lagrange count of chi(t_n)",
    ("suites.py", "_recursive_qsym_antipode"): "the oracle of Ehrenborg's formula",
}


def _callers(package):
    """(file name, qualified function name) of each function of ``package``
    that calls ``recursive_antipode``, by name or as a module attribute;
    ``<module>`` for a call outside every function."""
    out = set()

    def visit(node, prefix, owner, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                visit(child, name + ".", owner if isinstance(child, ast.ClassDef) else name,
                      path)
                continue
            if (isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) == "recursive_antipode"):
                out.add((path.name, owner))
            visit(child, prefix, owner, path)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "", "<module>", path)
    return out


def test_only_the_bfk_generators_and_the_oracles_recurse():
    assert _callers(PACKAGE) <= set(ALLOWED)


def test_the_guard_sees_each_form_of_the_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .linear import recursive_antipode\n"
        "from . import linear\n\n"
        "class Algebra:\n"
        "    def antipode(self, x):\n"
        "        return linear.recursive_antipode(self.coproduct(x), self.antipode)\n\n"
        "@lru_cache(maxsize=None)\n"
        "def _antipode_basis(I):\n"
        "    return recursive_antipode(coproduct(M(*I)), _antipode_basis)\n\n"
        "def antipode(f):\n"
        "    return sum((_antipode_basis(I).scale(c) for I, c in f.terms.items()), M())\n\n"
        "TABLE = {'qsym': recursive_antipode(coproduct(M(1)), _antipode_basis)}\n")
    assert _callers(tmp_path) == {("mod.py", "Algebra.antipode"),
                                  ("mod.py", "_antipode_basis"), ("mod.py", "<module>")}

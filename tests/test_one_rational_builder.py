"""Every rational the package returns is made by ``scalars``.

``scalars`` owns the canonical form of a coefficient: ``rational`` is the one
normaliser and ``quotient`` the one division.  A ``Fraction(...)`` call in
another module is a second builder, and the ``Fraction`` it makes need not be
canonical (``Fraction(6, 1)`` where the ``int`` 6 is meant).  The check walks
the package with ``ast`` and names each module outside ``scalars`` that calls
``Fraction``.  The verify harness ``suites`` keeps its own calls: its oracles
check the package with ``Fraction``'s own arithmetic.  The ints 1 and 0 are
written as literals, with no alias in ``scalars``.
"""

import ast
from pathlib import Path

from hopftower import scalars

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
ALLOWED = {
    "scalars.py": "the one builder",
    "suites.py": "its oracles keep Fraction's own arithmetic",
}


def _is_fraction_call(node):
    """Whether ``node`` is ``Fraction(...)`` or ``<module>.Fraction(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return getattr(func, "id", getattr(func, "attr", None)) == "Fraction"


def _fraction_calls(package):
    """(file name, line) of each ``Fraction`` call in ``package``."""
    return {(path.name, node.lineno)
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if _is_fraction_call(node)}


def test_only_scalars_builds_a_fraction():
    assert {(name, line) for name, line in _fraction_calls(PACKAGE)
            if name not in ALLOWED} == set()


def test_the_guard_sees_each_form_of_the_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from fractions import Fraction\n"
        "import fractions\n"
        "half = Fraction(1, 2)\n"
        "third = fractions.Fraction(1, 3)\n"
        "def scalar(q):\n"
        "    return isinstance(q, Fraction) or q is Fraction\n"
        "kinds = (int, Fraction)\n")
    assert _fraction_calls(tmp_path) == {("mod.py", 3), ("mod.py", 4)}


def test_the_ints_one_and_zero_have_no_alias():
    assert not hasattr(scalars, "ONE") and not hasattr(scalars, "ZERO")

"""Each letter map that an algebroid reads is named by its registry row only.

The fast cobar and Chevalley-Eilenberg routes read the letter maps
``base_gen`` and ``hopf_gen`` off the ``structures`` rows an algebroid names,
so a map written down a second time elsewhere could drift from its row's
coproduct.  The check walks the package with ``ast`` and names each module
that names ``_fdb_coproduct_gen``, ``_bfk_coproduct_gen`` or
``_coaction_gen``, by import, as a bare name or as a module attribute; only
``diffeo``, which defines them, and ``structures``, whose rows carry them,
may.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"
LETTER_MAPS = {"_fdb_coproduct_gen", "_bfk_coproduct_gen", "_coaction_gen"}
ALLOWED = {"diffeo.py", "structures.py"}


def _namers(package):
    """(file name, line) of each place in ``package`` that names a letter map."""
    out = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", getattr(node, "attr", None))])
            if LETTER_MAPS.intersection(names):
                out.add((path.name, node.lineno))
    return out


def test_only_diffeo_and_the_registry_name_the_letter_maps():
    assert {name for name, _ in _namers(PACKAGE)} <= ALLOWED


def test_the_guard_sees_each_form_of_the_name(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .diffeo import _bfk_coproduct_gen, bfk_coproduct\n"
        "from . import diffeo\n\n"
        "def gens():\n"
        "    return diffeo._fdb_coproduct_gen, _bfk_coproduct_gen\n\n"
        "TABLE = {'coaction': _coaction_gen, 'other': bfk_coproduct}\n")
    assert _namers(tmp_path) == {("mod.py", 1), ("mod.py", 5), ("mod.py", 7)}

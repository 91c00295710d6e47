"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"


def _imported_top_level_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_stdlib_or_the_package_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = {(path.name, name)
               for path in modules
               for name in _imported_top_level_modules(path)
               if name != "hopftower" and name not in sys.stdlib_module_names}
    assert not foreign

"""Every module-level import of the package is used.

A name bound by an ``import`` at the top level of a module must be read
somewhere in that module, or be listed in its ``__all__`` (a re-export).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopftower"


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return {(path.name, name, line) for name, line in bound.items() if name not in used}


def test_every_module_level_import_is_used():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert set().union(*map(_unused_imports, modules)) == set()


def test_the_guard_sees_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("import os\nimport sys\nfrom json import dumps, loads\n"
                      "__all__ = ['loads']\nprint(sys.argv)\n")
    assert _unused_imports(module) == {("sample.py", "os", 1), ("sample.py", "dumps", 3)}

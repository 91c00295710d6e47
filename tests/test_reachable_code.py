"""Every function, method and class of the package is reached from outside
its own body in ``src``, ``demos`` or ``bench``.

Code that only the tests call is not part of the calculator, so the tests
should own it.  The check is by name: a definition counts as reached when
its name appears outside its own body as a ``Name``, an ``Attribute``, an
imported name or a string constant (``bench/layers.py`` names its entry
points by string, such as ``"matrix_rank"`` and ``"Tensor.apply"``).  A
dunder is reached through the protocol it implements and a ``suite_*``
function through ``suites.SUITES``, which reads ``globals()``; both are
skipped.

Matching by name misses a dead definition whose name is used elsewhere for
something else: ``LinearElement.weights`` went unflagged while
``bench/streams.py`` had a local variable ``weights``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopftower"
READERS = [ROOT / "src", ROOT / "demos", ROOT / "bench"]

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name one AST node refers to."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.alias):
        return (node.name.rpartition(".")[2],)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return tuple(node.value.split("."))
    return ()


def _unreached(package, readers):
    """(file name, definition name, line) of each definition of ``package``
    whose name no file under ``readers`` uses outside its body."""
    uses = {}  # name -> [(path, line)]
    definitions = []
    for path in sorted(p for root in readers for p in root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            for name in _names(node):
                uses.setdefault(name, []).append((path, node.lineno))
            if isinstance(node, _DEFINITIONS) and path.is_relative_to(package):
                definitions.append((path, node))
    out = set()
    for path, node in definitions:
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or name.startswith("suite_"):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if not any(p != path or not first <= line <= node.end_lineno
                   for p, line in uses.get(name, ())):
            out.add((path.name, name, node.lineno))
    return out


def test_every_definition_is_reached_outside_the_tests():
    assert _unreached(PACKAGE, READERS) == set()


def test_the_guard_sees_a_definition_only_its_own_body_reaches(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Box:\n    def named(self):\n        return 0\n"
        "    def dead(self):\n        return self.dead\n\n"
        "def __getattr__(name):\n    return used()\n\n"
        "def suite_found_by_globals():\n    return None\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "layers.py").write_text("ENTRY = ('Box.named', Box)\n")
    assert _unreached(package, [package, bench]) == {
        ("mod.py", "recursive", 4), ("mod.py", "dead", 10)}

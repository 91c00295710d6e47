"""Every memo of the package is an ``lru_cache`` on a module-level function.

The benchmark finds the caches it clears before a stream and reports after
it by walking module attributes (``find_caches`` in ``bench/layers.py``).  A
cache made inside a function, a closure or a class is invisible there: a run
would start warm from it, and its hit ratio would go unreported.  The bench
file is only read.
"""

import ast
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopftower"


def _hidden_caches(source):
    """Lines of ``source`` naming ``lru_cache`` outside the decorators of a
    module-level function."""
    tree = ast.parse(source)
    allowed = {id(node)
               for top in tree.body if isinstance(top, ast.FunctionDef)
               for dec in top.decorator_list for node in ast.walk(dec)}
    return [node.lineno for node in ast.walk(tree)
            if id(node) not in allowed
            and ((isinstance(node, ast.Name) and node.id == "lru_cache")
                 or (isinstance(node, ast.Attribute) and node.attr == "lru_cache"))]


def test_every_lru_cache_decorates_a_module_level_function():
    found = {path.name: _hidden_caches(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_a_cache_in_a_closure():
    source = ("from functools import lru_cache\n"
              "@lru_cache(maxsize=None)\n"
              "def shown(n):\n    return n\n"
              "def outer():\n"
              "    @lru_cache(maxsize=None)\n"
              "    def hidden(n):\n        return n\n"
              "    return hidden\n")
    assert _hidden_caches(source) == [6]


def test_the_word_image_memo_is_found_by_the_benchmark():
    importlib.import_module("hopftower.linear")
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert "linear.word_image" in layers.find_caches()


def test_the_walk_memos_are_found_by_the_benchmark():
    """A stream that asks ranks starts with cold walks only if the benchmark
    clears them."""
    importlib.import_module("hopftower.algebroid")
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert {"algebroid._cobar_walk", "algebroid._ce_walk"} <= set(layers.find_caches())


def test_the_conversion_memos_are_found_by_the_benchmark():
    """A stream that converts sym elements starts with a cold recursion out
    of m and cold letter maps only if the benchmark clears them."""
    importlib.import_module("hopftower.sym")
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert {"sym._m_image", "sym._basis_gen", "sym._antipode_e_gen"} <= set(layers.find_caches())

"""The benchmark's layer table names live objects of the package.

The traced benchmark run wraps every ``ENTRY_POINTS`` attribute of
``bench/layers.py`` and reports the hit ratio of every ``lru_cache`` that
``BENCHMARK.json`` lists as ``cache.<module>.<name>.hit_ratio``.  A metric
whose object is gone goes unmeasured, and the run then reports
``"correct": false``; these tests catch such a rename first.  Both files are
only read.
"""

import importlib
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves():
    for _, modname, attr, _, _ in _layers().ENTRY_POINTS:
        module = importlib.import_module("hopftower." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), "%s.%s" % (modname, attr)


def test_every_cache_metric_names_a_live_lru_cache():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"][len("cache."):-len(".hit_ratio")] for m in spec["per_layer"]
             if m["name"].startswith("cache.") and m["name"].endswith(".hit_ratio")]
    assert names
    for name in names:
        importlib.import_module("hopftower." + name.split(".")[0])
    caches = _layers().find_caches()
    for name in names:
        assert name in caches, name
        assert callable(caches[name].cache_info), name

"""Per-layer spans for the traced run, recorded from outside the package.

:class:`Tracer` wraps the public entry point of each layer listed in
``ENTRY_POINTS``.  A plain function is rebound at every place that holds
it: the defining module, every module that did ``from .x import name``, and
module-level objects, dicts and lists that keep a reference (the split
algebroids keep their coaction and coproduct, for example).  A method is
replaced on its class.  ``uninstall`` puts every original back.

While a request runs, each wrapped call records a span (name, start, end,
parent span, request id) into flat arrays.  Self time is a span's duration
minus its children's.  The lru_cache tables are found by walking module
attributes, so a cache added later is counted without editing this file.
"""

import json
import sys
import time
from array import array


def _cells(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return len(rows) * len(rows[0]) if rows else 0


def _pairs(args, kwargs, result):
    other = args[1] if len(args) > 1 else None
    return len(args[0].terms) * len(other.terms) if hasattr(other, "terms") else 0


def _apply_terms(args, kwargs, result):
    return len(args[0].terms)


def _matrix_cells(args, kwargs, result):
    dom, cod, _ = result
    return len(dom) * len(cod)


PACKAGE = "hopftower"

# (metric prefix, module, attribute, size counter, size function)
ENTRY_POINTS = [
    ("sym.convert", "sym", "convert", None, None),
    ("sym.expand", "sym", "expand", None, None),
    ("sym.mul", "sym", "SymElement.__mul__", None, None),
    ("sym.antipode", "sym", "antipode", None, None),
    ("sym.coproduct", "sym", "coproduct", None, None),
    ("exactlinalg.invert_matrix", "exactlinalg", "invert_matrix", "cells", _cells),
    ("exactlinalg.matrix_rank", "exactlinalg", "matrix_rank", "cells", _cells),
    ("linear.tensor_mul", "linear", "Tensor.__mul__", "term_pairs", _pairs),
    ("linear.tensor_apply", "linear", "Tensor.apply", "term_pairs", _apply_terms),
    ("linear.element_mul", "linear", "LinearElement.__mul__", "term_pairs", _pairs),
    ("nsym.coproduct", "nsym", "coproduct", None, None),
    ("nsym.antipode", "nsym", "antipode", None, None),
    ("qsym.coproduct", "qsym", "coproduct", None, None),
    ("qsym.antipode", "qsym", "antipode", None, None),
    ("diffeo.fdb_coproduct", "diffeo", "fdb_coproduct", None, None),
    ("diffeo.fdb_antipode", "diffeo", "fdb_antipode", None, None),
    ("diffeo.bfk_coproduct", "diffeo", "bfk_coproduct", None, None),
    ("diffeo.bfk_antipode", "diffeo", "bfk_antipode", None, None),
    ("diffeo.coaction_sym", "diffeo", "coaction_sym", None, None),
    ("series.mul", "series", "TruncatedSeries.__mul__", None, None),
    ("series.compose", "series", "TruncatedSeries.compose", None, None),
    ("series.revert", "series", "TruncatedSeries.revert", None, None),
    ("series.invert", "series", "TruncatedSeries.invert", None, None),
    ("topology.miscenko_log", "topology", "miscenko_log", None, None),
    ("topology.fgl", "topology", "fgl", None, None),
    ("topology.beta_series", "topology", "beta_series", None, None),
    ("topology.cp_infinity_coproduct", "topology", "cp_infinity_coproduct", None, None),
    ("algebroid.differential_matrix", "algebroid", "differential_matrix", "cells",
     _matrix_cells),
    ("algebroid.cohomology_rank", "algebroid", "cohomology_rank", None, None),
    ("algebroid.invariants_rank_oracle", "algebroid", "invariants_rank_oracle", None, None),
    ("expr.parse_element", "expr", "parse_element", None, None),
    ("expr.parse_series", "expr", "parse_series", None, None),
    ("jsonio.document_for", "jsonio", "document_for", None, None),
    ("jsonio.dumps", "jsonio", "dumps", None, None),
    ("jsonio.from_document", "jsonio", "from_document", None, None),
    ("cli.run_command", "cli", "run_command", None, None),
    ("cli.build_parser", "cli", "build_parser", None, None),
]


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def find_caches():
    """Every functools.lru_cache reachable as a module attribute, by name
    ``<module>.<qualname>``."""
    found = {}
    for mod in package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)) and hasattr(value, "cache_clear"):
                module = getattr(value, "__module__", mod.__name__).rsplit(".", 1)[-1]
                found.setdefault("%s.%s" % (module, value.__qualname__), value)
    return dict(sorted(found.items()))


def _holders(mod):
    """Module-level objects of the package, and those inside module-level
    dicts and lists, whose attributes may hold a copied function."""
    out = []
    for value in vars(mod).values():
        items = (value.values() if isinstance(value, dict)
                 else value if isinstance(value, list) else (value,))
        for v in items:
            if not isinstance(v, type) and type(v).__module__.startswith(PACKAGE):
                out.append(v)
    return out


class Tracer:
    """Spans and size counts for the wrapped entry points of one process."""

    def __init__(self):
        self.names = [name for name, *_ in ENTRY_POINTS]
        self.size_names = {i: "%s.%s" % (e[0], e[3])
                           for i, e in enumerate(ENTRY_POINTS) if e[3]}
        self.sizes = [0] * len(ENTRY_POINTS)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.stack = []
        self.active = False
        self.request = -1
        self._restore = []

    # -- installing -------------------------------------------------------

    def _wrap(self, nid, fn, size):
        tracer = self
        clock = time.perf_counter
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, requests, stack = self.span_parent, self.span_request, self.stack

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if size is not None:
                tracer.sizes[nid] += size(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value, original, setter=setattr):
        setter(owner, attr, value)
        self._restore.append((owner, attr, original, setter))

    def install(self):
        modules = package_modules()
        for nid, (_, modname, attr, _, size) in enumerate(ENTRY_POINTS):
            mod = sys.modules["%s.%s" % (PACKAGE, modname)]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(nid, original, size), original)
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(nid, original, size)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, name, wrapper, original)
                    elif isinstance(value, dict):
                        for key, v in list(value.items()):
                            if v is original:
                                self._set(value, key, wrapper, original, dict.__setitem__)
                    elif isinstance(value, list):
                        for i, v in enumerate(value):
                            if v is original:
                                self._set(value, i, wrapper, original, list.__setitem__)
                for holder in _holders(m):
                    for name in _attribute_names(holder):
                        if getattr(holder, name, None) is original:
                            self._set(holder, name, wrapper, original)

    def uninstall(self):
        while self._restore:
            owner, attr, original, setter = self._restore.pop()
            setter(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def layer_totals(self):
        """Per entry point: calls, self seconds, and root-span seconds per request."""
        n = len(self.span_name)
        child = [0.0] * n
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        root_s = {}
        for sid in range(n):
            dur = self.span_end[sid] - self.span_start[sid]
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += dur
            else:
                req = self.span_request[sid]
                root_s[req] = root_s.get(req, 0.0) + dur
        for sid in range(n):
            nid = self.span_name[sid]
            calls[nid] += 1
            self_s[nid] += self.span_end[sid] - self.span_start[sid] - child[sid]
        return calls, self_s, root_s

    def write_spans(self, path, header):
        doc = dict(header)
        doc["names"] = self.names
        doc["columns"] = ["name", "start", "end", "parent", "request"]
        doc["spans"] = [list(row) for row in zip(self.span_name, self.span_start,
                                                  self.span_end, self.span_parent,
                                                  self.span_request)]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _attribute_names(obj):
    names = []
    for cls in type(obj).__mro__:
        names.extend(getattr(cls, "__slots__", ()))
    names.extend(getattr(obj, "__dict__", {}))
    return names

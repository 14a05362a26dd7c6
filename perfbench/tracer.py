"""Spans around quandlekit's public functions, installed from outside the library.

install() replaces every public function and method of the eight layer
modules with a wrapper that records (parent, name, start, end, raised) in a
list kept in memory.  It patches each module binding of a wrapped function,
so a name imported with `from .perm import closure` is traced as well.
Perm.__init__ and Perm.__mul__ only bump counters: they run millions of
times and a span each would swamp what it measures.  summarize() turns the
span list into per-layer counts and self times once the run is over.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("perm", "quandle", "fingroup", "envgroup", "cocycle", "construct", "theorems", "cli")

# Span names that group several functions or shorten a long one.
RENAMED = {
    "perm.PermGroup.from_elements": "perm.from_elements",
    "quandle.Quandle.from_table": "quandle.from_table",
    "quandle.find_isomorphism": "quandle.iso",
    "quandle.is_isomorphic": "quandle.iso",
    "quandle.enumerate_quandles": "quandle.enumerate",
    "envgroup.smith_normal_form": "envgroup.snf",
    "cocycle.validate_constant": "cocycle.validate",
    "cocycle.validate_abelian": "cocycle.validate",
    "cocycle.all_constant_cocycles": "cocycle.search",
    "cocycle.constant_cocycle_classes": "cocycle.search",
    "cocycle.cocycle_stabilizer": "cocycle.search",
}

# Per-element accessors called inside the hot loops; a span each would
# measure the tracer, not the layer.
UNTRACED = {
    "quandle.Quandle.op", "fingroup.FiniteGroup.mul", "fingroup.FiniteGroup.inv",
    "fingroup.power", "envgroup.evaluate_word",
}


class Tracer:
    """Holds the spans and counters of one traced process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"perm.new.count": 0, "perm.mul.count": 0, "envgroup.snf.entries": 0,
                       "cocycle.are_cohomologous.found": 0}
        self._counted_errors = {}
        self._undo = []

    def wrap(self, fn, name):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[sid] = (parent, name, start, clock(), self._first_raise(exc, layer))
                stack.pop()
                raise
            spans[sid] = (parent, name, start, clock(), 0)
            stack.pop()
            if name == "envgroup.snf" and args and args[0]:
                counts["envgroup.snf.entries"] += len(args[0]) * len(args[0][0])
            elif name == "cocycle.are_cohomologous" and result is not None:
                counts["cocycle.are_cohomologous.found"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _first_raise(self, exc, layer):
        """1 the first time an exception leaves a span of this layer, else 0."""
        layers = self._counted_errors.setdefault(id(exc), (exc, set()))[1]
        if layer in layers:
            return 0
        layers.add(layer)
        return 1

    def install(self):
        modules = {layer: importlib.import_module(f"quandlekit.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in UNTRACED:
                        replaced[obj] = self.wrap(obj, RENAMED.get(name, name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        self._count_perm(modules["perm"].Perm)
        for module in [sys.modules["quandlekit"]] + list(modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(module, attr, replaced[obj])
                elif isinstance(obj, dict):
                    self._rebind_methods(obj)

    def uninstall(self):
        """Put back every binding install() replaced."""
        while self._undo:
            restore = self._undo.pop()
            restore()

    def _set(self, owner, attr, value):
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _rebind_methods(self, table):
        """Point stored bound classmethods, such as file readers, at their wrappers."""
        for key, value in list(table.items()):
            if inspect.ismethod(value) and inspect.isclass(value.__self__):
                current = getattr(value.__self__, value.__name__)
                if current.__func__ is not value.__func__:
                    table[key] = current
                    self._undo.append(lambda key=key, value=value: table.__setitem__(key, value))

    def _wrap_class(self, layer, cls):
        if cls.__name__ == "Perm":
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNTRACED:
                continue
            span = RENAMED.get(name, name)
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(raw.__func__, span)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(raw.__func__, span)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(raw, span))

    def _count_perm(self, perm_cls):
        counts = self.counts
        init, mul = perm_cls.__init__, perm_cls.__mul__

        def counted_init(p, images):
            counts["perm.new.count"] += 1
            init(p, images)

        def counted_mul(p, other):
            counts["perm.mul.count"] += 1
            return mul(p, other)

        self._set(perm_cls, "__init__", counted_init)
        self._set(perm_cls, "__mul__", counted_mul)

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for parent, _name, start, end, _err in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_p, _n, start, end, _e) in enumerate(spans)]


def summarize(dump):
    """Per-layer metrics from one traced process's spans and counters."""
    spans, counts = dump["spans"], dump["counts"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
        out[f"{layer}.calls"] = 0
    per_name = {}
    for (_parent, name, _start, _end, err), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own
        out[f"{layer}.errors"] += err
        out[f"{layer}.calls"] += 1
        calls, total = per_name.get(name, (0, 0.0))
        per_name[name] = (calls + 1, total + own)
    for name, (calls, total) in per_name.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = total
    out.update(counts)
    searches = out.get("cocycle.are_cohomologous.calls", 0)
    found = counts["cocycle.are_cohomologous.found"]
    out["cocycle.are_cohomologous.found_ratio"] = found / searches if searches else 0.0
    out["trace.spans"] = len(spans)
    return out

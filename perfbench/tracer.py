"""Span tracer that wraps the public functions of the dampol layers.

Every public function of a layer module, and every public method,
property and operator of the classes it defines, is replaced by a timing
wrapper at every place in the package where it is bound: module globals
(so `from .x import f` bindings are covered) and module-level dicts such as
stage tables.  Each call opens a span whose parent is the span on top of the
stack; a span's self time is its duration minus the durations of its
children, and is charged to the layer that defines the function.

Spans are aggregated as they close, per function, so memory stays flat no
matter how many calls a run makes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from functools import cached_property

#: the package modules whose functions are traced, in pipeline order; `cli`
#: is the driver and carries whatever the other layers do not claim
LAYERS = ("lattice", "coupling", "susceptibility", "green", "diagonalize",
          "fields", "bath", "oracle", "reports", "cli")

_perf_ns = time.perf_counter_ns


class FunctionStats:
    __slots__ = ("calls", "inclusive_ns", "self_ns", "active")

    def __init__(self):
        self.calls = 0
        self.inclusive_ns = 0
        self.self_ns = 0
        self.active = 0


class Tracer:
    """Owns the span stack and the per-function aggregates."""

    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        self.layer_of: dict[str, str] = {}
        # each frame is [start_ns, child_ns]
        self._stack: list[list[int]] = []
        self._observers: dict[str, list] = {}

    def observe(self, qualname: str, callback):
        """Call `callback(result)` each time the named function returns."""
        self._observers.setdefault(qualname, []).append(callback)

    def wrap(self, layer: str, qualname: str, fn):
        stats = self.stats.setdefault(qualname, FunctionStats())
        self.layer_of[qualname] = layer
        stack = self._stack
        observers = self._observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            stats.active += 1
            frame[0] = start = _perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _perf_ns() - start
                stack.pop()
                stats.active -= 1
                stats.calls += 1
                stats.self_ns += duration - frame[1]
                if not stats.active:    # recursion counts once, inclusively
                    stats.inclusive_ns += duration
                if stack:
                    stack[-1][1] += duration
            for callback in observers.get(qualname, ()):
                callback(result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, package: str = "dampol"):
        """Wrap every traced callable of the package's layer modules."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == package or name.startswith(package + "."))}
        replacements = {}
        for layer in LAYERS:
            mod = modules.get(f"{package}.{layer}")
            if mod is None:
                raise RuntimeError(f"layer module {package}.{layer} is not imported")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self.wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, mod.__file__)
        # rebind wrapped functions wherever the package holds them
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    setattr(mod, name, replacements[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replacements:
                            obj[key] = replacements[id(value)]

    def _wrap_class(self, layer: str, cls, source_file: str):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                fn = attr.__func__
                if _defined_in(fn, source_file):
                    setattr(cls, name, type(attr)(self.wrap(layer, qual, fn)))
            elif isinstance(attr, cached_property):
                if _defined_in(attr.func, source_file):
                    new = cached_property(self.wrap(layer, qual, attr.func))
                    new.__set_name__(cls, name)
                    setattr(cls, name, new)
            elif isinstance(attr, property):
                if attr.fget is not None and _defined_in(attr.fget, source_file):
                    setattr(cls, name, attr.getter(self.wrap(layer, qual, attr.fget)))
            elif inspect.isfunction(attr) and _defined_in(attr, source_file):
                setattr(cls, name, self.wrap(layer, qual, attr))

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time and call count, and per-function aggregates."""
        layers = {layer: {"self_ns": 0, "calls": 0} for layer in LAYERS}
        functions = {}
        for qual, st in self.stats.items():
            if not st.calls:
                continue
            layer = layers[self.layer_of[qual]]
            layer["self_ns"] += st.self_ns
            layer["calls"] += st.calls
            functions[qual] = {"calls": st.calls, "inclusive_ns": st.inclusive_ns,
                               "self_ns": st.self_ns}
        return {"layers": layers, "functions": functions}


def _defined_in(fn, source_file: str) -> bool:
    """True for functions written in the module's source; dataclass-generated
    methods (`__init__`, `__eq__`, ...) are compiled from strings and skipped."""
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == source_file

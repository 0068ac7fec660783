"""Boundary tracer for the ssknoma package, installed from outside it.

Every module of the package is a layer. While a ``Tracer`` is installed, each
name in a module's namespace that refers to a function of another package
module, or to another package module itself, is replaced by a wrapper (or a
module view whose functions are wrapped). Each call that crosses a module
boundary therefore records one span; a call that stays inside a module goes
through the module's own globals and is never wrapped, so hot inner loops
such as the per-pair error probabilities pay nothing.

Spans are kept in memory as ``[layer, function, start_ns, end_ns, parent,
values]`` lists. A span's self time is its duration minus the durations of
its direct children, so the self times of all spans under one root add up to
the root's duration exactly (integer nanoseconds).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from types import ModuleType

import numpy as np

PACKAGE = "ssknoma"
ROOT_LAYER = "bench"


def package_modules() -> dict:
    """Import and return every plain module of the package, keyed by layer
    name (the module name without the package prefix)."""
    pkg = importlib.import_module(PACKAGE)
    mods = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        if not info.ispkg:
            mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return mods


def _layer_of(obj) -> str | None:
    name = getattr(obj, "__module__", None) if inspect.isfunction(obj) else None
    if isinstance(obj, ModuleType):
        name = obj.__name__
    if name and name.startswith(PACKAGE + "."):
        return name[len(PACKAGE) + 1:]
    return None


class _ModuleView:
    """Stands in for a package module inside another module's namespace:
    attribute reads return traced wrappers for the module's functions and the
    plain attribute for everything else (classes, constants)."""

    def __init__(self, module: ModuleType, tracer: "Tracer"):
        self._module = module
        self._tracer = tracer
        self._layer = _layer_of(module)

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if inspect.isfunction(value) and _layer_of(value) == self._layer:
            value = self._tracer.wrap(self._layer, name, value)
            setattr(self, name, value)
        return value


class Tracer:
    """Collects spans for calls that cross module boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def wrap(self, layer: str, name: str, fn):
        """``fn`` recording one span per call; the span's last field counts
        the elements of an array result."""

        def traced(*args, **kwargs):
            with self.span(layer, name) as span:
                result = fn(*args, **kwargs)
                if isinstance(result, np.ndarray):
                    span[5] = result.size
                return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """Record one span around the block."""
        span = [layer, name, time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()

    def install(self, modules: dict) -> None:
        """Patch every cross-module reference in ``modules`` (layer -> module)."""
        for caller_layer, module in modules.items():
            for name, value in list(vars(module).items()):
                target = _layer_of(value)
                if target is None or target == caller_layer:
                    continue
                if isinstance(value, ModuleType):
                    replacement = _ModuleView(value, self)
                else:
                    replacement = self.wrap(target, value.__name__, value)
                self._patched.append((module, name, value))
                setattr(module, name, replacement)

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines (called once, after timing)."""
        with open(path, "w") as fh:
            for layer, name, start, end, parent, values in self.spans:
                fh.write(json.dumps({"layer": layer, "fn": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "values": values}) + "\n")


def summarize(spans) -> dict:
    """Aggregate spans into per-layer and per-function totals.

    Returns ``{"layers": {layer: {"self_ns", "calls"}},
    "functions": {"layer.fn": {"busy_ns", "calls", "values"}}}``. Calls and
    busy time count only the boundary crossings that were traced.
    """
    child_ns = [0] * len(spans)
    for layer, name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    layers = defaultdict(lambda: {"self_ns": 0, "calls": 0})
    functions = defaultdict(lambda: {"busy_ns": 0, "calls": 0, "values": 0})
    for i, (layer, name, start, end, parent, values) in enumerate(spans):
        layers[layer]["self_ns"] += end - start - child_ns[i]
        layers[layer]["calls"] += 1
        fn = functions[f"{layer}.{name}"]
        fn["busy_ns"] += end - start
        fn["calls"] += 1
        fn["values"] += values
    return {"layers": dict(layers), "functions": dict(functions)}

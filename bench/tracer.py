"""Span tracer for the ietpwi layers, installed from the benchmark's side.

Every public function of each layer module is replaced, in every ``ietpwi``
namespace that binds it (re-exports in ``ietpwi/__init__``, ``from .x
import y`` bindings in sibling modules), by a wrapper that records one span:
name, parent span, start and end.  ``numpy.linalg.qr`` is wrapped as the
``spectral`` module sees it, through a view of numpy installed as
``spectral.np``.  Nothing inside the library changes; ``uninstall`` puts
every original binding back.

Spans stay in memory; ``summarize`` turns them into per-function self
times and call counts.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("catalog", "iet", "rauzy", "breaking", "spectral", "pwi", "verify", "cli")

OP_SPAN = "bench.op"  # span the benchmark opens around one operation

# Observer signature: (counts, result) -> None, run after a wrapped call returns.
Observer = Callable[[dict, object], None]


def public_functions(module: types.ModuleType) -> dict[str, Callable]:
    """Functions (plain or ``lru_cache``d) defined by ``module`` itself."""
    found = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            found[attr] = obj
    return found


class _ModuleView(types.ModuleType):
    """Stand-in for a module that overrides some attributes and forwards the rest."""

    def __init__(self, target: types.ModuleType, **overrides) -> None:
        super().__init__(target.__name__)
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._target, name)


class Tracer:
    """Records nested spans around the wrapped library calls."""

    def __init__(self, observers: Optional[dict[str, Observer]] = None) -> None:
        self.observers = observers or {}
        self.spans: list[list] = []        # [name, parent index, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][3] = time.perf_counter()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(index)
        observe = self.observers.get(name)
        if observe is not None:
            observe(self.counts, result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function in every namespace binding it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"ietpwi.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "ietpwi" or n.startswith("ietpwi."))]
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._rebind(namespace, attr, entry[1])
        spectral = modules["spectral"]
        numpy = spectral.np
        linalg = _ModuleView(numpy.linalg, qr=self._wrap("spectral.qr", numpy.linalg.qr))
        self._rebind(spectral, "np", _ModuleView(numpy, linalg=linalg))

    def _rebind(self, namespace: types.ModuleType, attr: str, value: object) -> None:
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def summarize(spans: list[list]) -> dict[str, list]:
    """``name -> [self seconds, calls]`` over the recorded spans."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for (name, parent, start, end), covered in zip(spans, child):
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += (end - start) - covered
        entry[1] += 1
    return out


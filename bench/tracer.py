"""Outside-in span tracer for arcwa's modules.

``Tracer.install`` wraps every public function defined in a layer module
and rebinds each arcwa module attribute that refers to one of them. The
rebinding matters: ``condition_number`` is imported by name into ``modal``
and ``cascade``, so wrapping only ``numerics.condition_number`` would miss
the guards those modules call. Spans stay in memory as
(name, start, end, parent index, key) tuples; ``summarize`` turns the
spans of one pass into call counts and self times, where a span's self
time is its duration minus the durations of its direct children.

The program is single-threaded, so one span stack is enough.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Modules on the solve path. ``checks`` and ``errors`` are off the hot
# path and are not traced.
LAYERS = ("geometry", "operators", "modal", "numerics", "sections", "cascade", "solver", "harness", "cli")


def _assembly_z(args, kwargs):
    """Key of an operator assembly: the z of the slice it assembles."""
    slc = args[0] if args else kwargs.get("slc")
    return getattr(slc, "z", None)


# Functions whose spans also record a key from their arguments.
_KEYS = {"operators.assemble_operators": _assembly_z}


class Tracer:
    """Records a span for each call of a wrapped arcwa function."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, key_of = self.spans, self._stack, _KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                key = key_of(args, kwargs) if key_of else None
                spans[index] = (name, start, end, parent, key)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, at every binding."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"arcwa.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "arcwa" and not mod_name.startswith("arcwa."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> list:
        """Return the recorded spans and start a fresh recording."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list) -> dict:
    """Calls and self time per function, and distinct assembly keys.

    Returns ``{"calls": {name: n}, "self_s": {name: s}, "distinct_keys":
    {name: n}}``. Keys are counted per top-level span (one solve or one
    CLI call), so a z assembled once in each of two solves counts twice.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    child_s = [0.0] * len(spans)
    root = [0] * len(spans)
    keys: dict[str, set] = defaultdict(set)
    for i, (name, start, end, parent, key) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_s[parent] += end - start
        if key is not None:
            keys[name].add((root[i], key))
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_s[i]
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "distinct_keys": {name: len(k) for name, k in keys.items()},
    }

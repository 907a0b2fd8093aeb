"""Per-layer tracing of soundprop from outside the package.

``Tracer.install`` wraps every public function of the soundprop modules
and every public method of the classes they define, and rebinds each
module-level reference to a wrapped function (``from .scene import
line_of_sight`` makes such copies). Nothing in ``src/`` changes.

Spans are aggregated in memory as they close, because the sampling layer
alone opens hundreds of thousands of them per round: per name, the call
count and the inclusive time. Hooks attached to a name see each call's
arguments before it runs and its result after, which is how counters are
taken where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = (
    "scene", "oracle", "irparams", "latentfield", "decoders",
    "training", "evalkit", "runtime", "fileio", "cli",
)


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive s]
        self.counters = {}  # free-form counts set by hooks
        self._before = {}
        self._after = {}
        self._patches = []

    # -- hooks ------------------------------------------------------------

    def before(self, name, fn):
        self._before.setdefault(name, []).append(fn)

    def after(self, name, fn):
        self._after.setdefault(name, []).append(fn)

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def calls(self, name) -> int:
        return self.stats.get(name, [0])[0]

    def take(self):
        """Return copies of the spans and counters recorded so far, and
        start again from zero; hooks and patches stay."""
        totals = {k: list(v) for k, v in self.stats.items()}, dict(self.counters)
        self.stats.clear()
        self.counters.clear()
        return totals

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        stats, before, after = self.stats, self._before, self._after
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for hook in before.get(name, ()):
                hook(*args, **kwargs)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0]
                st[0] += 1
                st[1] += dt
            for hook in after.get(name, ()):
                hook(result, *args, **kwargs)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("soundprop")
        modules = [importlib.import_module(f"soundprop.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        for mod in (package, *modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

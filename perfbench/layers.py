"""Layer spans recorded from outside the package.

``Tracer.install`` wraps every public function of each stickprob module
(its ``__all__``) and rebinds the wrapper under every name the package
holds for it, so calls between modules are timed too.  Spans are kept as
running totals in memory: each layer's self time is the time inside its
spans minus the time inside the spans they caused.  Nothing in
``src/stickprob`` changes; spans inside the program are a separate job.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("sequences", "constraints", "closedform", "montecarlo", "oracle", "verify", "cli")


class Tracer:
    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._stack: list[list[float]] = []
        self._thread = threading.get_ident()

    def _enter(self) -> float:
        self._stack.append([0.0])
        return time.perf_counter()

    def _exit(self, layer: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        frame = self._stack.pop()
        self.self_s[layer] += dt - frame[0]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][0] += dt

    def _run(self, layer: str, fn, args, kwargs):
        # worker threads run untraced: the span stack belongs to one thread
        if threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        t0 = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(layer, t0)

    @contextmanager
    def span(self, layer: str):
        """A span around code the benchmark itself calls into ``layer``."""
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(layer, t0)

    def wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(layer, fn, args, kwargs)

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"stickprob.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if inspect.isgeneratorfunction(obj):
                    continue  # its frames run inside the caller's span
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    wrapped[id(obj)] = self.wrap(obj, layer)
        for name, mod in list(sys.modules.items()):
            if name == "stickprob" or name.startswith("stickprob."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrapped:
                        setattr(mod, attr, wrapped[id(value)])
        exact_prob = modules["closedform"].ExactProb
        exact_prob.decimal = self.wrap(exact_prob.decimal, "closedform")

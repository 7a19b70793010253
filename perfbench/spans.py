"""Spans around spinsep's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of each traced module with
a wrapper, in every spinsep module that holds a reference to it, so calls
between modules and calls within one module are both seen.  Each call
records a span (id, name, start, end, parent); a layer's self time is the
duration of its spans minus the time their child spans cover.  Memory is
measured with ``tracemalloc``: a layer's peak is the largest rise of traced
memory above its level at span entry, over all of the layer's spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = (
    "scenario",
    "runner",
    "states",
    "embedding",
    "symmetry",
    "reduction",
    "entanglement",
    "algebra",
    "lift",
    "linalg",
)

MB = 1e6
COMPLEX_BYTES = np.dtype(complex).itemsize


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _state_bytes(args, kwargs, result) -> float:
    return math.prod(np.shape(_arg(args, kwargs, 0, "rho"))) * COMPLEX_BYTES


def _result_bytes(args, kwargs, result) -> float:
    return math.prod(result.shape) * result.itemsize


def _commutator_pairs(args, kwargs, result) -> float:
    return _arg(args, kwargs, 2, "spin_dim") ** 4


# (module, function) -> (per-layer counter, function of the call's size)
COUNTERS = {
    ("reduction", "reduced_spin_probe"): ("reduction.input_mb", _state_bytes),
    ("reduction", "trace_out_spatial"): ("reduction.input_mb", _state_bytes),
    ("symmetry", "symmetrizer"): ("symmetry.dense_mb", _result_bytes),
    ("symmetry", "perm_unitary"): ("symmetry.dense_mb", _result_bytes),
    ("algebra", "bipartition_check"): ("algebra.pairs", _commutator_pairs),
}
# per-layer counter -> (scale, unit)
COUNTER_UNITS = {
    "reduction.input_mb": (1 / MB, "MB"),
    "symmetry.dense_mb": (1 / MB, "MB"),
    "algebra.pairs": (1, "count"),
}


class _Frame:
    __slots__ = ("start_mem", "floor", "child_s")

    def __init__(self, start_mem: int):
        self.start_mem = start_mem
        self.floor = start_mem
        self.child_s = 0.0


class Tracer:
    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, _Frame]] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "spinsep"]
        for layer in LAYERS:
            mod = sys.modules[f"spinsep.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(layer, f"{layer}.{name}", fn, COUNTERS.get((layer, name)))
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapped)
                            self._patched.append((holder, attr, fn))
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def _wrap(self, layer, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, name, fn, counter, args, kwargs)

        return traced

    # ------------------------------------------------------------ spans

    def _call(self, layer, name, fn, counter, args, kwargs):
        current, peak = tracemalloc.get_traced_memory()
        parent_id, parent = self._stack[-1] if self._stack else (None, None)
        if parent is not None:
            parent.floor = max(parent.floor, peak)
        tracemalloc.reset_peak()
        span_id = self._next_id
        self._next_id += 1
        frame = _Frame(current)
        self._stack.append((span_id, frame))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            peak = max(tracemalloc.get_traced_memory()[1], frame.floor)
            duration = end - start
            self.calls[layer] += 1
            self.self_s[layer] += duration - frame.child_s
            self.peak_bytes[layer] = max(self.peak_bytes[layer], peak - frame.start_mem)
            if parent is not None:
                parent.child_s += duration
                parent.floor = max(parent.floor, peak)
            if len(self.spans) < self.span_cap:
                self.spans.append((span_id, name, start, end, parent_id))
            else:
                self.dropped += 1
        if counter is not None:
            key, size = counter
            self.counters[key] += size(args, kwargs, result)
        return result

    # ------------------------------------------------------------ results

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts, self time and byte totals are per
        round, peaks are over the whole traced phase."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / rounds, "count")
            out[f"{layer}.self_s"] = (self.self_s[layer] / rounds, "s")
            out[f"{layer}.peak_mb"] = (self.peak_bytes[layer] / MB, "MB")
        for key, (scale, unit) in COUNTER_UNITS.items():
            out[key] = (self.counters[key] * scale / rounds, unit)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, n, s, e, p in self.spans
        ]

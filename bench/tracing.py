"""Spans and call counts around conetube's layers, recorded from outside.

`Tracer.install` replaces every public function of conetube.algebra,
spectral, tube, fields, serialize and cli, plus numpy.linalg.svd and
numpy.einsum, with a wrapper that records one span per call: name, start,
end, parent span and operation id. References made by `from ... import`
and the package's re-exports are rebound too, so calls between modules are
seen. Spans stay in memory and are written out by `save`.

Per-layer metrics are `<layer>.<function>.calls` (exact count),
`<layer>.<function>.s` (inclusive time) and `<layer>.self.s` (time in the
layer's spans minus the time of their child spans). Private helpers are not
wrapped: their time is self time of the public function that called them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

MODULES = ("algebra", "spectral", "tube", "fields", "serialize", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_op = -1  # -1 marks setup
        self.enabled = True

    def _wrap(self, label, fn):
        nid = len(self.names)
        self.names.append(label)
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        wrapped = {}
        for short in MODULES:
            module = importlib.import_module(f"conetube.{short}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != "conetube" and not name.startswith("conetube."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        np.linalg.svd = self._wrap("linalg.svd", np.linalg.svd)
        np.einsum = self._wrap("numpy.einsum", np.einsum)

    def _arrays(self):
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        name = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        op = np.frombuffer(self.op, dtype=np.int32, count=n)
        return name, start, end, parent, op

    def metrics(self) -> dict[str, float]:
        """Calls, inclusive seconds per function and self seconds per layer."""
        name, start, end, parent, _ = self._arrays()
        dur = (end - start).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        out: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        for i, label in enumerate(self.names):
            out[f"{label}.calls"] = int(calls[i])
            out[f"{label}.s"] = inclusive[i] / 1e9
            layer = label.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own[i] / 1e9
        out.update({f"{layer}.self.s": v for layer, v in layer_self.items()})
        return out

    def save(self, path) -> None:
        name, start, end, parent, op = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, start_ns=start,
                 end_ns=end, parent=parent, op=op)

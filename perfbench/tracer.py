"""Span tracer installed from the benchmark's side, around wittforge's layers.

``Tracer.install`` replaces every function and method defined in each
layer module (fields, laurent, qform, arithq, algebras, tori, dsl, cli)
by a wrapper, in every wittforge namespace that holds a reference to it,
so calls between modules are seen too.  A wrapper always counts its call.
When the caller is in another layer, the call is a layer boundary and the
wrapper also records a span: (name, start, end, parent span, operation
id), kept in flat arrays in memory and written out at the end.  Calls
inside one layer record no span; their time stays in the enclosing span
of the same layer, so a layer's self time is the same either way.

Each operation runs inside a root span of layer ``bench``; its self time
is the benchmark's own time, so the layers' self times plus it add up to
the traced operations' time.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("fields", "laurent", "qform", "arithq", "algebras", "tori", "dsl", "cli")
BENCH = "bench"

# Operator methods worth a name of their own; other dunders (hash, eq,
# repr) are charged to their caller.
_OPERATORS = {
    "__init__": "new",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
}

# Counters the benchmark reports by name, besides the per-layer totals.
HOT = (
    "fields.sq_mul",
    "fields.SquareClass.new",
    "laurent.LaurentPoly.mul",
    "qform.DiagonalForm.new",
    "qform.is_isotropic",
    "qform.is_isometric",
    "arithq.hilbert_symbol",
    "algebras.AlgebraElement.mul",
    "cli.build_parser",
)

CACHED_LAYERS = ("fields", "qform", "tori")


class Tracer:
    def __init__(self):
        self.names: list[str] = [BENCH + ".op"]
        self.layer_of: list[int] = [0]  # index into (BENCH,) + LAYERS
        self.counts = array("q", [0])
        self.sp_name = array("H")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._layers = [-1]
        self._spans = [-1]
        self._op = [-1]
        self.caches: dict[str, list] = {layer: [] for layer in CACHED_LAYERS}

    # -- installation ----------------------------------------------------------

    def _name_id(self, name: str, layer_id: int) -> int:
        self.names.append(name)
        self.layer_of.append(layer_id)
        self.counts.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name_id: int, layer_id: int):
        counts, layers, spans, op = self.counts, self._layers, self._spans, self._op
        sp_name, sp_parent, sp_op = self.sp_name, self.sp_parent, self.sp_op
        sp_start, sp_end = self.sp_start, self.sp_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[name_id] += 1
            if layers[-1] == layer_id:
                return fn(*args, **kwargs)
            idx = len(sp_end)
            sp_name.append(name_id)
            sp_parent.append(spans[-1])
            sp_op.append(op[0])
            sp_end.append(0.0)
            layers.append(layer_id)
            spans.append(idx)
            sp_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                sp_end[idx] = clock()
                layers.pop()
                spans.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the layers of an imported wittforge package in place."""
        layer_modules = [
            importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        ]
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        }
        by_id: dict[int, object] = {}
        for layer_id, (layer, mod) in enumerate(zip(LAYERS, layer_modules), start=1):
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if hasattr(obj, "cache_info") and layer in self.caches:
                    info = obj.cache_info()
                    self.caches[layer].append((obj, info.hits, info.misses))
                if inspect.isclass(obj):
                    self._install_class(obj, layer, layer_id, by_id)
                elif callable(obj) and id(obj) not in by_id:
                    nid = self._name_id(f"{layer}.{attr}", layer_id)
                    by_id[id(obj)] = self._wrap(obj, nid, layer_id)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _install_class(self, cls, layer: str, layer_id: int, by_id) -> None:
        if issubclass(cls, BaseException):
            return
        done: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            label = _OPERATORS.get(attr, None if attr.startswith("_") else attr)
            if label is None:
                continue
            if isinstance(raw, classmethod):
                fn, rewrap = raw.__func__, classmethod
            elif isinstance(raw, staticmethod):
                fn, rewrap = raw.__func__, staticmethod
            elif inspect.isfunction(raw):
                fn, rewrap = raw, None
            else:
                continue  # properties and plain attributes
            key = id(raw)
            if key not in done:
                nid = self._name_id(f"{layer}.{cls.__name__}.{label}", layer_id)
                wrapped = self._wrap(fn, nid, layer_id)
                done[key] = rewrap(wrapped) if rewrap else wrapped
            setattr(cls, attr, done[key])

    # -- operations ------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op[0] = op_id
        idx = len(self.sp_end)
        self.sp_name.append(0)
        self.sp_parent.append(-1)
        self.sp_op.append(op_id)
        self.sp_end.append(0.0)
        self._layers.append(0)
        self._spans.append(idx)
        self.sp_start.append(time.perf_counter())

    def end_op(self) -> None:
        self.sp_end[self._spans.pop()] = time.perf_counter()
        self._layers.pop()
        self._op[0] = -1

    # -- results ---------------------------------------------------------------

    def self_times(self, op_scale) -> dict[str, float]:
        """Calibrated self time per layer; op_scale[i] scales operation i."""
        start, end, parents = self.sp_start, self.sp_end, self.sp_parent
        child = array("d", bytes(8 * len(end)))
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += end[i] - start[i]
        layer_names = (BENCH,) + LAYERS
        span_layer = [layer_names[i] for i in self.layer_of]
        out = dict.fromkeys(layer_names, 0.0)
        for i, (nid, op) in enumerate(zip(self.sp_name, self.sp_op)):
            if op >= 0:
                out[span_layer[nid]] += (end[i] - start[i] - child[i]) * op_scale[op]
        return out

    def ops_time(self, op_scale) -> float:
        """Calibrated total of the operations' root spans."""
        return sum(
            (self.sp_end[i] - self.sp_start[i]) * op_scale[self.sp_op[i]]
            for i in range(len(self.sp_end))
            if self.sp_parent[i] < 0 and self.sp_op[i] >= 0
        )

    def layer_calls(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for nid, name in enumerate(self.names):
            if self.layer_of[nid]:
                out[name.split(".", 1)[0]] += self.counts[nid]
        return out

    def count(self, name: str) -> int:
        return self.counts[self.names.index(name)]

    def cache_hit_ratio(self, layer: str) -> float:
        """Hits over lookups across the layer's lru caches since install;
        0 with no lookups."""
        hits = misses = 0
        for cached, hits0, misses0 in self.caches[layer]:
            info = cached.cache_info()
            hits += info.hits - hits0
            misses += info.misses - misses0
        return hits / (hits + misses) if hits + misses else 0.0

    def write(self, stem: Path) -> None:
        """Spans to ``<stem>.bin`` (five arrays back to back), names to ``<stem>.json``."""
        arrays = ("sp_name", "sp_parent", "sp_op", "sp_start", "sp_end")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for attr in arrays:
                getattr(self, attr).tofile(fh)
        header = {
            "spans": len(self.sp_end),
            "arrays": [[a[3:], getattr(self, a).typecode] for a in arrays],
            "names": self.names,
            "layers": [((BENCH,) + LAYERS)[i] for i in self.layer_of],
            "counts": list(self.counts),
        }
        stem.with_suffix(".json").write_text(json.dumps(header))

"""Per-layer attribution for the traced benchmark run.

Timing shims are installed from the benchmark's own files around the
public functions each layer exposes; nothing under ``src/`` changes.
A shim records its span's *self* time (its duration minus the time of
spans nested inside it on the same thread), so the self times of all
layers plus ``unattributed_s`` add up to the traced wall time.

Functions bound by ``from module import name`` in a consumer module
(``from ..core.batch import canonical_keys`` in
``cardinality/hyperloglog.py``, the ``repro.store`` re-exports, ...)
would bypass a shim placed only on the defining module, so
:meth:`LayerTracer.patch_function` replaces every module-level binding
of the original object in every loaded ``repro`` module.
:meth:`LayerTracer.restore` puts every original back.
"""

from __future__ import annotations

import sys
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable

import numpy as np

_perf = time.perf_counter

#: what every layer span wraps: (layer name, owner path, attribute, kind).
#: ``kind`` is "method", "classmethod" or "function" (patched everywhere).
SPANS = (
    ("streaming.feed", "repro.streaming.pipeline:StreamPipeline", "feed", "method"),
    ("streaming.groupby", "repro.streaming.groupby:GroupBySketcher", "process_many", "method"),
    ("streaming.groupby", "repro.streaming.groupby:GroupBySketcher", "process", "method"),
    ("streaming.flush", "repro.streaming.groupby:GroupBySketcher", "flush_to_store", "method"),
    ("hashing.canonical_keys", "repro.core.batch", "canonical_keys", "function"),
    ("cardinality.hll_update_many", "repro.cardinality.hyperloglog:HyperLogLog", "update_many",
     "method"),
    ("quantiles.kll_update", "repro.quantiles.kll:KLLSketch", "update", "method"),
    ("quantiles.kll_update", "repro.quantiles.kll:KLLSketch", "update_many", "method"),
    ("quantiles.kll_merge", "repro.quantiles.kll:KLLSketch", "merge", "method"),
    ("quantiles.kll_merge", "repro.quantiles.kll:KLLSketch", "_merge_many_impl", "classmethod"),
    ("registry.observe", "repro.obs.registry:SketchHistogram", "observe", "method"),
    ("registry.observe", "repro.obs.registry:SketchHistogram", "observe_many", "method"),
    ("serde.encode", "repro.store.store", "encode_partial", "function"),
    ("serde.decode", "repro.store.store", "decode_partial", "function"),
    ("store.fold", "repro.store.store", "fold_partials", "function"),
    ("store.recover", "repro.store.store:SketchStore", "__init__", "method"),
    ("store.append", "repro.store.store:SketchStore", "append", "method"),
    ("store.flush", "repro.store.store:SketchStore", "flush", "method"),
    ("store.seal", "repro.store.store:SketchStore", "seal_active", "method"),
    ("store.query", "repro.store.store:SketchStore", "query", "method"),
    ("store.read", "repro.store.segment:SegmentReader", "read_at", "method"),
    ("store.index_load", "repro.store.segment:SegmentReader", "load", "method"),
    ("timeline.tick", "repro.obs.timeline:TimelineRecorder", "tick", "method"),
    ("timeline.replay", "repro.obs.timeline:TimelineRecorder", "attach_store", "method"),
    ("alerts.evaluate", "repro.obs.alerts:AlertEngine", "evaluate", "method"),
    ("http.server_start", "repro.obs.http:ObsServer", "start", "method"),
)


def _resolve(path: str):
    module_name, _, qualname = path.partition(":")
    obj = sys.modules[module_name]
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part)
    return obj


class LayerTracer:
    """Self-time spans and counters keyed by layer name.

    Thread-safe: each thread keeps its own span stack (the in-process
    ``ObsServer`` answers ``/query`` on its own thread) and totals are
    added under one lock.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: sum of every span's self time so far, across threads.
        self.attributed_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._rescanned: weakref.WeakSet = weakref.WeakSet()
        self._hooks: dict[str, Callable] = {
            "hashing.canonical_keys": self._on_keys,
            "streaming.flush": self._on_flush,
            "serde.encode": self._on_encode,
            "store.query": self._on_query,
            "store.read": self._on_read,
            "registry.observe": self._on_observe,
            "store.index_load": self._on_load,
        }

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a ``name`` span is open on the calling thread."""
        return any(frame[1] == name for frame in self._stack())

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.self_s[name] += seconds
            self.attributed_s += seconds

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A shim timing ``fn`` as a ``name`` span.

        Built without ``functools.wraps`` on purpose: a ``__wrapped__``
        attribute would let ``SketchHistogram`` (which binds
        ``KLLSketch.update.__wrapped__``) skip the shim.
        """
        tracer = self
        hook = self._hooks.get(name)

        def shim(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0, name]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
            span = name
            if hook is not None:
                span = hook(args, result) or name
            t2 = _perf()
            if stack:
                stack[-1][0] += t2 - t0
            tracer.add(span, t1 - t0 - frame[0])
            if hook is not None:
                tracer.add("tracing.hooks", t2 - t1)
            return result

        shim.__name__ = getattr(fn, "__name__", name)
        shim.__qualname__ = getattr(fn, "__qualname__", name)
        shim.__doc__ = getattr(fn, "__doc__", None)
        return shim

    # -- installing and removing shims -----------------------------------------

    def install(self) -> "LayerTracer":
        for name, owner_path, attr, kind in SPANS:
            owner = _resolve(owner_path)
            if kind == "function":
                self.patch_function(owner, attr, name)
            elif kind == "classmethod":
                func = owner.__dict__[attr].__func__
                self._patch(owner, attr, classmethod(self.wrap(name, func)))
            else:
                self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        return self

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: Any, attr: str, name: str) -> None:
        """Shim ``module.attr`` and every ``repro`` module binding of it."""
        original = getattr(module, attr)
        shim = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, shim)

    def restore(self) -> None:
        """Put every patched original back (latest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- counting hooks: return a span name to re-label the span -----------------

    def _on_keys(self, args, keys) -> None:
        n = len(keys)
        self.count("hashing.keys", n)
        # Byte-path keys carry bit 63 (item_to_u64); fast-path ints never do.
        self.count("hashing.byte_path_keys", int((keys >> np.uint64(63)).sum()) if n else 0)

    def _on_flush(self, args, groups) -> None:
        self.count("streaming.groups_flushed", groups)

    def _on_encode(self, args, blob) -> None:
        self.count("serde.encode_bytes", len(blob))
        self.count("serde.partials_encoded")

    def _on_query(self, args, result) -> None:
        results = result.values() if isinstance(result, dict) else [result]
        self.count("store.queries")
        # One series per window per group: n_windows summed over groups.
        self.count("store.series_returned", sum(r.n_windows for r in results))

    def _on_read(self, args, record) -> None:
        if self.inside("store.query"):
            self.count("store.windows_read")
            self.count("store.series_decoded", len(record["series"]))

    def _on_observe(self, args, _result) -> None:
        values = args[1]
        self.count("registry.observations", len(values) if hasattr(values, "__len__") else 1)

    def _on_load(self, args, reader) -> str | None:
        # Loading an unsealed segment inside a query is the active-segment
        # re-scan that SketchStore._readers() does on every read.
        # (load() is idempotent: count each re-scanned reader once.)
        if not reader.sealed and self.inside("store.query"):
            if reader not in self._rescanned:
                self._rescanned.add(reader)
                self.count("store.active_rescans")
            return "store.active_rescan"
        return None

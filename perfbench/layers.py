"""Per-layer tracing from outside the program: calls and self time.

:class:`LayerTracer` wraps the public function of each layer, patching
the defining module *and* every module that bound the same object at
import time (``from repro.transform.tiling import tile_footprints``), so
no call path escapes.  Self time is a span's duration minus the time its
wrapped children took.

Pool workers forked after :meth:`LayerTracer.install` inherit the
wrappers.  A wrapper running in such a worker also adds its numbers to
the worker's ``repro.obs`` counters (``perfbench.<layer>.calls`` and
``.self_ns``), which the program already ships back to the parent with
every pooled request; :meth:`LayerTracer.merge_counters` folds them in.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

#: (layer name, defining module, attribute; ``Class.method`` for methods).
LAYERS = (
    ("ir.parse_program", "repro.ir.parser", "parse_program"),
    ("core.optimize_program", "repro.core.optimizer", "optimize_program"),
    ("transform.is_legal", "repro.transform.legality", "is_legal"),
    ("transform.evaluate_cascade", "repro.transform.search", "evaluate_cascade"),
    ("transform.evaluate_exact", "repro.transform.search", "evaluate_exact"),
    ("window.batched_mws", "repro.window.batched", "batched_mws"),
    ("window.max_window_size", "repro.window.simulator", "max_window_size"),
    ("window.max_total_window", "repro.window.simulator", "max_total_window"),
    ("transform.search_hierarchy", "repro.transform.hierarchy_search",
     "search_hierarchy"),
    ("transform.tile_footprints", "repro.transform.tiling", "tile_footprints"),
    ("memory.size_memory_for_hierarchy", "repro.memory.sizing",
     "size_memory_for_hierarchy"),
    ("memory.simulate_hierarchy", "repro.memory.hierarchy", "simulate_hierarchy"),
    ("estimation.transfer_lower_bound", "repro.estimation.bounds",
     "transfer_lower_bound"),
    ("store.get", "repro.store.store", "ResultStore.get"),
    ("store.put", "repro.store.store", "ResultStore.put"),
)

COUNTER_PREFIX = "perfbench."


class LayerTracer:
    """Install once per process, before any pool is spawned."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.calls = {name: 0 for name, _, _ in LAYERS}
        self.self_s = {name: 0.0 for name, _, _ in LAYERS}
        self.worker_calls = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro import obs

        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(name, getattr(cls, method), obs))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, obs)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)

    def _wrap(self, name: str, fn, obs):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self._record(name, duration - children, obs)

        return wrapper

    def _record(self, name: str, self_s: float, obs) -> None:
        if os.getpid() != self.owner_pid:
            # A forked pool worker: ship through the program's counters.
            obs.counter(f"{COUNTER_PREFIX}{name}.calls")
            obs.counter(f"{COUNTER_PREFIX}{name}.self_ns", int(self_s * 1e9))
            obs.counter(f"{COUNTER_PREFIX}worker_calls")
            return
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += self_s

    def reset(self) -> None:
        """Forget the calls recorded so far in this process."""
        with self._lock:
            for name in self.calls:
                self.calls[name] = 0
                self.self_s[name] = 0.0

    def counter_names(self) -> list[str]:
        """The worker-side counters :meth:`merge_counters` reads."""
        names = [f"{COUNTER_PREFIX}worker_calls"]
        for name in self.calls:
            names += [f"{COUNTER_PREFIX}{name}.calls", f"{COUNTER_PREFIX}{name}.self_ns"]
        return names

    def merge_counters(self, counters: dict) -> None:
        """Fold worker-side wrapper counters (deltas, by counter name)."""
        for name in self.calls:
            self.calls[name] += int(counters.get(f"{COUNTER_PREFIX}{name}.calls", 0))
            self.self_s[name] += counters.get(
                f"{COUNTER_PREFIX}{name}.self_ns", 0) / 1e9
        self.worker_calls += int(counters.get(f"{COUNTER_PREFIX}worker_calls", 0))

    def snapshot(self) -> dict:
        with self._lock:
            return {"calls": dict(self.calls), "self_s": dict(self.self_s)}

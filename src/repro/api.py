"""Stable library facade: one entry path for the CLI, batch, and server.

Before this module, three call sites each hand-wired parse → analyze →
report: the CLI subcommands, the ``repro batch`` runner, and ad-hoc
library users.  :class:`AnalysisService` owns the shared machinery —
the content-addressed result store (with its in-memory LRU front), the
reclaimable worker pool, the per-request timeout path (the same one the
batch runner uses, so a hung request frees its worker slot), and the
run-ledger read side — and exposes every analysis the engines support
behind one request/response surface::

    from repro.api import AnalysisService, build_request

    with AnalysisService(store="~/.repro-store", workers=4) as svc:
        response = svc.submit(build_request(
            {"kind": "optimize", "kernel": "sor"}
        ))
        print(response.result["mws_after"], response.warm)

Request ``kind`` is one of :data:`repro.store.batch.KINDS`:
``optimize``, ``search``, ``mws``, ``analyze``, ``hierarchy``,
``param``.  The work target is exactly one of ``kernel`` (a Figure-2
kernel name), ``file`` (a loop-nest source path), or ``source`` (inline
loop-nest text).  All results are JSON-ready dicts, pure functions of
the program signature and knobs, so with a store attached a warm
request is served without a single engine simulation.

The HTTP front end (:mod:`repro.server`) is a thin asyncio shell over
this class; ``repro batch`` routes its items through
:func:`evaluate_kind`; both therefore share caching, counters, journal
and ledger semantics with plain library calls.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from repro import obs
from repro.obs import runctx
from repro.ir.program import Program

#: Request kinds (shared with the batch manifest format).
from repro.store.batch import (  # noqa: F401  (re-exported surface)
    KINDS,
    _batch_task,
    _default_evaluator,
    _observe_latency,
    record_item_timeout,
    run_batch,
)
from repro.store.pool import ReclaimablePool


# ----------------------------------------------------------------------
# kind dispatch — the one place "what does this analysis return" lives
# ----------------------------------------------------------------------

def evaluate_kind(
    kind: str,
    program: Program,
    array: str | None = None,
    store=None,
    preset: str = "tcm",
) -> dict[str, Any]:
    """Run one analysis ``kind`` on ``program``; JSON-ready result dict.

    Every result is a pure function of ``program.signature()`` and the
    knobs, served through the store when one is attached.  This is the
    single dispatch the CLI, ``repro batch`` workers, and the HTTP
    service all execute.
    """
    if kind == "optimize":
        from repro.core.optimizer import optimize_program

        result = optimize_program(program, store=store)
        return {
            "mws_before": result.mws_before,
            "mws_after": result.mws_after,
            "t": result.transformation.rows,
        }
    if kind == "search":
        from repro.transform.search import search_best_transformation

        name = array or program.arrays[0]
        result = search_best_transformation(
            program, name, store=store
        )
        return {
            "array": name,
            "exact": result.exact_mws,
            "t": result.transformation.rows,
            "method": result.method,
        }
    if kind == "mws":
        from repro.transform.search import evaluate_exact

        value = evaluate_exact(program, [None], array=array, store=store)[0]
        return {"array": array, "mws": value}
    if kind == "analyze":
        from repro.estimation.memory import estimate_program_memory
        from repro.transform.search import evaluate_exact

        per_array = {
            name: evaluate_exact(program, [None], array=name, store=store)[0]
            for name in program.arrays
        }
        total = evaluate_exact(program, [None], array=None, store=store)[0]
        footprint = estimate_program_memory(program)
        return {
            "program": program.name,
            "default_memory": program.default_memory,
            "footprint": footprint.footprint_total,
            "mws": per_array,
            "mws_total": total,
        }
    if kind == "hierarchy":
        from repro.memory.hierarchy import preset as hierarchy_preset
        from repro.memory.sizing import size_memory_for_hierarchy

        key = {"sig": program.signature(), "preset": preset}
        if store is not None:
            hit = store.get("hierarchy.sizing", key)
            if isinstance(hit, dict):
                return hit
        stack = hierarchy_preset(preset)
        report = size_memory_for_hierarchy(program, stack)
        value = {
            "preset": preset,
            "mws_words": report.mws_words,
            "tiers_needed": report.tiers_needed,
        }
        if store is not None:
            store.put("hierarchy.sizing", key, value)
        return value
    if kind == "param":
        from repro.estimation.parametric import resolve_parametric

        name = array or program.arrays[0]
        out: dict[str, Any] = {"array": name}
        for param_kind in ("mws", "distinct"):
            pe = resolve_parametric(
                program, param_kind, array=name, store=store
            )
            out[f"{param_kind}_expr"] = None if pe is None else str(pe.expr)
        return out
    raise ValueError(f"unknown kind {kind!r} (expected one of {KINDS})")


# ----------------------------------------------------------------------
# request / response surface
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisRequest:
    """One validated analysis request (see :func:`build_request`)."""

    kind: str
    kernel: str | None = None
    file: str | None = None
    source: str | None = None
    name: str | None = None
    array: str | None = None
    preset: str = "tcm"
    timeout: float | None = None  # None -> the service default

    @property
    def target(self) -> str:
        return self.kernel or self.file or self.name or "inline"


#: The keys a request payload may carry: the fields of the request.
_REQUEST_KEYS = frozenset(f.name for f in fields(AnalysisRequest))


@dataclass
class AnalysisResponse:
    """Outcome of one request: result, provenance, and cache state."""

    kind: str
    target: str
    array: str | None
    status: str  # "ok" | "error" | "timeout"
    result: dict[str, Any] | None = None
    error: str | None = None
    wall_s: float = 0.0
    warm: bool | None = None  # None: no observer to tell by
    run: str | None = field(default_factory=runctx.current_run_id)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def build_request(payload: Mapping[str, Any]) -> AnalysisRequest:
    """Validate a raw payload (manifest entry, HTTP body) into a request.

    Raises ``ValueError`` on an unknown key, an unknown kind, a
    missing/ambiguous target, or a malformed knob — the caller maps that
    to its own error surface (batch ``error`` outcome, HTTP 400).  An
    unknown key is refused rather than ignored, so a typo such as
    ``arrray`` cannot silently answer a different question.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"request must be an object, got {payload!r}")
    if "engine" in payload:
        raise ValueError(
            "request key 'engine' was removed: the window engine is "
            "chosen from the nest size"
        )
    unknown = sorted(str(key) for key in payload if key not in _REQUEST_KEYS)
    if unknown:
        raise ValueError(
            f"unknown request key(s) {unknown} (expected some of "
            f"{sorted(_REQUEST_KEYS)})"
        )
    kind = payload.get("kind", "analyze")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r} (expected one of {KINDS})")
    targets = [key for key in ("kernel", "file", "source")
               if payload.get(key) is not None]
    if len(targets) != 1:
        raise ValueError(
            "exactly one of 'kernel', 'file' or 'source' is required"
        )
    timeout = payload.get("timeout")
    if timeout is not None:
        timeout = float(timeout)
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
    array = payload.get("array")
    return AnalysisRequest(
        kind=kind,
        kernel=payload.get("kernel"),
        file=payload.get("file"),
        source=payload.get("source"),
        name=payload.get("name"),
        array=None if array is None else str(array),
        preset=str(payload.get("preset", "tcm")),
        timeout=timeout,
    )


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------

class AnalysisService:
    """Long-lived facade owning store, LRU, worker pool, and timeouts.

    ``store`` is a :class:`repro.store.ResultStore`, a directory path,
    or ``None`` (compute-only).  ``workers=0`` evaluates inline;
    ``workers >= 1`` evaluates on a :class:`ReclaimablePool`, where a
    request that outlives ``timeout`` seconds is abandoned *and its
    worker is killed and respawned*, so a hung request never eats a
    slot.  The pool is spawned lazily on the first pooled request (so
    it inherits the active run context) and is shared by every caller —
    admission control (how many requests may wait for a slot) belongs
    to the front end.
    """

    def __init__(
        self,
        store=None,
        workers: int | None = 0,
        timeout: float | None = None,
    ) -> None:
        from repro.store import ResultStore
        from repro.transform.search import _resolve_workers

        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store = store
        self.workers = _resolve_workers(workers)
        self.timeout = timeout
        self._pool: ReclaimablePool | None = None
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # programs
    # ------------------------------------------------------------------
    def resolve_program(self, request: AnalysisRequest) -> Program:
        """Build the request's program (kernel, file, or inline source)."""
        if request.kernel is not None:
            from repro.kernels import kernel_by_name

            program = kernel_by_name(request.kernel).build()
        elif request.file is not None:
            from repro.ir import parse_program

            path = Path(request.file)
            program = parse_program(
                path.read_text(encoding="utf-8"),
                name=request.name or path.stem,
            )
        else:
            from repro.ir import parse_program

            program = parse_program(
                request.source, name=request.name or "inline"
            )
        # Ledger provenance: every program the service touches.
        runctx.note_input(program.name, program.signature())
        return program

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _evaluator(self, request: AnalysisRequest):
        if request.preset != "tcm":
            # functools.partial of a module-level callable pickles to
            # pool workers; the default path ships the bare function.
            return functools.partial(evaluate_kind, preset=request.preset)
        return _default_evaluator

    def evaluate(self, request: AnalysisRequest) -> AnalysisResponse:
        """Evaluate inline (no pool, no preemption); never raises on the
        *item's* behalf — failures come back as ``status="error"``."""
        started = time.perf_counter()
        try:
            program = self.resolve_program(request)
            observer = obs.get_observer()
            before = dict(observer.counters) if observer else {}
            result = evaluate_kind(
                request.kind, program, array=request.array,
                store=self.store, preset=request.preset,
            )
        except Exception as exc:
            obs.counter("batch.items.error")
            return AnalysisResponse(
                request.kind, request.target, request.array, "error",
                error=f"{type(exc).__name__}: {exc}",
                wall_s=time.perf_counter() - started,
            )
        wall = time.perf_counter() - started
        delta = {}
        if observer is not None:
            delta = {
                name: value - before.get(name, 0)
                for name, value in observer.counters.items()
            }
        obs.counter("batch.items.ok")
        # Without an observer there is no counter delta to judge by.
        warm = _observe_latency(wall, delta) if observer is not None else None
        return AnalysisResponse(
            request.kind, request.target, request.array, "ok",
            result=result, wall_s=wall, warm=warm,
        )

    def submit(
        self,
        request: AnalysisRequest,
        timeout: float | None = None,
        evaluator=None,
    ) -> AnalysisResponse:
        """Evaluate on the worker pool with the batch timeout path.

        ``timeout`` (falling back to the request's, then the service's)
        bounds the request's execution; on expiry the worker is killed
        and respawned (``batch.worker.reclaimed``) and the response is
        ``status="timeout"``.  With ``workers=0`` this degrades to
        :meth:`evaluate` — serial mode cannot preempt.  Thread-safe.
        """
        if timeout is None:
            timeout = request.timeout
        if timeout is None:
            timeout = self.timeout
        if self.workers < 1:
            return self.evaluate(request)
        try:
            program = self.resolve_program(request)
        except Exception as exc:
            obs.counter("batch.items.error")
            return AnalysisResponse(
                request.kind, request.target, request.array, "error",
                error=f"{type(exc).__name__}: {exc}",
            )
        sig = program.signature()
        label = f"{request.kind} {request.target}"
        payload = (
            evaluator or self._evaluator(request), label, sig, request.kind,
            program, request.array, self.store,
        )
        slot = self._ensure_pool().run_one(_batch_task, payload, timeout)
        if slot.status == "timeout":
            with self._lock:
                record_item_timeout(label, sig, timeout)
            return AnalysisResponse(
                request.kind, request.target, request.array, "timeout",
                error=f"timed out after {timeout:g}s", wall_s=slot.wall_s,
            )
        if slot.status == "error":
            with self._lock:
                obs.counter("batch.items.error")
            return AnalysisResponse(
                request.kind, request.target, request.array, "error",
                error=f"{type(slot.value).__name__}: {slot.value}",
                wall_s=slot.wall_s,
            )
        result, delta = slot.value
        # Counter merging is not atomic; concurrent front-end threads
        # serialize here so worker deltas are never lost.
        with self._lock:
            for name, amount in delta.items():
                obs.counter(name, amount)
            obs.counter("batch.items.ok")
            # Workers run an observer only when the parent had one.
            warm = (
                _observe_latency(slot.wall_s, delta) if obs.enabled() else None
            )
        return AnalysisResponse(
            request.kind, request.target, request.array, "ok",
            result=result, wall_s=slot.wall_s, warm=warm,
        )

    def batch(self, entries, timeout: float | None = None):
        """Run a manifest through :func:`repro.store.batch.run_batch`
        with the service's store and workers."""
        return run_batch(
            entries, store=self.store, workers=self.workers,
            timeout=timeout or self.timeout,
        )

    # ------------------------------------------------------------------
    # store maintenance / observability read side
    # ------------------------------------------------------------------
    def compact(self):
        """One sweep of the store's compaction job (no-op storeless)."""
        from repro.store.maintenance import compact_store

        if self.store is None:
            return None
        return compact_store(self.store)

    def run_record(self, run: str):
        """One run-ledger record by ID/prefix/'last' (None storeless)."""
        from repro.obs import ledger as obs_ledger

        if self.store is None:
            return None
        return obs_ledger.load_run(self.store, run)

    def run_ids(self) -> list[str]:
        from repro.obs import ledger as obs_ledger

        if self.store is None:
            return []
        return [
            str(record.get("run"))
            for record in obs_ledger.list_runs(self.store)
        ]

    def metrics_text(self) -> str:
        """Prometheus exposition of the live observer ('' when off)."""
        observer = obs.get_observer()
        if observer is None:
            return ""
        return obs.prometheus_text(observer)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ReclaimablePool:
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._pool is None:
                self._pool = ReclaimablePool(
                    self.workers,
                    initializer=obs.core._init_worker,
                    initargs=(obs.enabled(), runctx.worker_state()),
                )
            return self._pool

    def close(self) -> None:
        """Kill in-flight workers and shut the pool down (idempotent)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(kill=True)

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

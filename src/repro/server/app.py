"""The always-on analysis server: asyncio shell over ``repro.api``.

One :class:`ReproServer` wraps one :class:`repro.api.AnalysisService`
(which owns the store, LRU, and reclaimable worker pool) and adds the
network-boundary concerns:

* **Admission control.**  At most ``workers + queue_limit`` analysis
  requests are in flight (executing or waiting for a pool slot); the
  next one is answered ``429`` immediately (``server.admission.rejected``)
  instead of queueing without bound.
* **Per-tenant quotas.**  A token bucket per ``X-Repro-Tenant`` header
  (``server.quota.rejected`` on refusal) so no tenant can starve the
  rest — see :mod:`repro.server.quota`.
* **Per-request timeouts.**  Requests run through the same
  kill-and-respawn timeout path as ``repro batch`` — a hung request is
  answered ``504`` and its worker slot is reclaimed, never leaked.
* **Observability read side.**  ``/healthz``, Prometheus ``/metrics``
  (the exporter from :mod:`repro.obs.export`), and the run ledger at
  ``/runs`` / ``/runs/<id>``.
* **Background compaction.**  With ``compact_interval`` set, the store
  sweep (:func:`repro.store.maintenance.compact_store`) runs
  periodically off the event loop.

Routes::

    GET  /healthz        liveness + inflight/capacity snapshot
    GET  /metrics        Prometheus exposition of the live observer
    GET  /runs           recorded run IDs (oldest first)
    GET  /runs/<id>      one ledger record ('last', prefixes allowed)
    POST /analyze        one analysis request (the repro.api surface)
    POST /shutdown       graceful stop; the CLI then seals the ledger

``POST /analyze`` answers 200 on success, 400 on a malformed request,
422 on an evaluation error, 429 over capacity or quota, 504 on a
request timeout.  Any route answers 408 to a client that has not sent
its whole request within :data:`READ_TIMEOUT_S` (``server.read_timeouts``)
and 413 to an oversized request head or body.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro import obs
from repro.api import AnalysisService, build_request
from repro.server.http import (
    BadRequest,
    HTTPRequest,
    read_request,
    render_response,
)
from repro.server.quota import TenantQuotas

#: Tenant bucket for requests that send no ``X-Repro-Tenant`` header.
ANONYMOUS_TENANT = "anonymous"

#: Seconds a client has to send its whole request before it is answered
#: 408; a stalled half-sent request would otherwise hold its connection
#: forever.
READ_TIMEOUT_S = 30.0

#: Default tokens/second each tenant accrues (see ``--quota-rate``).
DEFAULT_QUOTA_RATE = 50.0

#: Default queue depth beyond the worker count before 429s start.
def default_queue_limit(workers: int) -> int:
    return max(2, 2 * workers)


class ReproServer:
    """One HTTP front end over one :class:`AnalysisService`.

    ``port=0`` binds an ephemeral port (``bound_port`` after startup;
    ``ready`` is set once the socket listens — test harnesses start
    :meth:`run` on a thread and wait on it).  ``evaluator`` overrides
    the analysis evaluator for every request (tests inject hanging or
    exploding ones); production leaves it ``None``.
    """

    def __init__(
        self,
        service: AnalysisService,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int | None = None,
        quota_rate: float | None = DEFAULT_QUOTA_RATE,
        quota_burst: float | None = None,
        compact_interval: float | None = None,
        evaluator=None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        if queue_limit is None:
            queue_limit = default_queue_limit(service.workers)
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        self.max_pending = max(1, service.workers) + queue_limit
        self.quotas = TenantQuotas(quota_rate, quota_burst)
        self.compact_interval = compact_interval
        self.evaluator = evaluator
        self.ready = threading.Event()
        self.bound_port: int | None = None
        self._inflight = 0  # event-loop thread only
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until :meth:`stop` or ``POST /shutdown`` (blocking)."""
        asyncio.run(self._main())
        return 0

    def stop(self) -> None:
        """Request a graceful stop (thread-safe, idempotent)."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and loop.is_running():
            loop.call_soon_threadsafe(event.set)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        # One thread per admitted request: each blocks on the process
        # pool (slot checkout + future wait) while the loop stays free.
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_pending, thread_name_prefix="repro-serve"
        )
        server = await asyncio.start_server(self._client, self.host, self.port)
        self.bound_port = server.sockets[0].getsockname()[1]
        print(f"listening on http://{self.host}:{self.bound_port}",
              flush=True)
        self.ready.set()
        compactor = None
        if self.compact_interval:
            compactor = asyncio.create_task(self._compact_loop())
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            if compactor is not None:
                compactor.cancel()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self.ready.clear()

    async def _compact_loop(self) -> None:
        while True:
            await asyncio.sleep(self.compact_interval)
            try:
                report = await self._loop.run_in_executor(
                    None, self.service.compact
                )
            except Exception:
                obs.counter("server.compact.errors")
                continue
            if report is not None:
                obs.counter("server.compactions")

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _client(self, reader, writer) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), READ_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                obs.counter("server.read_timeouts")
                writer.write(render_response(
                    408, {"error": "request not received in time"}
                ))
                return
            except BadRequest as exc:
                writer.write(render_response(exc.status, {"error": str(exc)}))
                return
            except (asyncio.IncompleteReadError, ConnectionError,
                    asyncio.LimitOverrunError):
                return
            if request is None:
                return
            obs.counter("server.requests")
            try:
                status, payload, content_type = await self._route(request)
            except BadRequest as exc:
                status, payload, content_type = (
                    exc.status, {"error": str(exc)}, None
                )
            except Exception as exc:  # the server must outlive any request
                obs.counter("server.errors")
                status, payload, content_type = (
                    500, {"error": f"{type(exc).__name__}: {exc}"}, None
                )
            writer.write(render_response(status, payload, content_type))
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, request: HTTPRequest
    ) -> tuple[int, Any, str | None]:
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}, None
            return 200, self._health(), None
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}, None
            return 200, self.service.metrics_text(), None
        if path == "/runs":
            if method != "GET":
                return 405, {"error": "use GET"}, None
            runs = await self._loop.run_in_executor(
                None, self.service.run_ids
            )
            return 200, {"runs": runs}, None
        if path.startswith("/runs/"):
            if method != "GET":
                return 405, {"error": "use GET"}, None
            run_id = path[len("/runs/"):]
            record = await self._loop.run_in_executor(
                None, self.service.run_record, run_id
            )
            if record is None:
                return 404, {"error": f"run {run_id!r} not found"}, None
            return 200, record, None
        if path == "/shutdown":
            if method != "POST":
                return 405, {"error": "use POST"}, None
            self._stop_event.set()
            return 202, {"status": "shutting down"}, None
        if path == "/analyze":
            if method != "POST":
                return 405, {"error": "use POST"}, None
            return await self._analyze(request)
        return 404, {"error": f"no route {path!r}"}, None

    def _health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "inflight": self._inflight,
            "capacity": self.max_pending,
            "workers": self.service.workers,
            "store": self.service.store is not None,
            "tenants": self.quotas.tenants(),
        }

    async def _analyze(
        self, request: HTTPRequest
    ) -> tuple[int, Any, str | None]:
        # Admission first: a full house answers instantly, it does not
        # queue.  _inflight is only touched on the event-loop thread.
        if self._inflight >= self.max_pending:
            obs.counter("server.admission.rejected")
            return 429, {
                "error": "server at capacity",
                "reason": "admission",
                "inflight": self._inflight,
                "capacity": self.max_pending,
            }, None
        tenant = request.headers.get("x-repro-tenant", ANONYMOUS_TENANT)
        if not self.quotas.admit(tenant):
            obs.counter("server.quota.rejected")
            return 429, {
                "error": f"tenant {tenant!r} over quota",
                "reason": "quota",
            }, None
        try:
            analysis = build_request(request.json())
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        self._inflight += 1
        try:
            response = await self._loop.run_in_executor(
                self._executor,
                functools.partial(
                    self.service.submit, analysis, evaluator=self.evaluator
                ),
            )
        finally:
            self._inflight -= 1
        if response.status == "timeout":
            obs.counter("server.request.timeout")
            return 504, response.as_dict(), None
        if response.status == "error":
            obs.counter("server.request.error")
            return 422, response.as_dict(), None
        return 200, response.as_dict(), None

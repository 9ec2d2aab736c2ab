"""One benchmark process: set a workload up, then run its ops.

``run.py`` starts this script once per set-up measurement and once for
the measured (or traced) run, each time as a fresh process.  Lines on
stdout that start with ``PERFBENCH `` carry JSON events: ``ready`` once
set-up is done (imports, server boot, pool spawn, store fill and one
discarded warm-up op), then ``result`` at the end.

Modes:

* ``setup``  -- set up and stop (a set-up time sample);
* ``timed``  -- set up, then measure ops for ``--seconds`` (untraced);
* ``traced`` -- set up, run half the time untraced and half with the
  layer wrappers and ``repro.obs`` on, and report per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import importlib
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402  (needs the source tree on sys.path)
from hostspeed import host_tick, scale  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402

#: Compute workloads keep measuring until they have at least this many ops.
MIN_OPS = 5
#: Closed-loop client connections for service-mixed.
CONNECTIONS = 2
#: service-mixed runs its closed loop in slices this long, a host tick
#: between slices.
SLICE_S = 1.0
SERVICE_WORKERS = 2
#: Module-level caches whose sizes the traced run reports.
CACHES = (
    ("repro.transform.search", "_EXACT_CACHE"),
    ("repro.transform.search", "_SEARCH_CACHE"),
    ("repro.transform.tiling", "_POINT_CACHE"),
    ("repro.transform.legality", "_DISTANCE_CACHE"),
    ("repro.window.fast", "_ITER_STATE"),
    ("repro.window.batched", "_KERNELS"),
    ("repro.window.batched", "_POINTSF"),
    ("repro.estimation.bounds", "_CLIP_CACHE"),
    ("repro.estimation.parametric", "_PARAM_CACHE"),
)


def emit(event: str, **fields) -> None:
    if event == "ready":
        # A tick while nothing else of the run is busy; run.py scales
        # this process's set-up time by it.
        fields["tick"] = host_tick()
    if event == "result":
        fields["host"] = host_info()
    print("PERFBENCH " + json.dumps({"event": event, **fields}), flush=True)


def blas_threads() -> int | None:
    """OpenBLAS's thread count as found (never overridden here)."""
    import ctypes

    libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line and line.split()[-1].startswith("/")}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_info() -> dict:
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def prom_name(name: str) -> str:
    """The Prometheus exposition name of a ``repro.obs`` counter."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name) + "_total"


def observer_counters() -> dict[str, float]:
    from repro import obs

    observer = obs.get_observer()
    if observer is None:
        return {}
    return {prom_name(k): v for k, v in list(observer.counters.items())}


def counter_delta(after: dict, before: dict) -> dict[str, float]:
    return {
        k: v - before.get(k, 0)
        for k, v in after.items()
        if v != before.get(k, 0)
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_ratios(delta: dict) -> tuple[dict, dict]:
    """Per-layer ratios from program counters, with their bases."""

    def get(name: str) -> float:
        return delta.get(prom_name(name), 0)

    cascade_base = get("search.cascade.pruned") + get("search.cascade.simulated")
    cache_base = get("search.cache.hits") + get("search.cache.misses")
    iter_base = get("fast.iter_matrix.hits") + get("fast.iter_matrix.misses")
    store_hits = get("store.mem.hits") + get("store.disk.hits")
    store_base = store_hits + get("store.misses")
    metrics = {
        "search.hierarchy.prune_ratio": ratio(
            get("search.hierarchy.pruned"), get("search.hierarchy.configs")),
        "search.cascade.prune_ratio": ratio(
            get("search.cascade.pruned"), cascade_base),
        "search.cache.hit_ratio": ratio(get("search.cache.hits"), cache_base),
        "fast.iter_matrix.hit_ratio": ratio(
            get("fast.iter_matrix.hits"), iter_base),
        "store.hit_ratio": ratio(store_hits, store_base),
        "store.mem_hit_ratio": ratio(get("store.mem.hits"), store_base),
    }
    bases = {
        "search.hierarchy.prune_ratio": get("search.hierarchy.configs"),
        "search.cascade.prune_ratio": cascade_base,
        "search.cache.hit_ratio": cache_base,
        "fast.iter_matrix.hit_ratio": iter_base,
        "store.hit_ratio": store_base,
        "store.mem_hit_ratio": store_base,
    }
    return metrics, bases


def cache_sizes() -> dict[str, int]:
    entries = 0
    for module_name, attr in CACHES:
        cache = getattr(sys.modules.get(module_name), attr, None)
        if cache is not None:
            entries += len(cache)
    point_cache = getattr(sys.modules.get("repro.transform.tiling"),
                          "_POINT_CACHE", None) or {}
    points = sum(len(entry[0]) for entry in list(point_cache.values()))
    return {"cache.entries": entries, "cache.tile_points.points": points}


def layer_metrics(tracer: LayerTracer) -> dict[str, float]:
    snap = tracer.snapshot()
    out = {}
    for name, _, _ in LAYERS:
        out[f"{name}.calls"] = snap["calls"][name]
        out[f"{name}.self_s"] = snap["self_s"][name]
    return out


def api_metrics(responses: list[tuple[str, float, bool, bool, float | None]]):
    """``responses``: (kind, wall_s, warm flag, is repeat, client latency)."""
    out = {}
    for kind in wl.SERVICE_KINDS:
        walls = [w for k, w, _, _, _ in responses if k == kind]
        out[f"api.wall_ms.{kind}.p50"] = (
            statistics.median(walls) * 1e3 if walls else 0.0)
    out["api.warm_flag_mismatch"] = sum(
        1 for _, _, warm, repeat, _ in responses if bool(warm) != repeat)
    overheads = [(lat - w) * 1e3 for _, w, _, _, lat in responses
                 if lat is not None]
    out["server.overhead_ms.p50"] = (
        statistics.median(overheads) if overheads else 0.0)
    out["server.overhead_ms.p99"] = (
        percentile(overheads, 99) if overheads else 0.0)
    return out


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# compute workloads
# ----------------------------------------------------------------------

class Figure2Cold:
    """One op is one Figure-2 table: seven inline-source ``optimize``
    requests, one per kernel, through a storeless inline service."""

    def __init__(self, seed: int) -> None:
        from repro.api import AnalysisService, build_request

        self.service = AnalysisService(store=None, workers=0)
        self.build_request = build_request
        self.golden = wl.load_golden()
        self.programs = [
            (name, wl.kernel_by_name(name).build()) for name in wl.FIGURE2_KERNELS
        ]
        self.offsets = wl.Offsets(seed)

    def op_type(self, index: int) -> str:
        return "table"

    def prepare(self, index: int):
        return [
            (name, self.build_request({
                "kind": "optimize",
                "source": wl.render(p, self.offsets(index, p.nest.depth)),
                "name": name,
            }))
            for name, p in self.programs
        ]

    def run(self, prepared):
        return [self.service.evaluate(request) for _, request in prepared]

    def check(self, prepared, outcome) -> list[str]:
        problems = []
        for (name, _), response in zip(prepared, outcome):
            if not response.ok:
                problems.append(f"optimize {name}: {response.error}")
            else:
                problems += wl.check_figure2(
                    "optimize", name, response.result, self.golden)
        return problems

    def responses(self, outcome):
        return [("optimize", r.wall_s, r.warm, False, None) for r in outcome]


class HierarchyTiling:
    """One op is what ``repro hierarchy <file>`` computes: parse,
    ``size_memory_for_hierarchy`` and ``search_hierarchy`` with default
    candidates, on a translated n = 8 example, round-robin."""

    def __init__(self, seed: int) -> None:
        # Looked up through the modules at call time, so the layer
        # wrappers of a traced run see these calls.
        self.ir = importlib.import_module("repro.ir")
        self.sizing = importlib.import_module("repro.memory.sizing")
        self.search = importlib.import_module("repro.transform.hierarchy_search")
        self.bases = {name: wl.hierarchy_program(name)
                      for name in wl.HIERARCHY_KERNELS}
        self.stack = wl.scaled_hierarchy()
        self.expected = wl.load_expected_hierarchy()
        self.offsets = wl.Offsets(seed)

    def op_type(self, index: int) -> str:
        return wl.HIERARCHY_KERNELS[index % len(wl.HIERARCHY_KERNELS)]

    def prepare(self, index: int):
        name = self.op_type(index)
        return name, wl.render(self.bases[name], self.offsets(index, 3))

    def run(self, prepared):
        name, text = prepared
        program = self.ir.parse_program(text, name=name)
        report = self.sizing.size_memory_for_hierarchy(program, self.stack)
        search = self.search.search_hierarchy(program, self.stack)
        return wl.hierarchy_summary(report, search)

    def check(self, prepared, outcome) -> list[str]:
        return wl.check_hierarchy(prepared[0], outcome, self.expected)

    def responses(self, outcome):
        return []


def normalized(walls, ticks) -> list[float]:
    """Op walls at the reference host speed (see ``hostspeed``); op ``i``
    ran between ``ticks[i]`` and ``ticks[i + 1]``."""
    return [wall * scale(before, after)
            for wall, before, after in zip(walls, ticks, ticks[1:])]


def compute_ops(work, first_index: int, seconds: float, fingerprints=None):
    """Run ops from ``first_index`` until ``seconds`` have passed (and
    at least ``MIN_OPS`` ran).  Input preparation, ``gc.collect()`` and
    a host tick happen between ops, outside each op's timing."""
    walls, ticks, types, problems, responses = [], [], [], [], []
    failed = 0
    index = first_index
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or len(walls) < MIN_OPS:
        prepared = work.prepare(index)
        gc.collect()
        ticks.append(host_tick())
        before = observer_counters() if fingerprints is not None else None
        types.append(work.op_type(index))
        started = time.perf_counter()
        try:
            outcome = work.run(prepared)
        except Exception as exc:  # an op that raises is a failed op
            walls.append(time.perf_counter() - started)
            failed += 1
            problems.append(f"op {index}: {type(exc).__name__}: {exc}")
            index += 1
            continue
        walls.append(time.perf_counter() - started)
        if fingerprints is not None:
            fingerprints.append(
                (work.op_type(index), counter_delta(observer_counters(), before)))
        found = work.check(prepared, outcome)
        if found:
            failed += 1
            problems += found
        responses += work.responses(outcome)
        index += 1
    ticks.append(host_tick())
    return {"walls": walls, "ticks": ticks, "types": types, "failed": failed,
            "problems": problems, "responses": responses, "next_index": index}


def fingerprint_mismatches(fingerprints) -> tuple[int, list]:
    """Ops whose counter delta differs from the first op of their type.

    LRU eviction counters are left out: they depend on how full a cache
    already is, not on the op's own work."""
    first: dict[str, dict] = {}
    bad = []
    for position, (op_type, delta) in enumerate(fingerprints):
        key = {k: v for k, v in delta.items() if not k.endswith("_evictions_total")}
        if op_type not in first:
            first[op_type] = key
        elif key != first[op_type]:
            diff = sorted(set(key.items()) ^ set(first[op_type].items()))
            bad.append({"op": position, "type": op_type, "diff": diff[:8]})
    return len(bad), bad


def overhead_ratio(plain, traced) -> float:
    """Traced over untraced median op wall at reference speed, averaged
    over op types (types differ in cost, and the phases hold different
    mixes of them)."""
    ratios = []
    for op_type in sorted(set(traced["types"])):
        medians = [
            statistics.median(
                w for w, t in zip(normalized(run["walls"], run["ticks"]), run["types"])
                if t == op_type)
            for run in (plain, traced)
        ]
        ratios.append(medians[1] / medians[0])
    return statistics.mean(ratios)


def run_compute(work_cls, args) -> None:
    work = work_cls(args.seed)
    prepared = work.prepare(0)
    outcome = work.run(prepared)  # the discarded warm-up op
    warm_problems = work.check(prepared, outcome)
    gc.collect()
    emit("ready")
    if args.mode == "setup":
        emit("result", problems=warm_problems)
        return
    if args.mode == "timed":
        run = compute_ops(work, 1, args.seconds)
        walls = normalized(run["walls"], run["ticks"])
        attempted = len(walls)
        emit(
            "result",
            attempted=attempted,
            failed=run["failed"],
            problems=warm_problems + run["problems"][:20],
            samples=len(walls),
            walls_ms=[round(w * 1e3, 3) for w in run["walls"]],
            ticks_ms=[round(t * 1e3, 3) for t in run["ticks"]],
            metrics={
                "ops_per_s": (attempted - run["failed"]) / sum(walls),
                "latency_p50_ms": statistics.median(walls) * 1e3,
                "latency_p99_ms": percentile(walls, 99) * 1e3,
                "peak_rss_mb": peak_rss_self_mb(),
                "ok_rate": (attempted - run["failed"]) / attempted,
            },
        )
        return
    # traced: half untraced (the overhead reference), half traced.
    from repro import obs

    plain = compute_ops(work, 1, args.seconds / 2)
    tracer = LayerTracer()
    tracer.install()
    obs.enable()
    fingerprints: list = []
    start_counters = observer_counters()
    traced = compute_ops(work, plain["next_index"], args.seconds / 2,
                         fingerprints=fingerprints)
    delta = counter_delta(observer_counters(), start_counters)
    mismatches, detail = fingerprint_mismatches(fingerprints)
    op_wall = sum(traced["walls"])
    metrics = layer_metrics(tracer)
    ratios, bases = counter_ratios(delta)
    metrics.update(ratios)
    metrics.update(api_metrics(traced["responses"]))
    metrics.update(cache_sizes())
    metrics.update({
        "trace.overhead_ratio": overhead_ratio(plain, traced),
        "trace.ops": len(traced["walls"]),
        "trace.op_wall_s": op_wall,
        "trace.fingerprint_mismatches": mismatches,
        "trace.workers_inherit_wrappers": 0,
        "transform.tile_footprints.op_share": ratio(
            metrics["transform.tile_footprints.self_s"], op_wall),
    })
    failed = plain["failed"] + traced["failed"]
    emit(
        "result",
        attempted=len(plain["walls"]) + len(traced["walls"]),
        failed=failed,
        problems=(warm_problems + plain["problems"] + traced["problems"])[:20],
        invariant_problems=[f"fingerprint mismatch: {d}" for d in detail[:5]],
        metrics=metrics,
        ratio_bases=bases,
        fingerprint_types=sorted({t for t, _ in fingerprints}),
        program_counters=delta,
    )


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------

def post(port: int, payload: dict, timeout: float = 120.0):
    """One closed-loop request: ``(status, body, latency_s)``."""
    body = json.dumps(payload).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        started = time.perf_counter()
        conn.request("POST", "/analyze", body,
                     {"Content-Type": "application/json"})
        reply = conn.getresponse()
        data = reply.read()
        latency = time.perf_counter() - started
    finally:
        conn.close()
    return reply.status, json.loads(data), latency


def scrape(port: int) -> dict[str, float]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            out[name] = float(value)
    return out


def children_of(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found += [int(p) for p in task.read_text().split()]
        except OSError:
            pass
    return found


def vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def wait_gone(pids, timeout: float = 20.0) -> None:
    """Wait until every pid has exited (reaping our own children)."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
            except ChildProcessError:
                # Not our child: gone once /proc has no live entry.
                try:
                    state = Path(f"/proc/{pid}/stat").read_text().split(")")[-1].split()[0]
                except OSError:
                    break
                if state in ("Z", "X"):
                    break
            time.sleep(0.02)


class ServiceMixed:
    """Closed loop of two connections against ``repro serve``."""

    def __init__(self, seed: int) -> None:
        self.stream = wl.RequestStream(seed)
        self.golden = wl.load_golden()
        self.first: dict[tuple, dict] = {}
        self.lock = threading.Lock()

    # -- the server under test ------------------------------------------
    def start_subprocess(self, store: Path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--workers", str(SERVICE_WORKERS),
             "--store", str(store), "serve", "--port", "0", "--no-quota"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        line = proc.stdout.readline()
        if "listening on http://" not in line:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        return proc, int(line.strip().rsplit(":", 1)[-1])

    def stop_subprocess(self, proc, port: int) -> None:
        workers = children_of(proc.pid)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("POST", "/shutdown")
            conn.getresponse().read()
            conn.close()
            proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired, http.client.HTTPException):
            pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        proc.stdout.close()
        wait_gone(workers)

    def start_inprocess(self, store: Path):
        from repro.api import AnalysisService
        from repro.server import ReproServer

        service = AnalysisService(store=store, workers=SERVICE_WORKERS)
        server = ReproServer(service, port=0, quota_rate=None)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        if not server.ready.wait(60):
            raise RuntimeError("in-process server did not start")
        return (service, server, thread), server.bound_port

    def stop_inprocess(self, handle) -> None:
        service, server, thread = handle
        workers = children_of(os.getpid())
        server.stop()
        thread.join(60)
        service.close()
        wait_gone(workers)

    # -- requests --------------------------------------------------------
    def check(self, cls: str, payload: dict, status: int, body: dict) -> list[str]:
        kind = payload["kind"]
        target = payload.get("kernel") or payload.get("name")
        if status != 200:
            return [f"{kind} {target}: HTTP {status}: {body.get('error')}"]
        result = body.get("result") or {}
        problems = wl.check_figure2(kind, target, result, self.golden)
        if cls == "repeat":
            want = self.first.get((kind, target))
            if want is not None and result != want:
                problems.append(f"{kind} {target}: repeat differs from first answer")
        return problems

    def fill(self, port: int) -> list[str]:
        """Answer every repeat key once (the first answers)."""
        problems = []
        self.first.clear()
        for kind, kernel in wl.WARM_KEYS:
            payload = {"kind": kind, "kernel": kernel}
            status, body, _ = post(port, payload)
            problems += self.check("fill", payload, status, body)
            if status == 200:
                self.first[(kind, kernel)] = body["result"]
        payload = self.stream.cold()  # the discarded warm-up op
        status, body, _ = post(port, payload)
        return problems + self.check("first", payload, status, body)

    def closed_loop(self, port: int, seconds: float):
        """``CONNECTIONS`` clients, each sending its next request when
        the last one is answered, for ``seconds``.  The loop runs in
        slices of ``SLICE_S`` with a host tick between slices (no request
        in flight), so every request carries its slice's speed scale.
        Returns the records and the region's wall at reference speed."""
        records = []
        region = 0.0
        begin = time.perf_counter()
        tick = host_tick()
        while time.perf_counter() - begin < seconds:
            slice_end = min(time.perf_counter() + SLICE_S, begin + seconds)
            batch = []

            def client():
                while time.perf_counter() < slice_end:
                    with self.lock:
                        cls, payload = self.stream.next()
                    try:
                        status, body, latency = post(port, payload)
                    except (OSError, ValueError, http.client.HTTPException) as exc:
                        status, body, latency = 0, {"error": repr(exc)}, None
                    batch.append((cls, payload, status, body, latency))

            started = time.perf_counter()
            threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            next_tick = host_tick()
            factor = scale(tick, next_tick)
            tick = next_tick
            region += wall * factor
            records += [record + (factor,) for record in batch]
        return records, region

    def tally(self, records):
        """``(failed, problems, responses, latencies at reference speed)``."""
        failed, problems, responses, latencies = 0, [], [], []
        for cls, payload, status, body, latency, factor in records:
            found = self.check(cls, payload, status, body)
            if found:
                failed += 1
                problems += found
                continue
            latencies.append(latency * factor)
            responses.append((payload["kind"], body["wall_s"], body["warm"],
                              cls == "repeat", latency))
        return failed, problems, responses, latencies


def run_service(args) -> None:
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        _run_service(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run_service(args, run_dir: Path) -> None:
    work = ServiceMixed(args.seed)
    if args.mode != "traced":
        proc, port = work.start_subprocess(run_dir / "store")
        try:
            setup_problems = work.fill(port)
            emit("ready")
            if args.mode == "setup":
                emit("result", problems=setup_problems)
                return
            records, region = work.closed_loop(port, args.seconds)
            rss_kb = vm_hwm_kb(proc.pid) + sum(
                vm_hwm_kb(p) for p in children_of(proc.pid))
        finally:
            work.stop_subprocess(proc, port)
        failed, problems, _, latencies = work.tally(records)
        attempted = len(records)
        emit(
            "result",
            attempted=attempted,
            failed=failed,
            problems=(setup_problems + problems)[:20],
            samples=len(latencies),
            mix={"first": sum(1 for r in records if r[0] == "first"),
                 "repeat": sum(1 for r in records if r[0] == "repeat")},
            metrics={
                "ops_per_s": (attempted - failed) / region,
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_p99_ms": percentile(latencies, 99) * 1e3,
                "peak_rss_mb": rss_kb / 1024.0,
                "ok_rate": (attempted - failed) / attempted,
            },
        )
        return

    # traced: an in-process server, first plain, then with wrappers.
    from repro import obs

    obs.enable()  # as ``repro serve`` does: it keeps counters for its ledger
    handle, port = work.start_inprocess(run_dir / "store-plain")
    try:
        setup_problems = work.fill(port)
        emit("ready")
        plain, plain_region = work.closed_loop(port, args.seconds / 2)
    finally:
        work.stop_inprocess(handle)
    tracer = LayerTracer()
    tracer.install()  # before the pool forks, so workers inherit it
    handle, port = work.start_inprocess(run_dir / "store-traced")
    try:
        setup_problems += work.fill(port)
        scraped_before = scrape(port)
        tracer.reset()  # count the timed loop only
        traced, traced_region = work.closed_loop(port, args.seconds / 2)
        scraped_after = scrape(port)
    finally:
        work.stop_inprocess(handle)
    delta = counter_delta(scraped_after, scraped_before)
    tracer.merge_counters(
        {name: delta.get(prom_name(name), 0) for name in tracer.counter_names()})
    plain_failed, plain_problems, _, _ = work.tally(plain)
    failed, problems, responses, _ = work.tally(traced)
    metrics = layer_metrics(tracer)
    ratios, bases = counter_ratios(delta)
    metrics.update(ratios)
    metrics.update(api_metrics(responses))
    metrics.update(cache_sizes())
    metrics.update({
        "trace.overhead_ratio": ((traced_region / max(1, len(traced)))
                                 / (plain_region / max(1, len(plain)))),
        "trace.ops": len(traced),
        "trace.op_wall_s": traced_region,
        "trace.fingerprint_mismatches": 0,
        "trace.workers_inherit_wrappers": int(tracer.worker_calls > 0),
        "transform.tile_footprints.op_share": ratio(
            metrics["transform.tile_footprints.self_s"], traced_region),
    })
    emit(
        "result",
        attempted=len(plain) + len(traced),
        failed=plain_failed + failed,
        problems=(setup_problems + plain_problems + problems)[:20],
        invariant_problems=[],
        metrics=metrics,
        ratio_bases=bases,
        worker_wrapped_calls=tracer.worker_calls,
        program_counters={k: v for k, v in delta.items()
                          if not k.startswith("repro_perfbench_")},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("figure2-cold", "hierarchy-tiling", "service-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    args = parser.parse_args(argv)
    if args.mode == "traced":
        wl.self_check()
    if args.workload == "service-mixed":
        run_service(args)
    elif args.workload == "figure2-cold":
        run_compute(Figure2Cold, args)
    else:
        run_compute(HierarchyTiling, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

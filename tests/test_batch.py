"""The ``repro batch`` service: manifests, dedup, degradation, timeouts,
and warm/cold parity against the persistent store."""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.obs import flight, runctx
from repro.store import (
    BatchOutcome,
    ResultStore,
    load_manifest,
    render_batch_table,
    run_batch,
)
from repro.transform.search import clear_exact_cache


@pytest.fixture
def observer():
    observer = obs.enable()
    try:
        yield observer
    finally:
        obs.disable()


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_exact_cache()
    yield
    clear_exact_cache()


def _write_manifest(tmp_path, payload):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestManifest:
    def test_plain_list(self, tmp_path):
        path = _write_manifest(tmp_path, [{"kind": "mws", "kernel": "sor"}])
        assert load_manifest(path) == [{"kind": "mws", "kernel": "sor"}]

    def test_items_wrapper(self, tmp_path):
        path = _write_manifest(
            tmp_path, {"items": [{"kind": "optimize", "kernel": "sor"}]}
        )
        assert load_manifest(path) == [{"kind": "optimize", "kernel": "sor"}]

    def test_non_list_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, {"kernels": ["sor"]})
        with pytest.raises(ValueError, match="manifest must be a JSON list"):
            load_manifest(path)

    def test_checked_in_figure2_manifest_loads(self):
        entries = load_manifest("benchmarks/manifests/figure2.json")
        assert len(entries) >= 8


class TestRunBatch:
    def test_kernel_items_evaluate(self):
        report = run_batch(
            [{"kind": "mws", "kernel": "2point"},
             {"kind": "optimize", "kernel": "2point"}]
        )
        assert report.ok
        assert [o.status for o in report.outcomes] == ["ok", "ok"]
        assert report.outcomes[0].result["mws"] is not None
        assert report.outcomes[1].result["mws_after"] is not None

    def test_file_items_evaluate(self, tmp_path):
        src = tmp_path / "nest.loop"
        src.write_text(
            "for i = 1 to 6 { for j = 1 to 6 { "
            "X[i + j] = X[i + j - 1] } }",
            encoding="utf-8",
        )
        report = run_batch([{"kind": "search", "file": str(src), "array": "X"}])
        assert report.ok
        assert report.outcomes[0].result["array"] == "X"

    def test_identical_work_is_deduped(self, observer):
        report = run_batch(
            [{"kind": "optimize", "kernel": "sor"},
             {"kind": "optimize", "kernel": "2point"},
             {"kind": "optimize", "kernel": "sor"}]
        )
        assert report.unique_items == 2
        assert report.deduped_items == 1
        alias = report.outcomes[2]
        assert alias.duplicate_of == 0
        assert alias.result == report.outcomes[0].result
        assert observer.counters["batch.items.deduped"] == 1

    def test_malformed_items_degrade_not_abort(self, observer):
        report = run_batch(
            [{"kind": "mws", "kernel": "2point"},
             {"kind": "frobnicate", "kernel": "sor"},     # unknown kind
             {"kind": "mws"},                              # no target
             {"kind": "mws", "kernel": "no_such_kernel"},  # bad kernel
             "not-an-object"]
        )
        statuses = [o.status for o in report.outcomes]
        assert statuses == ["ok", "error", "error", "error", "error"]
        assert not report.ok
        assert "unknown kind 'frobnicate'" in report.outcomes[1].error
        assert "exactly one of 'kernel' or 'file'" in report.outcomes[2].error
        assert observer.counters["batch.items.error"] == 4
        assert observer.counters["batch.items.ok"] == 1

    def test_evaluator_exception_degrades(self, observer):
        report = run_batch(
            [{"kind": "mws", "kernel": "2point"},
             {"kind": "mws", "kernel": "sor"}],
            evaluator=_explosive_evaluator,
        )
        by_target = {o.item.target: o for o in report.outcomes}
        assert by_target["sor"].status == "error"
        assert "RuntimeError: boom" in by_target["sor"].error
        assert by_target["2point"].status == "ok"

    def test_parallel_timeout_degrades(self, observer):
        report = run_batch(
            [{"kind": "mws", "kernel": "2point"},
             {"kind": "mws", "kernel": "sor"}],
            workers=2,
            timeout=0.5,
            evaluator=_sleepy_evaluator,
        )
        by_target = {o.item.target: o for o in report.outcomes}
        assert by_target["sor"].status == "timeout"
        assert "timed out after 0.5s" in by_target["sor"].error
        assert by_target["2point"].status == "ok"
        assert observer.counters["batch.item.timeout"] == 1
        # The retired legacy spelling must never be emitted again.
        assert "batch.items.timeout" not in observer.counters
        # The hung worker was killed and respawned: the slot is free.
        assert observer.counters["batch.worker.reclaimed"] == 1

    def test_hanging_items_do_not_deadlock_pool(self, observer):
        """ISSUE 10 S1 regression: with the old abandon-the-future
        timeout, ``workers`` hanging items permanently occupied every
        ProcessPoolExecutor slot and the rest of the batch deadlocked.
        The reclaimable pool kills+respawns each hung worker, so two
        hangs on a two-slot pool still let the third item complete."""
        report = run_batch(
            [{"kind": "mws", "kernel": "sor"},
             {"kind": "mws", "kernel": "3point"},
             {"kind": "mws", "kernel": "2point"}],
            workers=2,
            timeout=1.0,
            evaluator=_hang_all_but_2point_evaluator,
        )
        by_target = {o.item.target: o for o in report.outcomes}
        assert by_target["sor"].status == "timeout"
        assert by_target["3point"].status == "timeout"
        assert by_target["2point"].status == "ok"
        assert observer.counters["batch.worker.reclaimed"] == 2
        assert observer.counters["batch.item.timeout"] == 2

    def test_parallel_matches_serial(self):
        entries = [
            {"kind": "optimize", "kernel": "2point"},
            {"kind": "optimize", "kernel": "3point"},
            {"kind": "mws", "kernel": "sor"},
        ]
        serial = run_batch(entries, workers=0)
        clear_exact_cache()
        parallel = run_batch(entries, workers=2)
        assert [o.result for o in serial.outcomes] == \
            [o.result for o in parallel.outcomes]


class TestWarmColdParity:
    ENTRIES = [
        {"kind": "optimize", "kernel": "2point"},
        {"kind": "optimize", "kernel": "sor"},
        {"kind": "mws", "kernel": "sor"},
    ]

    def test_warm_rerun_is_byte_identical_and_store_served(
        self, tmp_path, observer
    ):
        cold = run_batch(self.ENTRIES, store=ResultStore(tmp_path))
        cold_writes = observer.counters["store.writes"]
        assert cold_writes > 0
        clear_exact_cache()
        warm = run_batch(self.ENTRIES, store=ResultStore(tmp_path))
        assert render_batch_table(warm) == render_batch_table(cold)
        assert observer.counters["store.disk.hits"] > 0
        # The warm run recomputed nothing, so it persisted nothing new.
        assert observer.counters["store.writes"] == cold_writes
        histograms = observer.summary()["histograms"]
        assert histograms["batch.latency.warm_s"]["count"] >= 1
        assert histograms["batch.latency.cold_s"]["count"] >= 1

    def test_storeless_run_matches_stored_run(self, tmp_path):
        with_store = run_batch(self.ENTRIES, store=ResultStore(tmp_path))
        clear_exact_cache()
        without = run_batch(self.ENTRIES)
        assert render_batch_table(with_store) == render_batch_table(without)


class TestRenderTable:
    def test_table_is_deterministic_and_marks_duplicates(self):
        report = run_batch(
            [{"kind": "mws", "kernel": "2point"},
             {"kind": "mws", "kernel": "2point"}]
        )
        table = render_batch_table(report)
        assert table == render_batch_table(report)
        assert "(= item 0)" in table
        assert "2 item(s): 1 unique, 1 deduped, 0 failed" in table
        assert "wall" not in table  # no timing: cold == warm bytes

    def test_failures_summarized(self):
        report = run_batch([{"kind": "nope", "kernel": "sor"}])
        table = render_batch_table(report)
        assert "1 failed" in table


class TestCLI:
    def test_batch_command_smoke(self, tmp_path, capsys):
        from repro.cli import main

        manifest = _write_manifest(
            tmp_path,
            [{"kind": "mws", "kernel": "2point"},
             {"kind": "mws", "kernel": "2point"}],
        )
        store_dir = tmp_path / "store"
        code = main(["--store", str(store_dir), "batch", str(manifest)])
        cold = capsys.readouterr()
        assert code == 0
        assert "(= item 0)" in cold.out
        clear_exact_cache()
        code = main(["--store", str(store_dir), "batch", str(manifest)])
        warm = capsys.readouterr()
        assert code == 0
        assert warm.out == cold.out
        assert "store (disk)" in warm.err

    def test_batch_command_fails_on_bad_item(self, tmp_path, capsys):
        from repro.cli import main

        manifest = _write_manifest(tmp_path, [{"kind": "nope", "kernel": "x"}])
        code = main(["batch", str(manifest)])
        assert code == 1
        assert "error" in capsys.readouterr().out


class TestTimeoutTelemetry:
    """ISSUE 7 satellite: a timed-out item's worker counters must not
    vanish — the parent recovers the worker's last heartbeat snapshot,
    counts the timeout, and attributes it on the run context."""

    @pytest.fixture
    def run_ctx(self, tmp_path):
        ctx = runctx.begin_run("batch", live_dir=tmp_path / "live")
        try:
            yield ctx
        finally:
            runctx.end_run()

    def test_timeout_recovers_partial_counters(
        self, observer, run_ctx, monkeypatch
    ):
        # Fast heartbeats so the doomed worker flushes at least one
        # counter snapshot before the 1s deadline (workers inherit the
        # environment at pool start).
        monkeypatch.setenv(flight.HEARTBEAT_ENV, "0.05")
        report = run_batch(
            [{"kind": "mws", "kernel": "2point"},
             {"kind": "mws", "kernel": "sor"}],
            workers=2,
            timeout=1.0,
            evaluator=_counting_sleepy_evaluator,
        )
        by_target = {o.item.target: o for o in report.outcomes}
        assert by_target["sor"].status == "timeout"
        assert by_target["2point"].status == "ok"
        # Only the canonical counter name; the legacy alias is retired.
        assert observer.counters["batch.item.timeout"] == 1
        assert "batch.items.timeout" not in observer.counters
        # The counter bumped *inside* the abandoned worker survived via
        # its heartbeat snapshot — no more silent telemetry loss.
        assert observer.counters["test.batch.partial"] == 7

        (attribution,) = run_ctx.extras["timeouts"]
        assert "sor" in attribution["item"]
        assert attribution["sig"]
        assert attribution["timeout_s"] == 1.0
        assert attribution["recovered_counters"]["test.batch.partial"] == 7

        events = flight.read_heartbeats(run_ctx.live_path)
        kinds = [e["ev"] for e in events]
        assert "item_start" in kinds
        assert "progress" in kinds
        assert "item_timeout" in kinds
        assert "batch_progress" in kinds
        assert all(e["run"] == run_ctx.run_id for e in events)
        done = [e for e in events if e["ev"] == "batch_progress"]
        assert done[-1]["done"] == done[-1]["total"] == 2

    def test_serial_run_emits_lifecycle_heartbeats(self, observer, run_ctx):
        run_batch([{"kind": "mws", "kernel": "2point"}])
        events = flight.read_heartbeats(run_ctx.live_path)
        kinds = [e["ev"] for e in events]
        assert kinds.count("item_start") == 1
        assert kinds.count("item_done") == 1
        assert kinds[-1] == "batch_progress"

    def test_serial_error_heartbeat(self, observer, run_ctx):
        run_batch(
            [{"kind": "mws", "kernel": "sor"}],
            evaluator=_explosive_evaluator,
        )
        kinds = [
            e["ev"] for e in flight.read_heartbeats(run_ctx.live_path)
        ]
        assert "item_error" in kinds

    def test_no_context_no_heartbeat_files(self, observer, tmp_path):
        # Without a run context the flight recorder is fully inert.
        run_batch([{"kind": "mws", "kernel": "2point"}])
        assert flight.live_path() is None


# Module-level so the batch machinery can pickle them to pool workers.
def _sleepy_evaluator(kind, program, array, store):
    if program.name == "sor":
        time.sleep(30)
    from repro.store.batch import _default_evaluator

    return _default_evaluator(kind, program, array, store)


def _explosive_evaluator(kind, program, array, store):
    if program.name == "sor":
        raise RuntimeError("boom")
    from repro.store.batch import _default_evaluator

    return _default_evaluator(kind, program, array, store)


def _hang_all_but_2point_evaluator(kind, program, array, store):
    if program.name != "2point":
        time.sleep(30)
    from repro.store.batch import _default_evaluator

    return _default_evaluator(kind, program, array, store)


def _counting_sleepy_evaluator(kind, program, array, store):
    if program.name == "sor":
        # Accrue telemetry, then blow the deadline: the bumped counter
        # must come back to the parent via the heartbeat snapshot.
        obs.counter("test.batch.partial", 7)
        time.sleep(30)
    from repro.store.batch import _default_evaluator

    return _default_evaluator(kind, program, array, store)


class TestWarmDefinition:
    """Warm means the item's counter delta shows no fresh work."""

    @pytest.mark.parametrize("counter", [
        "engine.fast.calls",
        "engine.streaming.calls",
        "param.derived",
        "param.derive_failed",
        "store.misses",
    ])
    def test_fresh_work_is_cold(self, counter):
        from repro.store.batch import _is_warm

        assert not _is_warm({"store.mem.hits": 3, counter: 1})

    @pytest.mark.parametrize("delta", [
        {},
        {"search.cache.hits": 4},
        {"store.mem.hits": 2, "store.disk.hits": 1},
        {"engine.fast.calls": 0, "store.misses": 0},
    ], ids=["nothing", "memo-hit", "store-hit", "zero-entries"])
    def test_memo_and_store_answers_are_warm(self, delta):
        from repro.store.batch import _is_warm

        assert _is_warm(delta)

"""The :mod:`repro.api` facade (ISSUE 10 tentpole, layer 1).

One entry path for the CLI, the batch runner, and the HTTP service:
request validation, the six-kind dispatch, inline and pooled
evaluation, the shared timeout path (worker reclaimed, slot stays
usable), and warm-request detection against the persistent store.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.api import (
    AnalysisRequest,
    AnalysisService,
    KINDS,
    build_request,
    evaluate_kind,
)
from repro.kernels import kernel_by_name
from repro.store import ResultStore
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


LOOP = (
    "for i = 1 to 8 { for j = 1 to 8 { "
    "A[i + j] = A[i + j - 1] + 1 } }"
)


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------

class TestBuildRequest:
    def test_minimal_kernel_request(self):
        request = build_request({"kind": "mws", "kernel": "sor"})
        assert request.kind == "mws"
        assert request.kernel == "sor"
        assert request.target == "sor"
        assert request.timeout is None

    def test_kind_defaults_to_analyze(self):
        assert build_request({"kernel": "sor"}).kind == "analyze"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind 'frobnicate'"):
            build_request({"kind": "frobnicate", "kernel": "sor"})

    def test_exactly_one_target_required(self):
        with pytest.raises(ValueError, match="exactly one of"):
            build_request({"kind": "mws"})
        with pytest.raises(ValueError, match="exactly one of"):
            build_request({"kind": "mws", "kernel": "sor", "source": LOOP})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            build_request("sor")

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout must be > 0"):
            build_request({"kernel": "sor", "timeout": 0})
        with pytest.raises(ValueError):
            build_request({"kernel": "sor", "timeout": "soon"})

    def test_knobs_pass_through(self):
        request = build_request({
            "kind": "hierarchy", "source": LOOP, "name": "nest",
            "array": "A", "preset": "cache", "timeout": 2.5,
        })
        assert request.preset == "cache"
        assert request.array == "A"
        assert request.timeout == 2.5
        assert request.target == "nest"


# ----------------------------------------------------------------------
# the six-kind dispatch
# ----------------------------------------------------------------------

class TestEvaluateKind:
    @pytest.fixture(scope="class")
    def program(self):
        return kernel_by_name("2point").build()

    def test_optimize(self, program):
        result = evaluate_kind("optimize", program)
        assert result["mws_after"] <= result["mws_before"]
        assert result["t"]

    def test_search(self, program):
        result = evaluate_kind("search", program)
        assert result["array"] == program.arrays[0]
        assert result["exact"] is not None

    def test_mws(self, program):
        result = evaluate_kind("mws", program, array=program.arrays[0])
        assert result["mws"] is not None

    def test_analyze_covers_every_array(self, program):
        result = evaluate_kind("analyze", program)
        assert set(result["mws"]) == set(program.arrays)
        assert result["mws_total"] is not None
        assert result["footprint"] > 0

    def test_hierarchy_roundtrips_store(self, tmp_path, observer):
        store = ResultStore(tmp_path)
        program = kernel_by_name("2point").build()
        cold = evaluate_kind("hierarchy", program, store=store)
        assert cold["preset"] == "tcm"
        assert cold["tiers_needed"] >= 1
        warm = evaluate_kind("hierarchy", program, store=store)
        assert warm == cold
        assert observer.counters["store.mem.hits"] >= 1

    def test_param(self, program):
        result = evaluate_kind("param", program)
        assert result["array"] == program.arrays[0]
        assert "mws_expr" in result and "distinct_expr" in result

    def test_unknown_kind_raises(self, program):
        with pytest.raises(ValueError, match="unknown kind"):
            evaluate_kind("nope", program)

    def test_kinds_tuple_matches_dispatch(self):
        assert KINDS == (
            "optimize", "search", "mws", "analyze", "hierarchy", "param"
        )


# ----------------------------------------------------------------------
# the service: inline evaluation + warm detection
# ----------------------------------------------------------------------

class TestServiceInline:
    def test_evaluate_kernel_request(self, observer):
        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
        assert response.ok
        assert response.status == "ok"
        assert response.result["mws"] is not None
        assert response.wall_s > 0
        assert observer.counters["batch.items.ok"] == 1

    def test_evaluate_source_request(self):
        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "analyze", "source": LOOP, "name": "nest"}
            ))
        assert response.ok
        assert response.target == "nest"
        assert response.result["mws"]["A"] is not None

    def test_evaluate_file_request(self, tmp_path):
        path = tmp_path / "nest.loop"
        path.write_text(LOOP, encoding="utf-8")
        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "mws", "file": str(path), "array": "A"}
            ))
        assert response.ok

    def test_evaluate_error_is_a_response_not_a_raise(self, observer):
        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "mws", "kernel": "no_such_kernel"}
            ))
        assert response.status == "error"
        assert "KeyError" in response.error
        assert observer.counters["batch.items.error"] == 1

    def test_response_is_json_ready(self):
        import json

        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
        json.dumps(response.as_dict())

    def test_warm_request_does_zero_engine_work(self, tmp_path, observer):
        # The acceptance property behind the whole service: compute
        # once, then serve every identical request from the store.
        with AnalysisService(store=tmp_path) as svc:
            request = build_request({"kind": "optimize", "kernel": "2point"})
            cold = svc.evaluate(request)
            assert cold.ok and not cold.warm
            clear_exact_cache()
            engine_calls_after_cold = sum(
                value for name, value in observer.counters.items()
                if name.startswith("engine.") and name.endswith(".calls")
            )
            warm = svc.evaluate(request)
            assert warm.ok and warm.warm
            assert warm.result == cold.result
            engine_calls_after_warm = sum(
                value for name, value in observer.counters.items()
                if name.startswith("engine.") and name.endswith(".calls")
            )
            assert engine_calls_after_warm == engine_calls_after_cold

    def test_store_accepts_path_or_instance(self, tmp_path):
        svc = AnalysisService(store=str(tmp_path))
        assert isinstance(svc.store, ResultStore)
        svc.close()
        store = ResultStore(tmp_path)
        svc = AnalysisService(store=store)
        assert svc.store is store
        svc.close()


# ----------------------------------------------------------------------
# the service: pooled evaluation + the shared timeout path
# ----------------------------------------------------------------------

class TestServicePooled:
    def test_submit_runs_on_pool(self, observer):
        with AnalysisService(workers=1) as svc:
            response = svc.submit(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
        assert response.ok
        assert response.result["mws"] is not None
        assert observer.counters["batch.items.ok"] == 1

    def test_submit_timeout_reclaims_worker_and_slot_survives(
        self, observer
    ):
        # The ISSUE 10 acceptance bullet: a hanging request times out
        # without consuming a pool slot for subsequent requests.
        with AnalysisService(workers=1) as svc:
            hung = svc.submit(
                build_request({"kind": "mws", "kernel": "2point"}),
                timeout=0.5,
                evaluator=_hang_evaluator,
            )
            assert hung.status == "timeout"
            assert "timed out after 0.5s" in hung.error
            assert observer.counters["batch.worker.reclaimed"] == 1
            assert observer.counters["batch.item.timeout"] == 1
            # The single slot was killed and respawned: the next
            # request on the same one-worker pool must succeed.
            after = svc.submit(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
            assert after.ok

    def test_submit_error_degrades(self, observer):
        with AnalysisService(workers=1) as svc:
            response = svc.submit(
                build_request({"kind": "mws", "kernel": "2point"}),
                evaluator=_explode_evaluator,
            )
        assert response.status == "error"
        assert "RuntimeError: kaboom" in response.error
        assert observer.counters["batch.items.error"] == 1

    def test_workers_zero_degrades_to_inline(self):
        with AnalysisService(workers=0) as svc:
            response = svc.submit(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
        assert response.ok

    def test_bad_request_fails_before_pool_spawn(self, observer):
        with AnalysisService(workers=1) as svc:
            response = svc.submit(build_request(
                {"kind": "mws", "kernel": "no_such_kernel"}
            ))
            assert response.status == "error"
            assert svc._pool is None  # nothing hit the pool

    def test_closed_service_rejects_pooled_work(self):
        svc = AnalysisService(workers=1)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(build_request({"kind": "mws", "kernel": "2point"}))

    def test_batch_delegates_to_run_batch(self, tmp_path):
        with AnalysisService(store=tmp_path) as svc:
            report = svc.batch([
                {"kind": "mws", "kernel": "2point"},
                {"kind": "mws", "kernel": "2point"},
            ])
        assert report.ok
        assert report.deduped_items == 1


# ----------------------------------------------------------------------
# observability read side
# ----------------------------------------------------------------------

class TestServiceReadSide:
    def test_metrics_text(self, observer):
        with AnalysisService() as svc:
            svc.evaluate(build_request({"kind": "mws", "kernel": "2point"}))
            text = svc.metrics_text()
        assert "repro_batch_items_ok_total 1" in text

    def test_metrics_text_empty_without_observer(self):
        with AnalysisService() as svc:
            assert svc.metrics_text() == ""

    def test_compact_and_runs_storeless_are_inert(self):
        with AnalysisService() as svc:
            assert svc.compact() is None
            assert svc.run_record("last") is None
            assert svc.run_ids() == []

    def test_compact_sweeps_the_service_store(self, tmp_path):
        with AnalysisService(store=tmp_path) as svc:
            svc.evaluate(build_request({"kind": "mws", "kernel": "2point"}))
            report = svc.compact()
        assert report.scanned >= 1
        assert report.corrupt_deleted == 0


# Module-level so the service can pickle them to pool workers.
def _hang_evaluator(kind, program, array, store):
    time.sleep(30)


def _explode_evaluator(kind, program, array, store):
    raise RuntimeError("kaboom")


# ----------------------------------------------------------------------
# warm detection: the request's own counter delta, memo hits included
# ----------------------------------------------------------------------

def _clear_memos():
    from repro.estimation.parametric import clear_param_cache
    from repro.transform.search import clear_search_cache
    from repro.window.fast import clear_iteration_cache

    clear_exact_cache()
    clear_search_cache()
    clear_param_cache()
    clear_iteration_cache()


class TestWarmFlag:
    """First request computes (cold); the identical repeat does no fresh
    work — answered by an in-process memo or the store — and is warm."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_inline_repeat_is_warm(self, kind, tmp_path, observer):
        _clear_memos()
        request = build_request({"kind": kind, "kernel": "sor"})
        with AnalysisService(store=tmp_path, workers=0) as svc:
            cold = svc.evaluate(request)
            warm = svc.evaluate(request)
        assert cold.ok and cold.warm is False
        assert warm.ok and warm.warm is True
        assert warm.result == cold.result

    @pytest.mark.parametrize("kind", KINDS)
    def test_pooled_repeat_is_warm(self, kind, tmp_path, observer):
        _clear_memos()  # the forked worker inherits the parent's memos
        request = build_request({"kind": kind, "kernel": "sor"})
        with AnalysisService(store=tmp_path, workers=1) as svc:
            cold = svc.submit(request)
            warm = svc.submit(request)
        assert cold.ok and cold.warm is False
        assert warm.ok and warm.warm is True
        assert warm.result == cold.result

    def test_no_observer_means_unknown(self):
        obs.disable()
        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
        assert response.ok and response.warm is None

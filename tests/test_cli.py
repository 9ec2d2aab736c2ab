"""Tests for the command-line interface."""

import pytest

from repro.cli import main

EXAMPLE_7 = """
for i = 1 to 20 {
  for j = 1 to 30 {
    X[2*i - 3*j]
  }
}
"""


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.txt"
    path.write_text(EXAMPLE_7)
    return str(path)


class TestCli:
    def test_analyze(self, loop_file, capsys):
        assert main(["analyze", loop_file]) == 0
        out = capsys.readouterr().out
        assert "max window size" in out
        assert "86" in out

    def test_engine_flag_is_rejected(self, loop_file, capsys):
        # One window path: the retired --engine flag is an argparse error.
        with pytest.raises(SystemExit) as info:
            main(["--engine", "fast", "analyze", loop_file])
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(["analyze", loop_file, "--engine", "fast"])
        assert info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_dependences(self, loop_file, capsys):
        assert main(["dependences", loop_file]) == 0
        out = capsys.readouterr().out
        # Paper: "The only dependence in this example is the vector (3, 2)".
        assert "input" in out and "(3, 2)" in out

    def test_dependences_no_input(self, loop_file, capsys):
        assert main(["dependences", "--no-input", loop_file]) == 0
        assert "no constant-distance dependences" in capsys.readouterr().out

    def test_optimize(self, loop_file, capsys):
        assert main(["optimize", loop_file]) == 0
        out = capsys.readouterr().out
        assert "MWS before : 86" in out
        assert "MWS after" in out

    def test_optimize_codegen(self, loop_file, capsys):
        assert main(["optimize", "--codegen", loop_file]) == 0
        out = capsys.readouterr().out
        assert "for u1 =" in out

    def test_size(self, loop_file, capsys):
        assert main(["size", loop_file]) == 0
        out = capsys.readouterr().out
        assert "provisioned" in out

    def test_size_optimized_smaller(self, loop_file, capsys):
        main(["size", loop_file])
        plain = capsys.readouterr().out
        main(["size", "--optimized", loop_file])
        optimized = capsys.readouterr().out

        def mws(text):
            line = next(l for l in text.splitlines() if "maximum window" in l)
            return int(line.split(":")[1].split()[0])

        assert mws(optimized) < mws(plain)

    def test_figure2_single_kernel(self, capsys):
        assert main(["figure2", "--kernel", "matmult"]) == 0
        out = capsys.readouterr().out
        assert "matmult" in out and "273" in out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/loop.txt"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("for i = 1 to { }")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_kernel(self, capsys):
        assert main(["figure2", "--kernel", "nope"]) == 1


class TestCliExtensions:
    def test_buffer(self, tmp_path, capsys):
        path = tmp_path / "ex8.txt"
        path.write_text(
            "for i = 1 to 25 { for j = 1 to 10 { "
            "X[2*i + 5*j + 1] = X[2*i + 5*j + 5] } }"
        )
        assert main(["buffer", str(path)]) == 0
        out = capsys.readouterr().out
        assert "MWS=44" in out and "modulus=44" in out
        assert "X_buf[" in out

    def test_buffer_optimized(self, tmp_path, capsys):
        path = tmp_path / "ex8.txt"
        path.write_text(
            "for i = 1 to 25 { for j = 1 to 10 { "
            "X[2*i + 5*j + 1] = X[2*i + 5*j + 5] } }"
        )
        assert main(["buffer", "--optimized", str(path)]) == 0
        assert "MWS=21" in capsys.readouterr().out

    def test_distribute(self, tmp_path, capsys):
        path = tmp_path / "pair.txt"
        path.write_text(
            "for i = 1 to 9 {\n  S1: T[i] = A[i]\n  S2: B[i] = T[i] + T[i-1]\n}"
        )
        assert main(["distribute", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 nest(s)" in out

    def test_viz(self, loop_file, capsys):
        assert main(["viz", loop_file]) == 0
        out = capsys.readouterr().out
        assert "window of X over time" in out
        assert "#" in out


class TestCliObservability:
    def test_trace_writes_jsonl_and_prints_summary(self, loop_file, tmp_path, capsys):
        import json

        from repro.transform.search import clear_exact_cache

        clear_exact_cache()  # a warm cache would skip the simulate spans
        trace = tmp_path / "trace.jsonl"
        assert main(["--trace", str(trace), "optimize", loop_file]) == 0
        captured = capsys.readouterr()
        assert "MWS before" in captured.out
        assert "trace written to" in captured.err
        assert "span" in captured.err and "counter" in captured.err
        events = [json.loads(l) for l in trace.read_text().splitlines()]
        assert events[0]["ev"] == "meta"
        span_paths = {e["path"] for e in events if e["ev"] == "span"}
        assert any("optimize" in p for p in span_paths)
        assert any(p.endswith("simulate") for p in span_paths)
        assert events[-1]["ev"] == "summary"

    def test_trace_disabled_after_run(self, loop_file, tmp_path):
        from repro import obs

        trace = tmp_path / "t.jsonl"
        main(["--trace", str(trace), "analyze", loop_file])
        assert not obs.enabled()

    def test_workers_flag_matches_serial(self, loop_file, capsys):
        from repro.transform.search import clear_exact_cache

        clear_exact_cache()
        assert main(["optimize", loop_file]) == 0
        serial = capsys.readouterr().out
        clear_exact_cache()
        assert main(["--workers", "2", "optimize", loop_file]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_figure2_accepts_workers(self, capsys):
        assert main(["--workers", "2", "figure2", "--kernel", "matmult"]) == 0
        assert "matmult" in capsys.readouterr().out


class TestCliHierarchy:
    def test_hierarchy_kernel_target(self, capsys):
        assert main(["hierarchy", "sor", "--preset", "tcm"]) == 0
        out = capsys.readouterr().out
        assert "through hierarchy 'tcm'" in out
        assert "tier" in out and "offchip" in out
        assert "joint (transformation, tile, placement) search:" in out
        assert "saving" in out

    def test_hierarchy_file_target(self, loop_file, capsys):
        assert main(["hierarchy", loop_file, "--preset", "cache"]) == 0
        out = capsys.readouterr().out
        assert "through hierarchy 'cache'" in out
        assert "l1" in out and "sram" in out

    def test_hierarchy_no_search(self, loop_file, capsys):
        assert main(["hierarchy", loop_file, "--no-search"]) == 0
        out = capsys.readouterr().out
        assert "joint" not in out
        assert "energy" in out

    def test_hierarchy_native_restricts_candidates(self, loop_file, capsys):
        assert main(["hierarchy", loop_file, "--native"]) == 0
        out = capsys.readouterr().out
        assert "T=native" in out

    def test_hierarchy_lru_policy(self, loop_file, capsys):
        assert main(["hierarchy", loop_file, "--policy", "lru",
                     "--no-search"]) == 0
        assert "offchip transfers" in capsys.readouterr().out

    def test_hierarchy_output_deterministic(self, loop_file, capsys):
        assert main(["hierarchy", loop_file, "--preset", "tcm"]) == 0
        first = capsys.readouterr().out
        assert main(["hierarchy", loop_file, "--preset", "tcm"]) == 0
        assert capsys.readouterr().out == first

    def test_hierarchy_unknown_preset(self, loop_file, capsys):
        assert main(["hierarchy", loop_file, "--preset", "dram"]) == 1
        err = capsys.readouterr().err
        assert "unknown hierarchy preset" in err
        assert "tcm, cache, flat" in err

    def test_optimize_with_hierarchy_flag(self, loop_file, capsys):
        assert main(["optimize", loop_file, "--hierarchy", "tcm"]) == 0
        out = capsys.readouterr().out
        assert "hierarchy plan (tcm):" in out
        assert "joint :" in out and "flat  :" in out


class TestCliStoreCompact:
    def test_requires_store(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert main(["store-compact"]) == 1
        assert "no store" in capsys.readouterr().err

    def test_compacts_and_reports(self, tmp_path, capsys):
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        store.put("mws", {"k": 1}, {"mws": 3})
        bad = store.record_path("mws", {"k": 2})
        bad.write_text("{truncated", encoding="utf-8")
        assert main(["--store", str(tmp_path), "store-compact"]) == 0
        out = capsys.readouterr().out
        assert "deleted 1 corrupt" in out
        assert not bad.exists()
        # Second sweep is a no-op on the now-clean store.
        assert main(["--store", str(tmp_path), "store-compact"]) == 0
        assert "deleted 0 corrupt" in capsys.readouterr().out


class TestCliServe:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.quota_rate is None and not args.no_quota
        assert args.queue_limit is None
        assert args.compact_interval is None

    def test_serve_end_to_end_seals_ledger(self, tmp_path):
        # The CLI path: subprocess `repro serve`, ephemeral port parsed
        # from stdout, one request, graceful shutdown, and the sealed
        # ledger record carries command "serve".
        import json
        import subprocess
        import sys
        import urllib.request

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--store", str(tmp_path),
             "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            url = line.strip().rsplit(" ", 1)[-1]
            with urllib.request.urlopen(f"{url}/healthz", timeout=30) as r:
                assert json.loads(r.read())["status"] == "ok"
            req = urllib.request.Request(
                f"{url}/shutdown", data=b"{}", method="POST")
            with urllib.request.urlopen(req, timeout=30) as r:
                assert r.status == 202
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        from repro.obs.ledger import load_run
        from repro.store import ResultStore

        record = load_run(ResultStore(tmp_path), "last")
        assert record is not None and record["command"] == "serve"

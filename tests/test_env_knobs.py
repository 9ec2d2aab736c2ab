"""Environment settings, the tuning constants, and the workers count.

Only deployment settings are read from the environment
(``REPRO_STORE_DIR``, ``REPRO_STORE_LRU``, ``REPRO_LEDGER_DIR``,
``REPRO_HEARTBEAT_S``); numeric ones go through
:func:`repro.envutil.env_int`, so a typo'd value fails fast with the
variable's name in the message.  Engine tuning (dense budget, stream
chunk, batch size, clip budget, parallel threshold) is a set of module
constants, and there is one window path, so no function takes an
``engine`` argument.  Negative ``workers`` counts are rejected at the
search entry point instead of surfacing as an opaque
``ProcessPoolExecutor`` error.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

from repro.envutil import env_int

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The environment variables the package reads: deployment settings only.
DEPLOYMENT_VARIABLES = {
    "REPRO_STORE_DIR",
    "REPRO_STORE_LRU",
    "REPRO_LEDGER_DIR",
    "REPRO_HEARTBEAT_S",
}

#: The retired tuning variables, each with the module constant that
#: replaced it and that constant's default.
RETIRED_KNOBS = [
    ("REPRO_DENSE_BUDGET", "repro.window.fast", "DENSE_BUDGET", 2**26),
    ("REPRO_CLIP_BUDGET", "repro.estimation.bounds", "CLIP_BUDGET", 4096),
    ("REPRO_STREAM_CHUNK", "repro.window.streaming", "STREAM_CHUNK", 65536),
]


def _source_trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


class TestEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 42) == 42

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "17")
        assert env_int("REPRO_TEST_KNOB", 42) == 17

    def test_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "lots")
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB.*'lots'"):
            env_int("REPRO_TEST_KNOB", 42)

    def test_below_minimum_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "3")
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB must be >= 8"):
            env_int("REPRO_TEST_KNOB", 42, minimum=8)

    def test_minimum_is_inclusive(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "8")
        assert env_int("REPRO_TEST_KNOB", 42, minimum=8) == 8


class TestSettingsSurface:
    def test_only_deployment_variables_are_read(self):
        # Every variable name is a string constant of its own; prose in
        # docstrings never matches the whole-string pattern.
        names = {
            node.value
            for _, tree in _source_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)
        }
        assert names == DEPLOYMENT_VARIABLES

    def test_no_function_takes_an_engine_argument(self):
        offenders = [
            f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
            for path, tree in _source_trees()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "engine" in {
                a.arg
                for a in node.args.args + node.args.kwonlyargs
                + node.args.posonlyargs
            }
        ]
        assert offenders == []

    def test_tuning_constants_keep_their_defaults(self):
        from repro.estimation import bounds
        from repro.transform import search
        from repro.window import batched, fast, streaming

        assert fast.DENSE_BUDGET == 2**26
        assert streaming.STREAM_CHUNK == 65536
        assert batched.BATCH_SIZE == 16
        assert bounds.CLIP_BUDGET == 4096
        assert search.PARALLEL_THRESHOLD == 8


@pytest.mark.parametrize(
    "env_name,module,constant,default",
    RETIRED_KNOBS,
    ids=[k[0] for k in RETIRED_KNOBS],
)
class TestBudgetKnobs:
    def test_default_when_unset(
        self, monkeypatch, env_name, module, constant, default
    ):
        monkeypatch.delenv(env_name, raising=False)
        assert getattr(importlib.import_module(module), constant) == default


class TestNegativeWorkers:
    def test_resolve_workers_rejects_negative(self):
        from repro.transform.search import _resolve_workers

        with pytest.raises(ValueError, match="workers must be >= 0.*-2"):
            _resolve_workers(-2)

    def test_resolve_workers_accepts_zero_and_none(self):
        from repro.transform.search import _resolve_workers

        assert _resolve_workers(0) == 0
        assert _resolve_workers(3) == 3
        assert _resolve_workers(None) >= 1

    def test_evaluate_exact_rejects_negative_workers(self):
        from repro.ir import parse_program
        from repro.transform.search import evaluate_exact

        program = parse_program(
            "for i = 1 to 4 { for j = 1 to 4 { A[i][j] = A[i][j] } }"
        )
        with pytest.raises(ValueError, match="workers must be >= 0"):
            evaluate_exact(program, [None], workers=-1)

    def test_search_rejects_negative_workers(self):
        from repro.ir import parse_program
        from repro.transform.search import search_mws_2d

        program = parse_program(
            "for i = 1 to 8 { for j = 1 to 8 { X[i + j] = X[i + j + 1] } }"
        )
        with pytest.raises(ValueError, match="workers must be >= 0"):
            search_mws_2d(program, "X", workers=-4)

"""Batched multi-candidate scoring: differential parity and kernels (ISSUE 8).

``window.batched.batched_mws`` must be value-identical to scoring each
candidate through ``simulator.max_window_size`` / ``max_total_window``
— for random programs at depths 2-4, multi-reference arrays, ``None``
and overflow candidates — the specialized kernel must equal the generic
batched sweep on the same keys, and its counters must reconcile with
the serial path's.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.ir import parse_program
from repro.ir.generate import GeneratorConfig, random_program
from repro.linalg import IntMatrix
from repro.transform.elementary import (
    bounded_unimodular_matrices,
    signed_permutations,
)
from repro.transform.search import clear_exact_cache
from repro.window import batched
from repro.window.fast import clear_iteration_cache
from repro.window.simulator import max_total_window, max_window_size


@pytest.fixture(autouse=True)
def fresh_state():
    obs.disable()
    clear_exact_cache()
    clear_iteration_cache()
    yield
    obs.disable()
    clear_exact_cache()
    clear_iteration_cache()


def _candidate_pool(depth: int, seed: int) -> list[IntMatrix | None]:
    """None + signed permutations + (2-D) skewed unimodular matrices."""
    rng = random.Random(seed)
    pool: list[IntMatrix | None] = list(signed_permutations(depth))
    if depth == 2:
        pool.extend(bounded_unimodular_matrices(2, 1))
    rng.shuffle(pool)
    return [None] + pool[:7]


def _serial_values(program, candidates, array):
    if array is None:
        return [max_total_window(program, t) for t in candidates]
    return [max_window_size(program, array, t) for t in candidates]


_CONFIGS = [
    GeneratorConfig(depth=2, min_trip=2, max_trip=8),
    GeneratorConfig(depth=2, min_trip=2, max_trip=8, uniform_only=False),
    GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2),
    GeneratorConfig(depth=4, min_trip=2, max_trip=3, max_coeff=1),
]

#: How a sweep kernel is built, by backend: the specialized sweep source
#: compiled to Python is the one backend.
_KERNEL_BUILDERS = {"python": batched._compile_python}


class TestDifferentialParity:
    @pytest.mark.parametrize("cfg", _CONFIGS, ids=lambda c: f"depth{c.depth}")
    @pytest.mark.parametrize("seed", range(6))
    def test_batched_matches_serial(self, cfg, seed):
        program = random_program(seed * 31 + cfg.depth, cfg)
        candidates = _candidate_pool(program.nest.depth, seed)
        for array in [None, *program.arrays]:
            got = batched.batched_mws(program, candidates, array=array)
            assert got == _serial_values(program, candidates, array), (
                f"array={array}"
            )

    @pytest.mark.parametrize("cfg", _CONFIGS, ids=lambda c: f"depth{c.depth}")
    def test_specialized_kernel_matches_generic_sweep(self, cfg):
        program = random_program(5 * cfg.depth, cfg)
        candidates = _candidate_pool(program.nest.depth, 5)
        keys = batched._batched_time_keys(program, candidates)
        for arrays in [tuple(program.arrays), *((a,) for a in program.arrays)]:
            states = batched._array_states(program, arrays)
            kernel = batched._sweep_kernel(program, arrays)
            assert kernel(keys).tolist() == (
                batched._generic_sweep(states, keys).tolist()
            ), f"arrays={arrays}"

    @pytest.mark.parametrize("mode", sorted(_KERNEL_BUILDERS))
    def test_all_kernel_modes_agree(self, mode):
        build = _KERNEL_BUILDERS[mode]
        program = random_program(5, GeneratorConfig(depth=2, max_trip=8))
        candidates = _candidate_pool(2, 5)
        keys = batched._batched_time_keys(program, candidates)
        for array in [None, *program.arrays]:
            arrays = (array,) if array is not None else tuple(program.arrays)
            got = build(program, arrays)(keys).tolist()
            assert got == _serial_values(program, candidates, array), (
                f"array={array}"
            )

    def test_multi_reference_multi_array(self):
        program = parse_program(
            "for i = 1 to 9 { for j = 1 to 7 { "
            "A[i + 2*j] = A[i + 2*j - 3] + B[2*i - j] + B[2*i - j + 1] } }"
        )
        candidates = _candidate_pool(2, 11)
        for array in [None, "A", "B"]:
            got = batched.batched_mws(program, candidates, array=array)
            assert got == _serial_values(program, candidates, array)

    def test_empty_candidates(self):
        program = random_program(1, GeneratorConfig(depth=2))
        assert batched.batched_mws(program, [], array=None) == []


class TestEdgeCases:
    def test_non_unimodular_candidate_raises(self):
        program = random_program(2, GeneratorConfig(depth=2))
        singular = IntMatrix([[1, 0], [2, 0]])
        with pytest.raises(ValueError):
            batched.batched_mws(program, [None, singular], array=None)

    def test_unknown_array_raises_keyerror(self):
        program = random_program(2, GeneratorConfig(depth=2))
        with pytest.raises(KeyError):
            batched.batched_mws(program, [None], array="NOPE")

    def test_overflow_candidate_falls_back_per_row(self):
        # A huge skew coefficient makes the candidate's transformed
        # spans overflow the int64 pack even on a tiny nest: that row
        # alone must detour through dense lexsort ranks
        # (fast.pack.fallback) while the rest of the batch stays fused —
        # values unchanged either way.
        program = parse_program(
            "for i = 1 to 8 { for j = 1 to 8 { A[i + j] = A[i + j - 1] } }"
        )
        skew = IntMatrix([[1, 2**58], [0, 1]])
        observer = obs.enable()
        got = batched.batched_mws(program, [None, skew], array="A")
        obs.disable()
        assert observer.summary()["counters"]["fast.pack.fallback"] >= 1
        assert got == _serial_values(program, [None, skew], "A")

    def test_chunked_batches_match_unchunked(self, monkeypatch):
        program = random_program(7, GeneratorConfig(depth=2, max_trip=8))
        candidates = _candidate_pool(2, 7)
        want = batched.batched_mws(program, candidates, array=None)
        # Force a chunk size of 1 row: every candidate becomes its own
        # internal chunk and the concatenated result must be unchanged.
        monkeypatch.setattr(batched, "_CHUNK_ELEMS", 1)
        assert batched.batched_mws(program, candidates, array=None) == want


class TestCountersAndCache:
    def _counters(self, fn):
        observer = obs.enable()
        fn()
        obs.disable()
        return observer.summary()["counters"]

    def test_batched_counter_parity_with_serial(self):
        program = random_program(9, GeneratorConfig(depth=2, max_trip=8))
        candidates = _candidate_pool(2, 9)
        array = program.arrays[0]
        serial = self._counters(
            lambda: _serial_values(program, candidates, array)
        )
        clear_iteration_cache()
        batch = self._counters(
            lambda: batched.batched_mws(program, candidates, array=array)
        )
        # Per-candidate accounting reconciles: one simulate per candidate
        # whether scored one at a time or as a batch.
        assert batch["fast.simulate.calls"] == serial["fast.simulate.calls"]
        assert batch["fast.simulate.calls"] == len(candidates)
        assert batch["engine.fast.calls"] == len(candidates)
        assert batch["batch.candidates"] == len(candidates)

    def test_kernel_specialized_once_per_program(self):
        program = random_program(4, GeneratorConfig(depth=2, max_trip=6))
        counters = self._counters(
            lambda: [
                batched.batched_mws(program, [None], array=None)
                for _ in range(3)
            ]
        )
        assert counters["kernel.specialized"] == 1

    def test_clear_iteration_cache_drops_kernels(self):
        program = random_program(4, GeneratorConfig(depth=2, max_trip=6))
        batched.batched_mws(program, [None], array=None)
        assert len(batched._KERNELS) >= 1
        clear_iteration_cache()
        assert len(batched._KERNELS) == 0


class TestKnobs:
    def test_batch_size_knob(self, monkeypatch):
        # BATCH_SIZE is a module constant sizing the cascade's survivor
        # windows after the first (single-candidate) one.
        from repro.transform import search

        program = random_program(8, GeneratorConfig(depth=2, max_trip=8))
        candidates = [None] + list(signed_permutations(2))
        sizes: list[int] = []
        score = search._score_misses

        def recording(program, array, ts):
            sizes.append(len(ts))
            return score(program, array, ts)

        monkeypatch.setattr(search, "_score_misses", recording)

        def windows():
            clear_exact_cache()
            sizes.clear()
            outcomes = search.evaluate_cascade(program, candidates, array=None)
            return [o.value for o in outcomes if o.exact], list(sizes)

        assert batched.BATCH_SIZE == 16
        exact, default_sizes = windows()
        monkeypatch.setattr(batched, "BATCH_SIZE", 2)
        exact_small, small_sizes = windows()
        assert default_sizes[0] == small_sizes[0] == 1
        assert max(small_sizes) == 2 < max(default_sizes) <= 16
        assert min(exact_small) == min(exact)

"""Unit tests for the vectorized window engine's building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import parse_program
from repro.ir.generate import GeneratorConfig, random_program
from repro.linalg import IntMatrix
from repro.window.fast import (
    _ITER_STATE,
    _element_ids,
    _execution_times,
    _iteration_matrix,
    _peak_concurrent,
    _time_keys,
    clear_iteration_cache,
    window_deltas,
)
from repro.window import fast


class TestIterationMatrix:
    def test_matches_nest_iterate(self):
        prog = parse_program(
            "for i = 0 to 3 { for j = -1 to 2 { A[i][j] = 1 } }"
        )
        points = _iteration_matrix(prog)
        expected = np.array(list(prog.nest.iterate()))
        assert np.array_equal(points, expected)

    def test_cached(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        assert _iteration_matrix(prog) is _iteration_matrix(prog)

    def test_cache_keyed_by_content_hash(self):
        """The state is cached per Program.signature(), not per object —
        so a pickled clone (what pool workers deserialize) hits the same
        entry instead of re-enumerating per candidate."""
        import pickle

        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        _iteration_matrix(prog)
        assert "_iter_matrix_cache" not in vars(prog)
        assert prog.signature() in _ITER_STATE
        clone = pickle.loads(pickle.dumps(prog))
        assert _iteration_matrix(clone) is _iteration_matrix(prog)

    def test_cache_is_bounded(self):
        from repro.window.fast import _ITER_STATE_LIMIT

        clear_iteration_cache()
        for k in range(_ITER_STATE_LIMIT + 5):
            prog = parse_program(f"for i = 1 to {k + 2} {{ A[i] = 1 }}")
            _iteration_matrix(prog)
        assert len(_ITER_STATE) == _ITER_STATE_LIMIT

    def test_overflow_guard_rejects_huge_nests(self):
        """math.prod over Python ints detects what int64 np.prod would
        silently wrap: a nest too large to enumerate densely."""
        prog = parse_program(
            "for i = 1 to 3000000000 { for j = 1 to 3000000000 { "
            "for k = 1 to 3000000000 { A[i] = 1 } } }"
        )
        with pytest.raises(ValueError, match="overflow|iterations"):
            _iteration_matrix(prog)

    @given(st.integers(0, 20_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_on_random(self, seed):
        prog = random_program(seed, GeneratorConfig(max_trip=5, depth=3))
        points = _iteration_matrix(prog)
        expected = np.array(list(prog.nest.iterate()))
        assert np.array_equal(points, expected)


class TestExecutionTimes:
    def test_identity_is_arange(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 3 { A[i][j] = 1 } }")
        times = _execution_times(prog, None)
        assert np.array_equal(times, np.arange(12))

    def test_transformed_is_permutation(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 3 { A[i][j] = 1 } }")
        t = IntMatrix([[0, 1], [1, 0]])
        times = _execution_times(prog, t)
        assert sorted(times.tolist()) == list(range(12))

    def test_transformed_order_matches_sort(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 3 { A[i][j] = 1 } }")
        t = IntMatrix([[1, 1], [0, 1]])
        times = _execution_times(prog, t)
        points = list(prog.nest.iterate())
        by_time = sorted(range(len(points)), key=lambda k: times[k])
        ordered = [t.apply(points[k]) for k in by_time]
        assert ordered == sorted(ordered)

    def test_rejects_non_unimodular(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(ValueError):
            _execution_times(prog, IntMatrix([[2]]))


class TestElementIds:
    def test_equal_elements_share_ids(self):
        prog = parse_program("for i = 1 to 6 { B[0] = A[i] + A[i-1] }")
        ids = _element_ids(prog, "A")
        # A[i] at iteration t equals A[i-1] at iteration t+1.
        assert ids[0][0] == ids[1][1]

    def test_distinct_elements_distinct_ids(self):
        prog = parse_program("for i = 1 to 6 { A[i] = 1 }")
        (ids,) = _element_ids(prog, "A")
        assert len(set(ids.tolist())) == 6

    def test_unknown_array(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(KeyError):
            _element_ids(prog, "Z")


class TestTimeKeys:
    def test_native_order_is_arange(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 3 { A[i][j] = 1 } }")
        assert np.array_equal(_time_keys(prog, None), np.arange(12))

    def test_packed_keys_order_isomorphic_to_ranks(self):
        prog = parse_program(
            "for i = 1 to 5 { for j = -2 to 3 { A[i][j] = 1 } }"
        )
        for rows in ([[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, -1], [0, 1]],
                     [[2, 1], [1, 1]]):
            t = IntMatrix(rows)
            keys = _time_keys(prog, t)
            ranks = _execution_times(prog, t)
            assert len(set(keys.tolist())) == keys.shape[0]
            assert np.array_equal(np.argsort(keys), np.argsort(ranks))

    def test_rejects_non_unimodular(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(ValueError):
            _time_keys(prog, IntMatrix([[2]]))


class TestPeakConcurrent:
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 30)),
                    max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_sweep(self, raw):
        starts = np.array([s for s, _ in raw], dtype=np.int64)
        ends = np.array([s + d for s, d in raw], dtype=np.int64)
        horizon = int(ends.max()) + 1 if raw else 1
        dense = np.zeros(horizon + 1, dtype=np.int64)
        np.add.at(dense, starts, 1)
        np.add.at(dense, ends, -1)
        expected = int(np.cumsum(dense[:-1]).max(initial=0))
        assert _peak_concurrent(starts, ends) == expected

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        assert _peak_concurrent(empty, empty) == 0


class TestDenseBudget:
    def test_default(self):
        assert fast.DENSE_BUDGET == 2**26

    def test_env_override_gates_enumeration(self, monkeypatch):
        # The budget is a module constant; tests override it in place.
        monkeypatch.setattr(fast, "DENSE_BUDGET", 10)
        clear_iteration_cache()
        prog = parse_program("for i = 1 to 20 { A[i] = 1 }")
        with pytest.raises(ValueError, match="iterations"):
            _iteration_matrix(prog)
        monkeypatch.setattr(fast, "DENSE_BUDGET", 20)
        assert _iteration_matrix(prog).shape == (20, 1)


class TestWindowDeltas:
    def test_deltas_sum_to_zero(self):
        prog = parse_program(
            "for i = 1 to 8 { X[2*i + 1] = X[2*i + 5] }"
        )
        deltas = window_deltas(prog, "X")
        assert int(deltas.sum()) == 0

    def test_cumsum_nonnegative(self):
        prog = parse_program(
            "for i = 1 to 8 { X[2*i + 1] = X[2*i + 5] }"
        )
        deltas = window_deltas(prog, "X")
        assert (np.cumsum(deltas[:-1]) >= 0).all()

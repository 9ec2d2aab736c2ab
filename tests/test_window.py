"""Tests for the window model: simulator (reference vs fast), closed forms,
lifetimes — pinned to the paper's examples."""

import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import NestBuilder, parse_program
from repro.linalg import IntMatrix, random_unimodular
from repro.window import (
    element_lifetimes,
    lifetime_stats,
    max_total_window,
    max_window_size,
    mws_2d_estimate,
    mws_2d_for_array,
    mws_3d_estimate,
    mws_3d_for_ref,
    window_profile,
)
from repro.window.simulator import (
    max_total_window_reference,
    max_window_size_reference,
    window_profile_reference,
)


EX7 = """
for i = 1 to 20 {
  for j = 1 to 30 {
    Y[0] = X[2*i - 3*j]
  }
}
"""

EX8 = """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
"""

EX10 = """
for i = 1 to 10 {
  for j = 1 to 20 {
    for k = 1 to 30 {
      B[0] = A[3*i + k][j + k]
    }
  }
}
"""


def random_programs():
    """Small random affine programs for fast-vs-reference equivalence."""

    def build(params):
        (n1, n2), rows, offsets = params
        builder = NestBuilder().loop("i", 1, n1).loop("j", 1, n2)
        for k, (row, off) in enumerate(zip(rows, offsets)):
            builder.use(f"S{k}", ("A", [list(row)], [off]))
        return builder.build()

    return st.tuples(
        st.tuples(st.integers(2, 6), st.integers(2, 6)),
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            min_size=1,
            max_size=2,
        ),
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    ).map(build)


class TestSimulatorPaperValues:
    def test_example7_original(self):
        prog = parse_program(EX7)
        assert max_window_size(prog, "X") == 86  # paper (Eisenbeis) ~ 89

    def test_example7_compound_gives_one(self):
        prog = parse_program(EX7)
        t = IntMatrix([[2, -3], [1, -1]])
        assert max_window_size(prog, "X", t) == 1

    def test_example7_interchange(self):
        prog = parse_program(EX7)
        t = IntMatrix([[0, 1], [1, 0]])
        assert max_window_size(prog, "X", t) == 37  # paper ~41

    def test_example8_original(self):
        prog = parse_program(EX8)
        assert max_window_size(prog, "X") == 44  # paper estimate 50

    def test_example8_transformed(self):
        prog = parse_program(EX8)
        t = IntMatrix([[2, 3], [1, 1]])
        assert max_window_size(prog, "X", t) == 21  # paper: actual 21

    def test_example10_original(self):
        prog = parse_program(EX10)
        assert max_window_size(prog, "A") == 540  # paper computes 540

    def test_example10_embedding(self):
        prog = parse_program(EX10)
        t = IntMatrix([[3, 0, 1], [0, 1, 1], [1, 0, 0]])
        assert max_window_size(prog, "A", t) == 1


class TestSimulatorSemantics:
    def test_single_use_elements_never_live(self):
        prog = parse_program("for i = 1 to 9 { A[i] = 1 }")
        assert max_window_size(prog, "A") == 0

    def test_consecutive_reuse_is_one(self):
        prog = parse_program("for i = 1 to 9 { B[0] = A[i] + A[i-1] }")
        # A[i] at t reused at t+1: exactly one element live at any time.
        assert max_window_size(prog, "A") == 1

    def test_profile_matches_max(self):
        prog = parse_program(EX8)
        profile = window_profile(prog, "X")
        assert profile.max_size == max_window_size(prog, "X")
        assert len(profile.sizes) == prog.nest.total_iterations
        assert profile.sizes[profile.argmax()] == profile.max_size

    def test_profile_nonnegative(self):
        prog = parse_program(EX7)
        assert all(s >= 0 for s in window_profile(prog, "X").sizes)

    def test_total_window_le_sum_of_maxima(self):
        prog = parse_program(
            "for i = 1 to 9 { B[0] = A[i] + A[i-1] + C[i] + C[i-2] }"
        )
        total = max_total_window(prog)
        per = (
            max_window_size(prog, "A")
            + max_window_size(prog, "C")
            + max_window_size(prog, "B")
        )
        assert total <= per
        assert total >= max(
            max_window_size(prog, "A"), max_window_size(prog, "C")
        )

    def test_lifetimes_bounds(self):
        prog = parse_program(EX8)
        lifetimes = element_lifetimes(prog, "X")
        total = prog.nest.total_iterations
        for first, last in lifetimes.values():
            assert 0 <= first <= last < total

    def test_unknown_array(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(KeyError):
            max_window_size(prog, "Z")

    def test_non_unimodular_rejected(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 4 { A[i][j] = 1 } }")
        with pytest.raises(ValueError):
            max_window_size(prog, "A", IntMatrix([[2, 0], [0, 1]]))

    def test_wrong_shape_rejected(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 4 { A[i][j] = 1 } }")
        with pytest.raises(ValueError, match="shape"):
            max_window_size(prog, "A", IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
        with pytest.raises(ValueError):
            max_total_window(prog, IntMatrix([[1, 0]]))

    def test_overflowing_pack_falls_back_to_ranks(self):
        # A skew too wide for the int64 pack detours through dense
        # lexsort ranks (counted once) with the same answer.
        from repro import obs

        prog = parse_program(
            "for i = 1 to 8 { for j = 1 to 8 { A[i + j] = A[i + j - 1] } }"
        )
        skew = IntMatrix([[1, 2**58], [0, 1]])
        observer = obs.enable()
        try:
            got = max_window_size(prog, "A", skew)
        finally:
            obs.disable()
        assert observer.counters["fast.pack.fallback"] == 1
        assert got == max_window_size_reference(prog, "A", skew)


class TestDenseAccounting:
    """One dense window is one simulation, however it is computed."""

    @pytest.mark.parametrize("profile", [False, True])
    def test_one_call_counts_once(self, profile):
        from repro import obs

        prog = parse_program(EX8)
        for score in (
            lambda: max_window_size(prog, "X", profile=profile),
            lambda: max_total_window(prog, profile=profile),
        ):
            observer = obs.enable()
            try:
                assert score() == 44
            finally:
                obs.disable()
            assert observer.counters["engine.fast.calls"] == 1
            assert observer.counters["fast.simulate.calls"] == 1


class TestFastEqualsReference:
    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_identity_order(self, prog):
        assert max_window_size(prog, "A") == max_window_size_reference(prog, "A")

    @given(random_programs(), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_transformed_order(self, prog, seed):
        t = random_unimodular(2, random.Random(seed), steps=6, max_mult=2)
        assert max_window_size(prog, "A", t) == max_window_size_reference(
            prog, "A", t
        )

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_profile_equal(self, prog):
        fast = window_profile(prog, "A").sizes
        ref = window_profile_reference(prog, "A").sizes
        assert fast == ref

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_total_equal(self, prog):
        assert max_total_window(prog) == max_total_window_reference(prog)


class TestClosedForms2D:
    def test_identity_example8(self):
        assert mws_2d_estimate(2, 5, 25, 10, 1, 0) == 50

    def test_optimal_example8(self):
        assert mws_2d_estimate(2, 5, 25, 10, 2, 3) == 22

    def test_example7_identity(self):
        assert mws_2d_estimate(2, -3, 20, 30, 1, 0) == 90  # paper ~89

    def test_example7_interchange(self):
        assert mws_2d_estimate(2, -3, 20, 30, 0, 1) == 40  # paper ~41

    def test_aligned_row_gives_one(self):
        assert mws_2d_estimate(2, -3, 20, 30, 2, -3) == 1

    def test_singular_row_rejected(self):
        with pytest.raises(ValueError):
            mws_2d_estimate(2, 5, 10, 10, 0, 0)

    def test_for_array_wrapper(self):
        prog = parse_program(EX8)
        assert mws_2d_for_array(prog, "X") == 50
        assert mws_2d_for_array(prog, "X", IntMatrix([[2, 3], [1, 1]])) == 22

    def test_for_array_requires_1d(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 4 { A[i][j] = 1 } }")
        with pytest.raises(ValueError):
            mws_2d_for_array(prog, "A")

    @given(
        st.integers(1, 5), st.integers(-5, 5),
        st.integers(4, 14), st.integers(4, 14),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_vs_exact_band(self, a1, a2, n1, n2):
        # Identity transformation: eq. (2) should track the simulator
        # within a small relative band (it is an upper-flavored estimate).
        if a2 == 0:
            return
        prog = (
            NestBuilder()
            .loop("i", 1, n1)
            .loop("j", 1, n2)
            .use("S1", ("A", [[a1, a2]], [0]))
            .build()
        )
        est = mws_2d_estimate(a1, a2, n1, n2, 1, 0)
        exact = max_window_size(prog, "A")
        # Eq. (2) is an upper-flavored estimate: it never undershoots the
        # exact window by more than the one-element in-flight convention.
        assert exact <= est + 1


class TestClosedForms3D:
    def test_paper_example10(self):
        assert mws_3d_estimate((1, 3, -3), (10, 20, 30)) == 541  # text: 540

    def test_negative_d2_branch(self):
        assert mws_3d_estimate((1, -3, 3), (10, 20, 30)) == 1 * 17 * 27 + 1

    def test_lex_normalization(self):
        assert mws_3d_estimate((-1, -3, 3), (10, 20, 30)) == mws_3d_estimate(
            (1, 3, -3), (10, 20, 30)
        )

    def test_reuse_outside_box_gives_one(self):
        assert mws_3d_estimate((1, 25, 0), (10, 20, 30)) == 1
        assert mws_3d_estimate((11, 0, 0), (10, 20, 30)) == 1

    def test_for_ref_wrapper(self):
        prog = parse_program(EX10)
        assert mws_3d_for_ref(prog.refs_to("A")[0], prog.nest) == 541

    def test_for_ref_injective(self):
        prog = parse_program(
            "for i = 1 to 3 { for j = 1 to 3 { for k = 1 to 3 { A[i][j][k] = 1 } } }"
        )
        assert mws_3d_for_ref(prog.refs_to("A")[0], prog.nest) == 1

    def test_estimate_brackets_exact(self):
        prog = parse_program(EX10)
        exact = max_window_size(prog, "A")
        est = mws_3d_for_ref(prog.refs_to("A")[0], prog.nest)
        assert exact <= est <= exact + 1


class TestLifetimeStats:
    def test_basic(self):
        prog = parse_program(EX8)
        stats = lifetime_stats(prog, "X")
        assert stats.touched_elements > 0
        assert stats.max_lifetime >= stats.mean_lifetime >= 0
        assert stats.reused_elements + stats.single_use_elements == stats.touched_elements

    def test_transformation_shrinks_lifetimes(self):
        prog = parse_program(EX7)
        before = lifetime_stats(prog, "X")
        after = lifetime_stats(prog, "X", IntMatrix([[2, -3], [1, -1]]))
        assert after.max_lifetime < before.max_lifetime
        # The compound transformation makes all reuses adjacent.
        assert after.max_lifetime <= before.max_lifetime // 10

    def test_unknown_array(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(KeyError):
            lifetime_stats(prog, "Z")

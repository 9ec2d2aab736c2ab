"""Differential window testing, re-expressed over the oracle registry.

The cross-engine agreement and paper-invariant checks now live in
:mod:`repro.check.oracles` (``engines-agree-2d/-3d``,
``mws-bounded-by-distinct``, ``offset-translation-invariance``); this
module drives those oracles over a deterministic seed range via
:func:`tests.conftest.assert_oracle`, so a failure shrinks itself and
prints a ``repro check --replay`` command.

Checks with no oracle counterpart (touched-multiset preservation,
read-only def-use domination) remain as direct property tests.

Case count: ``REPRO_DIFF_CASES`` (default 200) seeds, spread over the
oracles; the base seed honors ``REPRO_FUZZ_SEED``.
"""

from __future__ import annotations

import os

import pytest

from tests.conftest import assert_oracle, fuzz_seeds

DIFF_CASES = int(os.environ.get("REPRO_DIFF_CASES", "200"))

_PER_ORACLE = max(1, DIFF_CASES // 4)


@pytest.mark.parametrize("seed", fuzz_seeds(_PER_ORACLE, salt=1))
def test_engines_agree_2d(seed, tmp_path):
    assert_oracle("engines-agree-2d", seed, tmp_path)


@pytest.mark.parametrize("seed", fuzz_seeds(_PER_ORACLE, salt=2))
def test_engines_agree_3d(seed, tmp_path):
    assert_oracle("engines-agree-3d", seed, tmp_path)


@pytest.mark.parametrize("seed", fuzz_seeds(_PER_ORACLE // 2, salt=3))
def test_mws_bounded_by_distinct(seed, tmp_path):
    assert_oracle("mws-bounded-by-distinct", seed, tmp_path)


@pytest.mark.parametrize("seed", fuzz_seeds(_PER_ORACLE // 2, salt=4))
def test_offset_translation_invariance(seed, tmp_path):
    assert_oracle("offset-translation-invariance", seed, tmp_path)


@pytest.mark.parametrize("seed", fuzz_seeds(_PER_ORACLE // 2, salt=5))
def test_total_window_agrees(seed, tmp_path):
    assert_oracle("total-window-agrees", seed, tmp_path)


# ----------------------------------------------------------------------
# direct properties without an oracle counterpart
# ----------------------------------------------------------------------

def _transformed_program(seed):
    from repro.check.oracles import _seed_transformation
    from repro.ir.generate import GeneratorConfig, random_program

    cfg = GeneratorConfig(depth=2, min_trip=2, max_trip=6, max_coeff=3)
    program = random_program(seed, cfg)
    return program, _seed_transformation(program, seed)


@pytest.mark.parametrize("seed", fuzz_seeds(max(10, DIFF_CASES // 8), salt=6))
def test_transformation_preserves_touched_multiset(seed):
    """A unimodular transformation reorders iterations; the multiset of
    touched elements per array is untouched."""
    program, t = _transformed_program(seed)
    order = sorted(program.nest.iterate(), key=t.apply)
    for array in program.arrays:
        refs = program.refs_to(array)
        native = sorted(
            ref.element(point) for point in program.nest.iterate() for ref in refs
        )
        transformed = sorted(
            ref.element(point) for point in order for ref in refs
        )
        assert native == transformed


@pytest.mark.parametrize("seed", fuzz_seeds(max(10, DIFF_CASES // 10), salt=7))
def test_readonly_def_use_dominates_window(seed):
    """For read-only arrays def-use liveness starts at time 0, so its
    peak can never undercut the window's (the paper's related-work
    argument, checked quantitatively)."""
    from repro.ir.generate import GeneratorConfig, random_program
    from repro.window.simulator import max_window_size
    from repro.window.zhao_malik import def_use_peak

    cfg = GeneratorConfig(depth=2, min_trip=2, max_trip=6, allow_writes=False)
    program = random_program(seed, cfg)
    for array in program.arrays:
        assert def_use_peak(program, array) >= max_window_size(program, array)

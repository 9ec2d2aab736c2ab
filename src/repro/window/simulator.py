"""Exact reference-window simulation.

The definitional computation of MWS: enumerate every dynamic access in
sequential order (optionally the order induced by a unimodular
transformation), record each element's first and last access iteration,
and sweep a +1/-1 event line to find the peak number of simultaneously
live elements.

Element ``e`` is in the window at iteration ``t`` iff
``first(e) <= t < last(e)`` — it has been referenced and will be
referenced again strictly later (paper Section 2.3).  An element touched
in only one iteration therefore never occupies the window; after the ideal
transformation of Example 7 every element is touched only in consecutive
iterations and the MWS collapses to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import obs
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.obs import metrics


@dataclass(frozen=True)
class WindowProfile:
    """Window sizes over time for one array (or the whole program)."""

    array: str
    sizes: tuple[int, ...]

    @property
    def max_size(self) -> int:
        return max(self.sizes) if self.sizes else 0

    @property
    def average_size(self) -> float:
        return sum(self.sizes) / len(self.sizes) if self.sizes else 0.0

    def argmax(self) -> int:
        """First iteration time achieving the maximum window."""
        return self.sizes.index(self.max_size)


def _iteration_order(
    program: Program, transformation: IntMatrix | None
) -> list[tuple[int, ...]] | None:
    """Iteration vectors in execution order; None means native order.

    A unimodular transformation re-orders iterations to the lexicographic
    order of ``u = T @ i`` — exactly the order the transformed nest's
    generated code executes.
    """
    if transformation is None:
        return None
    n = program.nest.depth
    if transformation.shape != (n, n):
        raise ValueError("transformation shape does not match nest depth")
    if transformation.det() not in (1, -1):
        raise ValueError("transformation must be unimodular")
    points = list(program.nest.iterate())
    points.sort(key=transformation.apply)
    return points


@obs.profiled("simulator.element_lifetimes")
def element_lifetimes(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> dict[tuple[int, ...], tuple[int, int]]:
    """Map each touched element to ``(first, last)`` iteration times.

    Times are 0-based positions in the execution order (native or
    transformed).
    """
    refs = [ref for ref in program.references if ref.array == array]
    if not refs:
        raise KeyError(array)
    order = _iteration_order(program, transformation)
    lifetimes: dict[tuple[int, ...], tuple[int, int]] = {}
    iterator = order if order is not None else program.nest.iterate()
    for time, point in enumerate(iterator):
        for ref in refs:
            element = ref.element(point)
            if element in lifetimes:
                lifetimes[element] = (lifetimes[element][0], time)
            else:
                lifetimes[element] = (time, time)
    return lifetimes


@dataclass(frozen=True)
class LivenessProfile:
    """Live-set trajectory of one array under one execution order.

    The quantity the paper's MWS is the maximum of, made visible:
    ``occupancy[t]`` is the window size after iteration ``t`` executes,
    ``peak``/``peak_time``/``peak_point`` locate the maximum window in
    execution time and in the iteration space, and ``reuse_histogram``
    counts the gaps (in iterations of the chosen order) between
    consecutive accesses to the same element — the reuse-distance
    profile that related work (reuse-profile estimation, AutoLALA)
    builds its locality analyses on.
    """

    array: str
    occupancy: tuple[int, ...]
    peak: int
    peak_time: int  # first execution time achieving the peak; -1 if empty
    peak_point: tuple[int, ...] | None  # iteration vector at peak_time
    reuse_histogram: Mapping[int, int]  # access gap -> occurrence count

    @property
    def mean_occupancy(self) -> float:
        if not self.occupancy:
            return 0.0
        return sum(self.occupancy) / len(self.occupancy)

    @property
    def reuse_count(self) -> int:
        return sum(self.reuse_histogram.values())


def _access_times(
    program: Program,
    array: str,
    transformation: IntMatrix | None,
) -> dict[tuple[int, ...], list[int]]:
    """Every access time of each touched element, in execution order."""
    refs = [ref for ref in program.references if ref.array == array]
    if not refs:
        raise KeyError(array)
    order = _iteration_order(program, transformation)
    iterator = order if order is not None else program.nest.iterate()
    times: dict[tuple[int, ...], list[int]] = {}
    for time, point in enumerate(iterator):
        for ref in refs:
            times.setdefault(ref.element(point), []).append(time)
    return times


def liveness_profile(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> LivenessProfile:
    """Exact liveness profile, pure-Python reference implementation.

    Semantics ground truth for :func:`repro.window.fast.liveness_profile_fast`
    (the test suite pins them equal).
    """
    times = _access_times(program, array, transformation)
    total = program.nest.total_iterations
    deltas = [0] * (total + 1)
    reuse_histogram: dict[int, int] = {}
    for ts in times.values():
        first, last = ts[0], ts[-1]
        if last > first:
            deltas[first] += 1
            deltas[last] -= 1
        for earlier, later in zip(ts, ts[1:]):
            gap = later - earlier
            reuse_histogram[gap] = reuse_histogram.get(gap, 0) + 1
    occupancy: list[int] = []
    current = 0
    for t in range(total):
        current += deltas[t]
        occupancy.append(current)
    peak = max(occupancy, default=0)
    peak_time = occupancy.index(peak) if occupancy else -1
    peak_point = _point_at_time(program, transformation, peak_time)
    return LivenessProfile(
        array=array,
        occupancy=tuple(occupancy),
        peak=peak,
        peak_time=peak_time,
        peak_point=peak_point,
        reuse_histogram=reuse_histogram,
    )


def _point_at_time(
    program: Program,
    transformation: IntMatrix | None,
    time: int,
) -> tuple[int, ...] | None:
    """Iteration vector executing at position ``time`` of the order."""
    if time < 0:
        return None
    order = _iteration_order(program, transformation)
    if order is not None:
        return order[time]
    for position, point in enumerate(program.nest.iterate()):
        if position == time:
            return point
    return None


def record_liveness(profile: LivenessProfile, prefix: str = "liveness") -> None:
    """Publish a profile into the active observer's metrics registry.

    No-op while observability is disabled.  Gauges carry the peak and
    its location; histograms carry the occupancy trajectory and the
    reuse-distance distribution.
    """
    base = f"{prefix}.{profile.array}"
    metrics.gauge(f"{base}.peak", profile.peak)
    metrics.gauge(f"{base}.peak_time", profile.peak_time)
    metrics.gauge(f"{base}.mean_occupancy", profile.mean_occupancy)
    metrics.observe_many(f"{base}.occupancy", profile.occupancy)
    for gap, count in sorted(profile.reuse_histogram.items()):
        metrics.observe(f"{base}.reuse_distance", gap, n=count)


def window_profile_reference(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> WindowProfile:
    """Exact window size at every iteration, for one array."""
    lifetimes = element_lifetimes(program, array, transformation)
    total = program.nest.total_iterations
    deltas = [0] * (total + 1)
    for first, last in lifetimes.values():
        if last > first:
            deltas[first] += 1
            deltas[last] -= 1
    sizes = []
    current = 0
    for t in range(total):
        current += deltas[t]
        sizes.append(current)
    return WindowProfile(array, tuple(sizes))


def max_window_size_reference(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
    profile: bool = False,
) -> int:
    """Exact MWS of one array under the given execution order.

    ``profile=True`` additionally records the liveness profile (occupancy
    trajectory, peak location, reuse-distance histogram) into the active
    observer's metrics; it costs nothing unless observability is enabled.

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 25 {
    ...   for j = 1 to 10 {
    ...     X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
    ...   }
    ... }
    ... ''')
    >>> max_window_size_reference(p, "X")
    44
    """
    obs.counter("simulator.reference.calls")
    if profile and obs.enabled():
        prof = liveness_profile(program, array, transformation)
        record_liveness(prof)
        return prof.peak
    lifetimes = element_lifetimes(program, array, transformation)
    return _peak_live(lifetimes.values())


def max_total_window_reference(
    program: Program,
    transformation: IntMatrix | None = None,
    arrays: Sequence[str] | None = None,
) -> int:
    """Exact MWS summed over arrays: ``max_t sum_X |W_X(t)|``.

    This is the paper's multi-array window (Section 2.3) — the minimum
    on-chip data memory for the whole nest.  Note it is the max of the
    sum, not the sum of per-array maxima.
    """
    names = tuple(arrays) if arrays is not None else program.arrays
    total = program.nest.total_iterations
    deltas = [0] * (total + 1)
    for array in names:
        for first, last in element_lifetimes(program, array, transformation).values():
            if last > first:
                deltas[first] += 1
                deltas[last] -= 1
    peak = 0
    current = 0
    for t in range(total):
        current += deltas[t]
        if current > peak:
            peak = current
    return peak


def _peak_live(lifetimes) -> int:
    events: dict[int, int] = {}
    for first, last in lifetimes:
        if last > first:
            events[first] = events.get(first, 0) + 1
            events[last] = events.get(last, 0) - 1
    peak = 0
    current = 0
    for t in sorted(events):
        current += events[t]
        if current > peak:
            peak = current
    return peak


def window_profile(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> WindowProfile:
    """Exact window size at every iteration (vectorized engine).

    Semantics defined by :func:`window_profile_reference`; the numpy
    engine is used for speed and the test suite pins them equal.
    """
    from repro.window.fast import window_profile_fast

    sizes = window_profile_fast(program, array, transformation)
    return WindowProfile(array, tuple(int(v) for v in sizes))


def fits_dense(program: Program) -> bool:
    """Whether the nest is small enough for dense enumeration.

    The one engine choice in the package: the dense numpy engine while
    the iteration count fits :data:`repro.window.fast.DENSE_BUDGET`, the
    streaming engine (O(chunk + distinct) memory) beyond it.
    """
    from repro.window import fast

    return program.nest.total_iterations <= fast.DENSE_BUDGET


def max_window_size(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
    profile: bool = False,
) -> int:
    """Exact MWS of one array under the given execution order.

    ``profile=True`` records the liveness profile into the active
    observer's metrics (no-op while observability is disabled; ignored
    past the dense budget, where occupancy trajectories are O(N)).

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 25 {
    ...   for j = 1 to 10 {
    ...     X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
    ...   }
    ... }
    ... ''')
    >>> max_window_size(p, "X")
    44
    """
    if not fits_dense(program):
        from repro.window.streaming import max_window_size_streaming

        obs.counter("engine.streaming.calls")
        return max_window_size_streaming(program, array, transformation)
    from repro.window.fast import max_window_size_fast

    obs.counter("engine.fast.calls")
    return max_window_size_fast(program, array, transformation, profile=profile)


def max_total_window(
    program: Program,
    transformation: IntMatrix | None = None,
    arrays: Sequence[str] | None = None,
    profile: bool = False,
) -> int:
    """Exact MWS summed over arrays: ``max_t sum_X |W_X(t)|``.

    This is the paper's multi-array window (Section 2.3) — the minimum
    on-chip data memory for the whole nest.  Note it is the max of the
    sum, not the sum of per-array maxima.  ``profile=True`` records a
    per-array liveness profile for every array involved (dense nests
    only).
    """
    if not fits_dense(program):
        from repro.window.streaming import max_total_window_streaming

        obs.counter("engine.streaming.calls")
        return max_total_window_streaming(program, transformation, arrays)
    from repro.window.fast import max_total_window_fast

    obs.counter("engine.fast.calls")
    return max_total_window_fast(program, transformation, arrays, profile=profile)

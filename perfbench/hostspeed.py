"""Host speed ticks, so timings compare across the host's speed phases.

On the 2-core hosts this benchmark runs on, CPU speed moves by up to
1.7x in phases of seconds to minutes, as other tenants load the shared
physical cores; whole runs land in one phase or another.  The benchmark
times a fixed pure-Python loop next to the work it measures and reports
each timing scaled to the reference speed ``TICK_REF_S``: a wall ``w``
taken while the loop took ``t`` is reported as ``w * TICK_REF_S / t``.
The loop runs no program code, so a faster program still shows in full.
The raw walls and ticks are kept in each run's metadata.
"""

from __future__ import annotations

import time

#: Points the tick loop files into cells.
TICK_POINTS = 6000
#: The tick loop's time on an unshared core of the reference host.
TICK_REF_S = 0.002


def _tick_loop() -> int:
    # Tuples hashed into a dict of sets: the allocation- and hash-heavy
    # kind of work the analyses do, which slows with a shared core about
    # as much as they do (a register-only loop slows less).
    cells: dict = {}
    for i in range(TICK_POINTS):
        point = (i % 37, i % 41, i % 43)
        cells.setdefault((point[0] // 4, point[1] // 4), set()).add(point)
    return len(cells)


def host_tick() -> float:
    """Seconds the tick loop takes now (best of three, which drops a
    loop hit by an interrupt)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _tick_loop()
        best = min(best, time.perf_counter() - started)
    return best


def scale(tick_before: float, tick_after: float) -> float:
    """Factor taking a wall measured between two ticks to reference speed."""
    return TICK_REF_S / ((tick_before + tick_after) / 2)

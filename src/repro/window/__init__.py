"""Reference windows and the maximum window size (MWS).

Paper Section 2.3: the reference window ``W_X(I)`` is the set of elements
of ``X`` already referenced at or before iteration ``I`` that will be
referenced again strictly after ``I`` — precisely the elements a minimal
on-chip buffer must hold at that moment.  ``MWS = max_I |W_X(I)|`` is the
minimum buffer size that avoids re-fetching any element.

This package provides the exact sweep simulator (ground truth under any
unimodular re-ordering), the batched multi-candidate scorer with its
specialized sweep kernels (:mod:`repro.window.batched`), and the paper's
closed-form estimates for 2-D (eq. (2)) and 3-D (Section 4.3) nests.
"""

from repro.window.batched import batched_mws, clear_kernel_cache
from repro.window.simulator import (
    LivenessProfile,
    WindowProfile,
    element_lifetimes,
    liveness_profile,
    max_total_window,
    max_window_size,
    record_liveness,
    window_profile,
)
from repro.window.streaming import (
    STREAM_CHUNK,
    max_total_window_streaming,
    max_window_size_streaming,
)
from repro.window.mws import (
    mws_2d_estimate,
    mws_2d_for_array,
    mws_3d_estimate,
    mws_3d_for_ref,
)
from repro.window.lifetime import (
    LifetimeStats,
    lifetime_stats,
)
from repro.window.zhao_malik import (
    def_use_occupancy,
    def_use_peak,
    max_total_window_zhao_malik,
    max_window_size_zhao_malik,
    zhao_malik_report,
)

__all__ = [
    "STREAM_CHUNK",
    "batched_mws",
    "clear_kernel_cache",
    "LivenessProfile",
    "WindowProfile",
    "max_window_size_streaming",
    "max_total_window_streaming",
    "max_total_window_zhao_malik",
    "element_lifetimes",
    "liveness_profile",
    "record_liveness",
    "window_profile",
    "max_window_size",
    "max_total_window",
    "def_use_occupancy",
    "mws_2d_estimate",
    "mws_2d_for_array",
    "mws_3d_estimate",
    "mws_3d_for_ref",
    "LifetimeStats",
    "lifetime_stats",
    "def_use_peak",
    "max_window_size_zhao_malik",
    "zhao_malik_report",
]

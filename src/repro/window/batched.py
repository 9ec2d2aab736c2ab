"""Batched multi-candidate MWS scoring with specialized sweep kernels.

The search's hot path scores hundreds of candidate transformations of
*one* program, and everything about the program — the iteration matrix,
each array's element layout — is transformation-invariant and already
cached (:mod:`repro.window.fast`).  The per-candidate path still pays K
separate matmuls, K packings and K sweeps.  This module scores all K
pending candidates at once:

* :func:`batched_mws` folds each candidate's mixed-radix pack into a
  single weight vector (the pack is linear in ``u = T @ i``), computes
  all K time keys with one ``(N, n) @ (n, K)`` integer matmul against
  the shared point matrix, and runs the first/last-touch min/max
  reductions and the event sweep across the candidate axis in single
  vectorized ops.  A candidate whose transformed extents overflow the
  int64 pack falls back to ``np.lexsort`` dense ranks for its key row
  only and still joins the batched sweep.
* the sweep itself is a *specialized kernel*: :mod:`repro.ir.codegen`
  emits a flat numpy function for this exact nest/reference structure
  with every size baked in, exec'd here and cached by program
  signature.  :func:`_generic_sweep` is the same sweep without
  specialization, kept as the oracle the kernels are tested against.

Counters: ``batch.candidates`` (candidates entering a batch),
``kernel.specialized`` (kernel builds).  The batched path bumps
``fast.simulate.calls`` and ``engine.fast.calls`` once per candidate so
serial, parallel, and batched totals reconcile exactly.

Kernels are dropped by :func:`clear_kernel_cache`, which
:func:`repro.window.fast.clear_iteration_cache` calls — a kernel is
compiled against the cached element layout and must not outlive it.
(Surviving an *LRU eviction* of that layout is harmless: the layout is
a deterministic function of the program, so a stale binding still
computes the same answer.)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.ir import codegen
from repro.ir.codegen import SweepArraySpec, sweep_kernel_source
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.window import fast

#: Candidates per batch for the cascade's survivor windows.
#: Measured on the Figure-2 table: the per-batch win saturates around
#: 8-16 survivors (key computation amortizes; the sweep is already one
#: call), while larger windows delay incumbent updates and simulate
#: candidates a tighter window would have pruned.
BATCH_SIZE = 16

#: Magnitude ceiling for values entering the vectorized int64 candidate
#: prep.  The true wrap limit is 2**63; screening at 2**58 leaves room
#: for float64 rounding in the screen itself and for summing up to
#: sixteen screened terms without overflow.
_SAFE_PREP = float(1 << 58)

#: Same screen for int32 keys: wrap is at 2**31, so clearing 2**27
#: keeps the identical 16x rounding margin and summation headroom.
_SAFE_PREP32 = float(1 << 27)

#: Ceiling on ``rows x iteration-points`` processed per internal chunk;
#: bounds the ``(K, N)`` key matrix and the sweep temporaries to a few
#: hundred MiB regardless of how many misses a caller submits at once.
_CHUNK_ELEMS = 1 << 24


#: ``(program signature, arrays)`` -> compiled sweep callable.
_KERNELS: "OrderedDict[tuple, Callable[[np.ndarray], np.ndarray]]" = (
    OrderedDict()
)
_KERNELS_LIMIT = 64


#: ``program signature`` -> float64 copy of the cached point matrix.
#: Batches whose screened bounds stay under 2**53 compute the key
#: matmul through BLAS dgemm — every product and partial sum is an
#: exact float64 integer — instead of numpy's much slower loop-based
#: integer matmul.
_POINTSF: "OrderedDict[str, np.ndarray]" = OrderedDict()
_POINTSF_LIMIT = 8


def clear_kernel_cache() -> None:
    """Drop all compiled sweep kernels (cleared with the iteration cache)."""
    _KERNELS.clear()
    _POINTSF.clear()


def _points_f64(program: Program, points: np.ndarray) -> np.ndarray:
    """Cached float64 copy of the program's point matrix (loop index
    values, far inside float64's integer range, so the cast is exact)."""
    sig = program.signature()
    arr = _POINTSF.get(sig)
    if arr is None or arr.shape != points.shape:
        arr = points.astype(np.float64)
        _POINTSF[sig] = arr
        while len(_POINTSF) > _POINTSF_LIMIT:
            _POINTSF.popitem(last=False)
    else:
        _POINTSF.move_to_end(sig)
    return arr


def _batched_time_keys(
    program: Program, candidates: Sequence[IntMatrix | None]
) -> np.ndarray:
    """Order-isomorphic time keys for every candidate: ``(K, N)`` ints.

    Row ``k`` equals ``fast._time_keys(program, candidates[k])`` exactly
    (as an order, which is all the sweep reads).  The mixed-radix pack
    of ``u = T @ i`` over per-column extents is *linear* in ``u``: with
    weights ``w[d] = prod(spans[d+1:])``,

        packed = sum_d (u_d - min_d) * w_d = i . (T^T w) - sum_d min_d w_d

    so the entire batch collapses to one ``(N, n) @ (n, B)`` integer
    matmul against the shared point matrix plus a per-candidate offset —
    no ``(B, N, n)`` intermediate and no per-dimension packing passes.
    The fused dot loses the Horner form's stay-in-range guarantee, so
    each candidate's partial sums are bounded (interval arithmetic over
    the box, any summation order) before it joins the batch; candidates
    that overflow — or whose spans overflow the pack itself — fall back
    to dense lexsort ranks for their row alone (``fast.pack.fallback``),
    and ``None`` rows are the native order.

    When the whole batch is provably bounded under 2**27 the keys are
    emitted as int32: every downstream sweep stage (gather, min/max,
    sort, scan) moves half the bytes, which is most of the win on
    small nests.
    """
    state = fast._iter_state(program)
    points = state.points
    total = points.shape[0]
    lowers = list(program.nest.lowers)
    uppers = list(program.nest.uppers)
    mat_rows: list[int] = []
    mats: list[IntMatrix] = []
    none_rows: list[int] = []
    for k, t in enumerate(candidates):
        if t is None:
            none_rows.append(k)
        else:
            mat_rows.append(k)
            mats.append(t)
    dtype = np.int64
    mm_float = False
    tstack = None
    safe_pos = np.empty(0, dtype=np.intp)
    exact: list[int] = []  # positions in ``mats`` for the python-int path
    if mats:
        try:
            tstack = np.array([t.rows for t in mats], dtype=np.int64)
        except OverflowError:
            for t in mats:
                if t.det() not in (1, -1):
                    raise ValueError("transformation must be unimodular")
            exact = list(range(len(mats)))
    if tstack is not None:
        n = tstack.shape[1]
        det_limit = 2.0 ** max(1.0, (53.0 - n) / n - 2.0)
        # Crude whole-batch prescreen: with c = max|T_ij| and
        # L = max|bound|, every quantity the integer prep computes is
        # dominated by a closed form of (c, L, n) alone — spans by
        # S = 2ncL + 1, the span product by S**n, weights by n*c*S**(n-1),
        # offsets and the matmul's worst partial sum by
        # n**2*c*max(L,1)*S**(n-1).  When that scalar clears
        # ``_SAFE_PREP32`` the whole batch provably fits int32 keys and
        # the per-candidate float screen below is skipped entirely (the
        # common case: small coefficients, modest bounds).  A looser
        # crude value is not a verdict — the per-candidate screen can
        # still prove tighter bounds (e.g. permutations of a deep nest,
        # where S**n wildly overestimates the true span product).
        coeff = float(np.abs(tstack).max())
        bnd = float(max(map(abs, lowers + uppers)))
        span_c = 2.0 * n * coeff * bnd + 1.0
        crude = max(
            span_c**n,
            n * n * coeff * max(bnd, 1.0) * span_c ** (n - 1),
            coeff * bnd,
        )
        if crude < _SAFE_PREP32 and coeff < det_limit:
            # Determinants: exact int64 cofactor expansion for n <= 3
            # (the coefficient cap bounds every term), float for deeper
            # nests (exact under the same cap).
            if n == 1:
                dets = tstack[:, 0, 0]
            elif n == 2:
                dets = (
                    tstack[:, 0, 0] * tstack[:, 1, 1]
                    - tstack[:, 0, 1] * tstack[:, 1, 0]
                )
            elif n == 3:
                t = tstack
                dets = (
                    t[:, 0, 0]
                    * (t[:, 1, 1] * t[:, 2, 2] - t[:, 1, 2] * t[:, 2, 1])
                    - t[:, 0, 1]
                    * (t[:, 1, 0] * t[:, 2, 2] - t[:, 1, 2] * t[:, 2, 0])
                    + t[:, 0, 2]
                    * (t[:, 1, 0] * t[:, 2, 1] - t[:, 1, 1] * t[:, 2, 0])
                )
            else:
                dets = np.rint(np.linalg.det(tstack.astype(np.float64)))
            if (np.abs(dets) != 1).any():
                raise ValueError("transformation must be unimodular")
            safe_pos = np.arange(len(mats))
            dtype = np.int32
            mm_float = True
        else:
            # Float64 screen over the whole stack: every quantity the
            # int64 prep will compute — extents, span products, weight
            # vectors, offsets, and the matmul's worst partial sum — is
            # bounded from above in float first.  Candidates whose
            # bounds clear ``_SAFE_PREP`` are provably wrap-free in
            # int64 (the screen keeps 16x headroom over float rounding
            # and an 8-term summation margin under 2**62); the rest
            # take the exact python-int path.
            tf = tstack.astype(np.float64)
            lo_f = np.array(lowers, dtype=np.float64)
            up_f = np.array(uppers, dtype=np.float64)
            a = tf * lo_f
            b = tf * up_f
            mins_f = np.minimum(a, b).sum(axis=2)
            maxs_f = np.maximum(a, b).sum(axis=2)
            spans_f = maxs_f - mins_f + 1.0
            incl = np.cumprod(spans_f[:, ::-1], axis=1)[:, ::-1]
            wdims_f = np.concatenate(
                (incl[:, 1:], np.ones((len(mats), 1))), axis=1
            )
            wp_bound = (np.abs(tf) * wdims_f[:, :, None]).sum(axis=1)
            reach_f = (
                wp_bound * np.maximum(np.abs(lo_f), np.abs(up_f))
            ).sum(axis=1)
            off_bound = (
                np.maximum(np.abs(mins_f), np.abs(maxs_f)) * wdims_f
            ).sum(axis=1)
            elem_bound = np.maximum(np.abs(a), np.abs(b)).max(axis=(1, 2))
            safe = (
                (incl[:, 0] < _SAFE_PREP)
                & (reach_f < _SAFE_PREP)
                & (off_bound < _SAFE_PREP)
                & (elem_bound < _SAFE_PREP)
                & (wp_bound.max(axis=1) < _SAFE_PREP)
            )
            # Unimodularity: the float det is exact while every det
            # term stays inside float64's 53-bit mantissa; bigger
            # coefficients re-check with the exact integer det.
            coeff_max = np.abs(tf).max(axis=(1, 2))
            det_exact = coeff_max < det_limit
            dets = np.rint(np.linalg.det(tf))
            if (det_exact & (np.abs(dets) != 1.0)).any():
                raise ValueError("transformation must be unimodular")
            for pos in np.nonzero(~det_exact)[0]:
                if mats[pos].det() not in (1, -1):
                    raise ValueError("transformation must be unimodular")
            safe_pos = np.nonzero(safe)[0]
            exact = [int(p) for p in np.nonzero(~safe)[0]]
            if safe_pos.size:
                # Tight per-batch ceiling from the screened quantities:
                # under 2**27 every safe row fits int32 (requires no
                # python-int rows, whose values are unscreened); under
                # 2**53 the key matmul is exact in float64 (BLAS).
                batch_bound = max(
                    float(incl[safe_pos, 0].max()),
                    float(reach_f[safe_pos].max()),
                    float(off_bound[safe_pos].max()),
                    float(elem_bound[safe_pos].max()),
                    float(wp_bound[safe_pos].max()),
                )
                if (
                    not exact
                    and batch_bound < _SAFE_PREP32
                    and total < 1 << 30
                ):
                    dtype = np.int32
                mm_float = batch_bound < float(1 << 53)
    keys = np.empty((len(candidates), total), dtype=dtype)
    if none_rows:
        keys[none_rows] = np.arange(total, dtype=dtype)
    if not mats:
        return keys
    krows = np.array(mat_rows, dtype=np.intp)
    if tstack is not None and safe_pos.size:
        ts = tstack if safe_pos.size == len(mats) else tstack[safe_pos]
        a64 = ts * np.array(lowers, dtype=np.int64)
        b64 = ts * np.array(uppers, dtype=np.int64)
        mins64 = np.minimum(a64, b64).sum(axis=2)
        maxs64 = np.maximum(a64, b64).sum(axis=2)
        spans64 = maxs64 - mins64 + 1
        incl64 = np.cumprod(spans64[:, ::-1], axis=1)[:, ::-1]
        wdims64 = np.concatenate(
            (
                incl64[:, 1:],
                np.ones((safe_pos.size, 1), dtype=np.int64),
            ),
            axis=1,
        )
        wprime64 = (ts * wdims64[:, :, None]).sum(axis=1)
        offs64 = (mins64 * wdims64).sum(axis=1)
        if mm_float:
            packed = _points_f64(program, points) @ wprime64.astype(
                np.float64
            ).T  # (N, S), every product and partial sum an exact f64 int
            packed -= offs64.astype(np.float64)
        else:
            packed = points @ wprime64.T  # (N, S)
            packed -= offs64
        # Assignment casts float/int64 into the key dtype in place —
        # values are proven in range, so the cast is exact.
        keys[krows[safe_pos]] = packed.T
    packed_rows: list[int] = []
    weights: list = []
    offsets: list[int] = []
    for pos in exact:
        t = mats[pos]
        k = mat_rows[pos]
        rows = t.to_lists()
        mins, maxs = fast._affine_extents(
            rows, [0] * len(rows), lowers, uppers
        )
        spans = [hi - lo + 1 for lo, hi in zip(mins, maxs)]
        ok = fast.spans_fit_int64(spans)
        if ok:
            w = 1
            wdims = [0] * len(spans)
            for d in range(len(spans) - 1, -1, -1):
                wdims[d] = w
                w *= spans[d]
            wprime = [
                sum(rows[i][j] * wdims[i] for i in range(len(rows)))
                for j in range(len(rows))
            ]
            offset = sum(m * wd for m, wd in zip(mins, wdims))
            # Any partial sum of i . wprime (whatever order the matmul
            # accumulates in) is bounded by the per-column magnitudes;
            # the weight entries themselves must fit int64 too (a zero-
            # width loop zeroes its reach term but not its weight).
            reach = sum(
                max(abs(wp * lo), abs(wp * hi))
                for wp, lo, hi in zip(wprime, lowers, uppers)
            )
            ok = reach < fast._INT64_LIMIT and all(
                abs(wp) < fast._INT64_LIMIT for wp in wprime
            ) and abs(offset) < fast._INT64_LIMIT
        if not ok:
            obs.counter("fast.pack.fallback")
            keys[k] = fast._execution_times(program, t)
            continue
        packed_rows.append(k)
        weights.append(wprime)
        offsets.append(offset)
    if packed_rows:
        # Exact-path candidates that proved wrap-free with python ints:
        # their weight vectors join one small matmul of their own.
        wmat = np.array(weights, dtype=np.int64)  # (B, n)
        packed = points @ wmat.T  # (N, B)
        packed -= np.array(offsets, dtype=np.int64)
        keys[np.array(packed_rows, dtype=np.intp)] = packed.T
    return keys


def _array_states(
    program: Program, arrays: Sequence[str]
) -> list[fast._ElementState]:
    return [fast._element_state(program, a) for a in arrays]


#: Padded-gather budget: pad the per-element access lists to a rectangle
#: only while ``n_elems * pad_width`` stays within this multiple of the
#: true access count — beyond it the raggedness makes the strided
#: min/max read more padding than data and reduceat wins back.
_PAD_GATHER_LIMIT = 4


def _array_specs(
    arrays: Sequence[str], states: Sequence[fast._ElementState]
) -> list[SweepArraySpec]:
    specs = []
    for a, st in zip(arrays, states):
        n_acc = int(st.point_row.shape[0])
        pad = 0
        if st.n_elems:
            lens = np.diff(np.append(st.seg_starts, n_acc))
            width = int(lens.max())
            if st.n_elems * width <= _PAD_GATHER_LIMIT * n_acc:
                pad = width
        specs.append(SweepArraySpec(a, n_acc, st.n_elems, pad))
    return specs


def _padded_index(st: fast._ElementState, n_acc: int, width: int) -> np.ndarray:
    """Element-major gather index, each segment padded to ``width`` by
    repeating its last member (min/max-neutral)."""
    lens = np.diff(np.append(st.seg_starts, n_acc))
    pos = st.seg_starts[:, None] + np.minimum(
        np.arange(width), (lens - 1)[:, None]
    )
    return st.point_row[pos].ravel()


def _generic_sweep(
    states: Sequence[fast._ElementState], keys: np.ndarray
) -> np.ndarray:
    """Non-specialized batched sweep, the oracle for the emitted kernels.

    Same two regime bodies as the emitted kernels (see the correctness
    note in :mod:`repro.ir.codegen`), selected at runtime instead of
    baked, with the array loop in Python instead of unrolled.
    """
    firsts = []
    lasts = []
    for st in states:
        seq = keys[:, st.point_row]
        firsts.append(np.minimum.reduceat(seq, st.seg_starts, axis=1))
        lasts.append(np.maximum.reduceat(seq, st.seg_starts, axis=1))
    starts = firsts[0] if len(firsts) == 1 else np.concatenate(firsts, axis=1)
    ends = lasts[0] if len(lasts) == 1 else np.concatenate(lasts, axis=1)
    total_elems = starts.shape[1]
    if total_elems == 0:
        return np.zeros(keys.shape[0], dtype=np.int64)
    if total_elems <= codegen._EVENT_SWEEP_MAX_ELEMS:
        times = np.empty((keys.shape[0], 2 * total_elems), dtype=keys.dtype)
        np.multiply(ends, 2, out=times[:, :total_elems])
        np.multiply(starts, 2, out=times[:, total_elems:])
        times[:, total_elems:] += 1
        times.sort(axis=1)
        times &= 1
        np.cumsum(times, axis=1, out=times)
        times += times
        times -= np.arange(1, 2 * total_elems + 1, dtype=np.int64)
        return times.max(axis=1, initial=0)
    out = np.empty(keys.shape[0], dtype=np.int64)
    starts.sort(axis=1)
    ends.sort(axis=1)
    counts = np.arange(1, total_elems + 1, dtype=np.int64)
    for r in range(keys.shape[0]):
        occ = counts - np.searchsorted(ends[r], starts[r], side="right")
        out[r] = occ.max()
    return out


def _compile_python(
    program: Program, arrays: Sequence[str]
) -> Callable[[np.ndarray], np.ndarray]:
    states = _array_states(program, arrays)
    specs = _array_specs(arrays, states)
    source = sweep_kernel_source(specs)
    namespace: dict = {"np": np}
    for i, (st, spec) in enumerate(zip(states, specs)):
        if spec.pad_width:
            namespace[f"_PP{i}"] = _padded_index(
                st, spec.n_accesses, spec.pad_width
            )
        else:
            namespace[f"_PR{i}"] = st.point_row
            namespace[f"_SS{i}"] = st.seg_starts
    filename = f"<sweep-kernel:{program.signature()[:12]}>"
    exec(compile(source, filename, "exec"), namespace)
    return namespace["sweep"]


def _sweep_kernel(
    program: Program, arrays: tuple[str, ...]
) -> Callable[[np.ndarray], np.ndarray]:
    key = (program.signature(), arrays)
    kernel = _KERNELS.get(key)
    if kernel is not None:
        _KERNELS.move_to_end(key)
        return kernel
    kernel = _compile_python(program, arrays)
    obs.counter("kernel.specialized")
    _KERNELS[key] = kernel
    while len(_KERNELS) > _KERNELS_LIMIT:
        _KERNELS.popitem(last=False)
    return kernel


def batched_mws(
    program: Program,
    candidates: Sequence[IntMatrix | None],
    array: str | None = None,
) -> list[int]:
    """Exact MWS of every candidate transformation, scored as one batch.

    ``array=None`` scores the program-level total window (sum over all
    arrays), a name scores that array alone — value-identical to calling
    :func:`repro.window.simulator.max_window_size` /
    ``max_total_window`` per candidate (the differential suite pins
    this), including ``ValueError`` for non-unimodular candidates and
    ``KeyError`` for unknown arrays.  Dense nests only: past
    :data:`repro.window.fast.DENSE_BUDGET` the iteration matrix does not
    exist and this raises ``ValueError`` (score per candidate through
    the simulator, which streams).
    """
    obs.counter("batch.candidates", len(candidates))
    arrays = (array,) if array is not None else tuple(program.arrays)
    if array is not None and not program.refs_to(array):
        raise KeyError(array)
    obs.counter("engine.fast.calls", len(candidates))
    obs.counter("fast.simulate.calls", len(candidates))
    if not candidates:
        return []
    if not arrays:
        return [0] * len(candidates)
    total = fast._iter_state(program).points.shape[0]
    chunk = max(1, _CHUNK_ELEMS // max(1, total))
    values: list[int] = []
    with obs.span(
        "simulate", candidates=len(candidates), array=array or "*"
    ):
        for start in range(0, len(candidates), chunk):
            keys = _batched_time_keys(program, candidates[start : start + chunk])
            values.extend(_sweep_kernel(program, arrays)(keys).tolist())
    return values

"""Source generation: IR back to C-like text, including transformed nests.

``generate_source`` round-trips the parser's syntax.  For a unimodular
transformation ``T``, ``generate_transformed_source`` emits the nest that
scans ``u = T @ i`` in lexicographic order: new-loop bounds come from
Fourier-Motzkin elimination of the transformed domain, and each original
index in the body is rewritten as the corresponding row of ``T^{-1} @ u``.

The module is also the *kernel specializer* behind the batched scoring
engine (:mod:`repro.window.batched`): :func:`sweep_kernel_source` emits
a flat, program-specific numpy first/last-touch sweep for one exact
nest/reference structure.  The
emitted kernel takes a ``(K, N)`` matrix of order-isomorphic time keys
(one row per candidate transformation) and returns the K peak
concurrent-interval counts, i.e. the exact MWS of every candidate in
one call.  All loops over the program's arrays are unrolled and every
size (iteration count, access count, element count) is baked in as a
literal, so the kernel body contains no dict lookups, no branches on
program shape, and no per-array Python dispatch.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.ir.program import Program
from repro.ir.reference import ArrayRef
from repro.ir.statement import Statement
from repro.linalg import IntMatrix
from repro.polyhedral.fourier_motzkin import loop_bounds
from repro.polyhedral.polytope import ConstraintSystem


class SweepArraySpec(NamedTuple):
    """Shape of one array's cached access layout, as the specializer
    sees it: sizes only — the actual index arrays are bound at compile
    time by :mod:`repro.window.batched`.

    ``pad_width > 0`` selects the padded-gather reduction for this
    array: every element's access list is padded to ``pad_width``
    entries (repeating a member, which is min/max-neutral), so the
    segmented first/last reduction becomes a plain strided
    ``min``/``max`` over a ``(K, n_elems, pad_width)`` view — much
    faster than ``np.ufunc.reduceat``'s per-segment loop.  ``0`` keeps
    the reduceat body (chosen when the layout is too ragged for padding
    to pay)."""

    name: str
    n_accesses: int  # total dynamic accesses (all references)
    n_elems: int  # distinct touched elements
    pad_width: int = 0  # padded accesses per element (0 = use reduceat)


def _render_ref(ref: ArrayRef, index_names: Sequence[str]) -> str:
    subs = "][".join(ref.subscript_strings(index_names))
    return f"{ref.array}[{subs}]"


def _render_statement(stmt: Statement, index_names: Sequence[str]) -> str:
    reads = " + ".join(_render_ref(r, index_names) for r in stmt.reads) or "0"
    if stmt.writes:
        lhs = _render_ref(stmt.writes[0], index_names)
        return f"{stmt.label}: {lhs} = {reads}"
    return f"{stmt.label}: {reads}"


def generate_source(program: Program) -> str:
    """Emit the program in the parser's input syntax (round-trippable)."""
    lines = []
    for decl in program.decls:
        dims = "".join(
            f"[{o}:{o + e - 1}]" for o, e in zip(decl.origins, decl.extents)
        )
        lines.append(f"array {decl.name}{dims}")
    names = program.nest.index_names
    for depth, loop in enumerate(program.nest.loops):
        lines.append("  " * depth + f"for {loop.index} = {loop.lower} to {loop.upper} {{")
    pad = "  " * program.nest.depth
    for stmt in program.statements:
        lines.append(pad + _render_statement(stmt, names))
    for depth in range(program.nest.depth - 1, -1, -1):
        lines.append("  " * depth + "}")
    return "\n".join(lines) + "\n"


def _rewrite_ref(ref: ArrayRef, inverse: IntMatrix) -> ArrayRef:
    """Compose the access with ``i = T^{-1} u``: new access = A @ T^{-1}."""
    return ArrayRef(ref.array, ref.access @ inverse, ref.offset, ref.kind)


def generate_transformed_source(
    program: Program,
    transformation: IntMatrix,
    new_names: Sequence[str] | None = None,
) -> str:
    """Emit the nest transformed by a unimodular matrix.

    The emitted loops scan the image polytope with ``ceild``/``floord``
    bounds; the body references are rewritten through ``T^{-1}``.  The
    rational Fourier-Motzkin shadow can make some inner loops empty at the
    fringe — the bounds guard that naturally (``lower > upper`` skips).
    """
    n = program.nest.depth
    if transformation.shape != (n, n):
        raise ValueError("transformation shape does not match nest depth")
    inverse = transformation.inverse_unimodular()
    names = tuple(new_names) if new_names else tuple(f"u{k+1}" for k in range(n))
    system = ConstraintSystem.transformed_nest(program.nest, transformation, names)
    bounds = loop_bounds(system)

    lines = []
    for decl in program.decls:
        dims = "".join(
            f"[{o}:{o + e - 1}]" for o, e in zip(decl.origins, decl.extents)
        )
        lines.append(f"array {decl.name}{dims}")
    for depth in range(n):
        outer = names[:depth]
        lo = bounds[depth].render_lower(outer)
        hi = bounds[depth].render_upper(outer)
        lines.append("  " * depth + f"for {names[depth]} = {lo} to {hi} {{")
    pad = "  " * n
    for stmt in program.statements:
        rewritten = Statement(
            stmt.label,
            tuple(_rewrite_ref(r, inverse) for r in stmt.writes),
            tuple(_rewrite_ref(r, inverse) for r in stmt.reads),
        )
        lines.append(pad + _render_statement(rewritten, names))
    for depth in range(n - 1, -1, -1):
        lines.append("  " * depth + "}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# sweep-kernel specialization (batched candidate scoring)
# ----------------------------------------------------------------------
#
# Exactness of the emitted sweep: for each element the kernel reduces
# its access-time keys to (first, last) with segmented min/max over the
# cached element-sorted layout, then computes the peak count of
# concurrently open half-open intervals ``[first, last)``.  Occupancy at
# time ``t`` is ``#(starts <= t) - #(ends <= t)`` (the per-candidate
# path's :func:`repro.window.fast._peak_concurrent` formula) and only
# increases at start times.  Single-touch elements (first == last) are
# kept instead of filtered — their end is counted at or before their own
# start, so a degenerate interval nets zero at every scan point.
#
# Two equivalent realizations, chosen by the baked element count:
#
# * small E (``<= _EVENT_SWEEP_MAX_ELEMS``): encode the events in-band —
#   ``2*last`` for ends, ``2*first + 1`` for starts — then one plain
#   (unstable) in-place sort over the ``(K, 2E)`` batch and a cumulative
#   +1/-1 scan of the low bit.  The encoding preserves key order and
#   breaks every tie as end-before-start, so degenerates stay neutral,
#   without needing a stable argsort (sort is ~2x cheaper and skips the
#   permutation gather).  Keys are bounded by 2**62 (the
#   ``spans_fit_int64`` pack budget / dense-rank row counts), so the
#   doubling cannot wrap int64.  One vectorized call amortizes across
#   all K candidates.
# * large E: per-row ``sort`` of starts and ends plus a ``searchsorted``
#   scan — ``(i + 1) - #(ends <= s)`` at the ``i``-th smallest start.
#   Two sorts of E keys beat an argsort of 2E events by the
#   argsort-vs-sort constant once E dwarfs the per-row call overhead.
#
# The regime boundary is compile-time: E is a literal of the
# specialization, so each emitted kernel contains exactly one body.

#: Element-count ceiling for the vectorized event-sweep body; above it
#: the per-row sort/searchsorted body wins.  Crossover measured on the
#: bench suite sits near 10^4 elements; the constant is deliberately
#: below it (both bodies are exact, so only speed is at stake).
_EVENT_SWEEP_MAX_ELEMS = 4096


def sweep_kernel_source(specs: Sequence[SweepArraySpec]) -> str:
    """Emit a program-specialized numpy sweep kernel as Python source.

    The source defines ``sweep(keys)`` mapping ``(K, N)`` int64 time
    keys to the ``(K,)`` exact MWS values for the arrays in ``specs``
    (their sum-window when several).  It references the globals
    ``_PP<i>`` (padded element-major gather index, arrays with
    ``pad_width``) or ``_PR<i>``/``_SS<i>`` (access->row gather index
    and segment starts, reduceat arrays), which the compiler binds to
    the cached :class:`repro.window.fast._ElementState` data.  Every
    array loop is unrolled and every size is a literal.
    """
    if not specs:
        raise ValueError("sweep kernel needs at least one array")
    total_elems = sum(spec.n_elems for spec in specs)
    names = ", ".join(spec.name for spec in specs)
    lines = [
        "import numpy as np",
        "",
        "",
        "def sweep(keys):",
        f'    """Specialized first/last-touch sweep over arrays: {names}."""',
    ]
    firsts = []
    lasts = []
    for i, spec in enumerate(specs):
        if spec.pad_width:
            lines.append(
                f"    seq{i} = keys[:, _PP{i}]"
                f".reshape(-1, {spec.n_elems}, {spec.pad_width})"
            )
            lines.append(f"    f{i} = seq{i}.min(axis=2)")
            lines.append(f"    l{i} = seq{i}.max(axis=2)")
        else:
            lines.append(f"    seq{i} = keys[:, _PR{i}]")
            lines.append(
                f"    f{i} = np.minimum.reduceat(seq{i}, _SS{i}, axis=1)"
            )
            lines.append(
                f"    l{i} = np.maximum.reduceat(seq{i}, _SS{i}, axis=1)"
            )
        firsts.append(f"f{i}")
        lasts.append(f"l{i}")
    tail = []
    if total_elems <= _EVENT_SWEEP_MAX_ELEMS:
        lines.append(
            f"    times = np.empty((keys.shape[0], {2 * total_elems}),"
            " dtype=keys.dtype)"
        )
        offset = 0
        for i, spec in enumerate(specs):
            lines.append(
                f"    np.multiply(l{i}, 2,"
                f" out=times[:, {offset}:{offset + spec.n_elems}])"
            )
            offset += spec.n_elems
        for i, spec in enumerate(specs):
            lines.append(
                f"    np.multiply(f{i}, 2,"
                f" out=times[:, {offset}:{offset + spec.n_elems}])"
            )
            offset += spec.n_elems
        # After the in-place sort, ``times`` is reused for the scan:
        # occupancy after the k-th event is 2 * (#starts so far) - (k+1).
        lines.extend(
            [
                f"    times[:, {total_elems}:] += 1",
                "    times.sort(axis=1)",
                "    times &= 1",
                "    np.cumsum(times, axis=1, out=times)",
                "    times += times",
                "    times -= _EVT",  # same_kind in-place cast for int32
                "    return times.max(axis=1, initial=0)",
            ]
        )
        tail = [
            "",
            "",
            f"_EVT = np.arange(1, {2 * total_elems + 1}, dtype=np.int64)",
        ]
    else:
        if len(specs) == 1:
            lines.append("    starts = f0")
            lines.append("    ends = l0")
        else:
            lines.append(
                f"    starts = np.concatenate(({', '.join(firsts)},), axis=1)"
            )
            lines.append(
                f"    ends = np.concatenate(({', '.join(lasts)},), axis=1)"
            )
        lines.extend(
            [
                "    starts.sort(axis=1)",
                "    ends.sort(axis=1)",
                "    out = np.empty(keys.shape[0], dtype=np.int64)",
                "    for r in range(keys.shape[0]):",
                "        occ = _COUNTS - np.searchsorted("
                'ends[r], starts[r], side="right")',
                "        out[r] = occ.max()",
                "    return out",
            ]
        )
        tail = [
            "",
            "",
            f"_COUNTS = np.arange(1, {total_elems + 1}, dtype=np.int64)",
        ]
    lines.extend(tail)
    return "\n".join(lines) + "\n"

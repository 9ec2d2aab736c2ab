"""Program-level window minimization.

The Figure-2 driver: gather candidate unimodular transformations from
(a) the per-array Section 4 searches (2-D and 3-D nests), (b) all signed
permutations (interchange/reversal compositions — also the Eisenbeis
baseline space, and the only tractable generic space for 4-deep and
deeper nests), and (c) the identity; keep the legal ones; pick the
candidate minimizing the *total* maximum window size
(``max_t sum_X |W_X(t)|``), which is the memory the embedded system must
provision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.transform.elementary import signed_permutations
from repro.transform.legality import is_legal, ordering_distances


@dataclass(frozen=True)
class OptimizationResult:
    """Best transformation found for a program."""

    program: str
    transformation: IntMatrix
    mws_before: int
    mws_after: int
    candidates_tried: int

    @property
    def improved(self) -> bool:
        return self.mws_after < self.mws_before

    @property
    def reduction(self) -> float:
        if self.mws_before == 0:
            return 0.0
        return 1.0 - self.mws_after / self.mws_before


def _program_ordering_distances(program: Program) -> list[tuple[int, ...]]:
    out: dict[tuple[int, ...], None] = {}
    for array in program.arrays:
        if program.is_uniformly_generated(array):
            for d in ordering_distances(program, array):
                out.setdefault(d, None)
    return list(out)


def candidate_transformations(
    program: Program, workers: int = 0, store=None
) -> list[IntMatrix]:
    """Legal candidate transformations for program-level optimization.

    Four sources: the identity; all signed permutations (interchange and
    reversal compositions); for 2-deep nests every unimodular matrix with
    entries in ``[-2, 2]`` (skews included — what the sor kernel needs);
    per-array Section-4 search winners (2-D/3-D); and, at any depth, the
    Section-4.3 generalization — each array's access-matrix rows embedded
    as the leading rows of ``T`` so that array's reuse collapses to the
    innermost levels (what motion-estimation kernels need).
    """
    n = program.nest.depth
    distances = _program_ordering_distances(program)
    candidates: dict[IntMatrix, None] = {IntMatrix.identity(n): None}
    for t in signed_permutations(n):
        if is_legal(t, distances):
            candidates.setdefault(t, None)
    if n == 2:
        from repro.transform.elementary import bounded_unimodular_matrices

        for t in bounded_unimodular_matrices(2, 2):
            if is_legal(t, distances):
                candidates.setdefault(t, None)
    if n in (2, 3):
        from repro.transform.search import search_mws_2d, search_mws_3d

        search = search_mws_2d if n == 2 else search_mws_3d
        for array in program.arrays:
            if not program.is_uniformly_generated(array):
                continue
            try:
                result = search(
                    program, array, workers=workers, store=store
                )
            except (ValueError, KeyError):
                continue
            if is_legal(result.transformation, distances):
                candidates.setdefault(result.transformation, None)
    for t in _access_embeddings(program, distances):
        candidates.setdefault(t, None)
    return list(candidates)


def _access_embeddings(
    program: Program, distances: list[tuple[int, ...]]
) -> list[IntMatrix]:
    """Per-array access-matrix embeddings (Section 4.3, any depth).

    For each reference whose access-matrix rows are independent and fewer
    than the nest depth, complete those rows to a unimodular matrix that
    keeps all ordering distances non-negative; executing in that order
    makes all iterations touching one element of the array consecutive.
    """
    from repro.transform.completion import complete_rows_legal

    n = program.nest.depth
    out: list[IntMatrix] = []
    seen: set[tuple] = set()
    for ref in program.references:
        rows = [list(ref.access.row(k)) for k in range(ref.rank)]
        key = (ref.array, tuple(map(tuple, rows)))
        if key in seen:
            continue
        seen.add(key)
        if ref.rank >= n:
            continue
        t = complete_rows_legal(rows, distances)
        if t is not None and is_legal(t, distances):
            out.append(t)
    return out


def optimize_program(
    program: Program, workers: int = 0, store=None, parametric: bool = False,
) -> OptimizationResult:
    """Choose the legal transformation minimizing total MWS.

    Exact scoring via the window simulator; the identity is always a
    candidate, so the result never regresses.  ``workers > 1``
    parallelizes both the per-array searches and the program-level
    candidate scoring; results are identical to serial mode (candidates
    are scored in the same deterministic order with strict-improvement
    tie-breaking either way).

    Candidates run through the tiered evaluation cascade: the native
    order (first, so its score is always exact) sets the incumbent, and
    candidates whose certified/clipped lower bound cannot strictly beat
    the running best are never simulated — the chosen transformation is
    identical to scoring everything.  ``store`` (a
    :class:`repro.store.ResultStore`) persists search results and exact
    values, so a warm process re-optimizes without simulating.
    ``parametric=True`` answers candidate scores from derived
    closed-form expressions where the parametric engine covers them
    (identical values; see :func:`repro.transform.search.evaluate_exact`).
    """
    from repro.transform.search import evaluate_cascade

    with obs.span("optimize", program=program.name, workers=workers):
        with obs.span("candidates"):
            candidates = candidate_transformations(
                program, workers=workers, store=store
            )
        obs.counter("optimize.candidates", len(candidates))
        outcomes = evaluate_cascade(
            program, [None] + candidates, array=None, workers=workers,
            store=store, parametric=parametric,
        )
        before = outcomes[0].value
        best_t = IntMatrix.identity(program.nest.depth)
        best_value = before
        for t, outcome in zip(candidates, outcomes[1:]):
            if outcome.exact and outcome.value < best_value:
                best_value = outcome.value
                best_t = t
        return OptimizationResult(
            program=program.name,
            transformation=best_t,
            mws_before=before,
            mws_after=best_value,
            candidates_tried=len(candidates),
        )

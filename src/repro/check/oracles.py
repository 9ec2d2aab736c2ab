"""Oracle registry: cross-implementation equivalences and metamorphic relations.

An *oracle* is a checkable statement about the analysis stack that must
hold for **every** program in the paper's model.  Two kinds:

* ``cross`` — independent implementations (or an implementation and its
  bound) must agree: the four window engines, the Section 3 closed forms
  against the enumeration oracle, the cascade's pruning against full
  simulation, the line-granular window against the element window.

* ``metamorphic`` — a semantics-preserving transformation of the input
  must move the output in a known way (Chen et al.'s metamorphic
  testing): distinct counts are invariant under unimodular relabeling of
  the iteration space, MWS is invariant under time reversal and offset
  translation, monotone under trip-count extension, and legal loop-order
  permutations preserve concrete execution results.

Each oracle bundles ``generate -> check`` over
:func:`repro.ir.generate.random_program`; metamorphic oracles derive
their transformation deterministically from ``(program, seed)`` so the
shrinker can re-run the same relation on reduced programs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.ir.generate import GeneratorConfig, random_program
from repro.ir.loop import Loop, LoopNest
from repro.ir.program import Program
from repro.ir.reference import ArrayRef
from repro.ir.statement import Statement
from repro.linalg import IntMatrix


@dataclass(frozen=True)
class Violation:
    """One oracle failure: which oracle, and what disagreed."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


class Oracle:
    """Base class: a named, generated, checkable invariant.

    Subclasses set ``name``, ``kind`` (``"cross"`` | ``"metamorphic"``),
    ``paper`` (why the invariant follows from the paper) and ``config``
    (the generator regime the oracle targets), and implement
    :meth:`check`.  ``check(program, seed)`` must depend only on its two
    arguments — the shrinker re-invokes it on reduced programs with the
    original seed.
    """

    name: str = ""
    kind: str = "cross"
    paper: str = ""
    config: GeneratorConfig = GeneratorConfig()

    def generate(self, seed: int) -> Program:
        """The random program this oracle fuzzes at ``seed``."""
        return random_program(seed, self.config)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        """``None`` when the invariant holds, a :class:`Violation` otherwise."""
        raise NotImplementedError

    def run(self, seed: int) -> Violation | None:
        """Generate at ``seed`` and check — one fuzz case."""
        return self.check(self.generate(seed), seed)

    def fail(self, detail: str, program: Program | None = None) -> Violation:
        if program is not None:
            from repro.ir import generate_source

            detail = f"{detail}\n{generate_source(program)}"
        return Violation(self.name, detail)


#: name -> oracle instance, in registration order.
ORACLES: dict[str, Oracle] = {}


def register(cls: type[Oracle]) -> type[Oracle]:
    """Class decorator: instantiate and add to :data:`ORACLES`."""
    oracle = cls()
    if not oracle.name:
        raise ValueError(f"{cls.__name__} has no name")
    if oracle.kind not in ("cross", "metamorphic"):
        raise ValueError(f"{oracle.name}: unknown kind {oracle.kind!r}")
    if oracle.name in ORACLES:
        raise ValueError(f"duplicate oracle name {oracle.name!r}")
    ORACLES[oracle.name] = oracle
    return cls


def all_oracles() -> tuple[Oracle, ...]:
    return tuple(ORACLES.values())


def oracle_names() -> tuple[str, ...]:
    return tuple(ORACLES)


def get_oracle(name: str) -> Oracle:
    try:
        return ORACLES[name]
    except KeyError:
        raise KeyError(
            f"unknown oracle {name!r}; registered: {', '.join(ORACLES)}"
        ) from None


# ----------------------------------------------------------------------
# program rewriting helpers (shared by the metamorphic oracles)
# ----------------------------------------------------------------------

def _rebuild(
    program: Program,
    loops: list[Loop] | None = None,
    statements: list[Statement] | None = None,
    name: str | None = None,
) -> Program:
    """A copy with loops/statements replaced (declarations re-inferred)."""
    return Program(
        LoopNest(loops if loops is not None else list(program.nest.loops)),
        statements if statements is not None else list(program.statements),
        name=name or program.name,
    )


def _map_refs(program: Program, fn) -> list[Statement]:
    return [
        Statement(
            stmt.label,
            tuple(fn(ref) for ref in stmt.writes),
            tuple(fn(ref) for ref in stmt.reads),
        )
        for stmt in program.statements
    ]


def relabel_signed_permutation(
    program: Program, perm: tuple[int, ...], signs: tuple[int, ...]
) -> Program:
    """Unimodular relabeling of the iteration space by a signed permutation.

    New index ``u_k`` stands for old index ``i_{perm[k]}``; where
    ``signs[k] == -1`` the axis is reversed via ``i_j = (lb_j + ub_j) -
    u_k`` (a unimodular map plus translation, so the new box is the same
    rectangle).  Every relabeled iteration touches exactly the elements
    of its pre-image, so the touched-element *set* of each array — hence
    ``A_d`` — is identical by construction.
    """
    old = program.nest.loops
    n = len(old)
    if sorted(perm) != list(range(n)) or len(signs) != n:
        raise ValueError("perm must permute range(depth); one sign per level")
    loops = [
        Loop(f"u{k + 1}", old[perm[k]].lower, old[perm[k]].upper)
        for k in range(n)
    ]

    def relabel(ref: ArrayRef) -> ArrayRef:
        offset = list(ref.offset)
        rows = []
        for d, row in enumerate(ref.access.rows):
            new_row = [0] * n
            for k in range(n):
                j = perm[k]
                coeff = row[j]
                if signs[k] < 0:
                    offset[d] += coeff * (old[j].lower + old[j].upper)
                    new_row[k] = -coeff
                else:
                    new_row[k] = coeff
            rows.append(new_row)
        return ArrayRef(ref.array, IntMatrix(rows), tuple(offset), ref.kind)

    return _rebuild(
        program,
        loops=loops,
        statements=_map_refs(program, relabel),
        name=f"{program.name}#relabel",
    )


def translate_offsets(program: Program, shifts: dict[str, tuple[int, ...]]) -> Program:
    """Translate every reference of each array by a per-array constant.

    All references to one array move together, so pairwise offset
    differences — and with them every dependence distance, window and
    distinct count — are untouched; only the touched bounding box slides.
    """

    def translate(ref: ArrayRef) -> ArrayRef:
        shift = shifts.get(ref.array)
        if shift is None:
            return ref
        return ArrayRef(
            ref.array,
            ref.access,
            tuple(o + s for o, s in zip(ref.offset, shift)),
            ref.kind,
        )

    return _rebuild(
        program, statements=_map_refs(program, translate),
        name=f"{program.name}#shift",
    )


def extend_outermost(program: Program, extra: int) -> Program:
    """Extend the outermost loop's upper bound by ``extra`` iterations.

    The original execution is a strict prefix of the extended one (the
    appended iterations sort lexicographically last), so first-touch
    times are preserved and last-touch times can only move later — every
    original window is a subset of an extended window.
    """
    if extra < 0:
        raise ValueError("extension must be non-negative")
    loops = list(program.nest.loops)
    loops[0] = Loop(loops[0].index, loops[0].lower, loops[0].upper + extra)
    return _rebuild(program, loops=loops, name=f"{program.name}#ext{extra}")


def _seed_transformation(program: Program, seed: int) -> IntMatrix:
    """A deterministic pseudo-random unimodular execution order.

    Signed permutations for any depth, plus skewed bounded unimodular
    matrices for 2-deep nests — the same pool the differential harness
    used before it moved here.
    """
    from repro.transform.elementary import (
        bounded_unimodular_matrices,
        signed_permutations,
    )

    rng = random.Random(seed * 7919 + program.nest.depth)
    pool = list(signed_permutations(program.nest.depth))
    if program.nest.depth == 2:
        pool.extend(
            t for t in bounded_unimodular_matrices(2, 1) if not t.is_identity()
        )
    return pool[rng.randrange(len(pool))]


def _mws_all_engines(
    program: Program, array: str, transformation: IntMatrix | None
) -> dict[str, int]:
    from repro.window.fast import max_window_size_fast
    from repro.window.simulator import max_window_size_reference
    from repro.window.streaming import max_window_size_streaming
    from repro.window.zhao_malik import max_window_size_zhao_malik

    return {
        "reference": max_window_size_reference(program, array, transformation),
        "fast": max_window_size_fast(program, array, transformation),
        "streaming": max_window_size_streaming(program, array, transformation),
        "zhao_malik": max_window_size_zhao_malik(program, array, transformation),
    }


# ----------------------------------------------------------------------
# cross-implementation oracles
# ----------------------------------------------------------------------

class _EnginesAgree(Oracle):
    kind = "cross"
    paper = (
        "Section 2.3 defines one reference window; all four engines "
        "compute it, so they must agree under every unimodular order."
    )

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        t = _seed_transformation(program, seed)
        for array in program.arrays:
            for transformation in (None, t):
                values = _mws_all_engines(program, array, transformation)
                if len(set(values.values())) != 1:
                    where = "native" if transformation is None else f"T={transformation.rows}"
                    return self.fail(
                        f"array {array} ({where}): engines disagree {values}",
                        program,
                    )
        return None


@register
class EnginesAgree2D(_EnginesAgree):
    name = "engines-agree-2d"
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6, max_coeff=3)


@register
class EnginesAgree3D(_EnginesAgree):
    name = "engines-agree-3d"
    config = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)


@register
class TotalWindowAgrees(Oracle):
    name = "total-window-agrees"
    kind = "cross"
    paper = (
        "Section 2.3's program window is max_t of the summed per-array "
        "windows; every engine computes the same maximum-of-sums."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def generate(self, seed: int) -> Program:
        cfg = self.config
        if seed % 4 == 3:
            cfg = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)
        return random_program(seed, cfg)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.window.fast import max_total_window_fast
        from repro.window.simulator import max_total_window_reference
        from repro.window.streaming import max_total_window_streaming
        from repro.window.zhao_malik import max_total_window_zhao_malik

        values = {
            "reference": max_total_window_reference(program),
            "fast": max_total_window_fast(program),
            "streaming": max_total_window_streaming(program),
            "zhao_malik": max_total_window_zhao_malik(program),
        }
        if len(set(values.values())) != 1:
            return self.fail(f"total windows disagree {values}", program)
        return None


@register
class EstimateBracketsExact(Oracle):
    name = "estimate-brackets-exact"
    kind = "cross"
    paper = (
        "Section 3's closed forms are exact for uniformly generated "
        "references (d==n, d==n-1) and upper bounds otherwise; the "
        "enumerated count must sit inside [lower, upper], and a claimed "
        "exact estimate must hit it."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=8, uniform_only=True)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation import (
            estimate_distinct_accesses,
            exact_distinct_accesses,
        )

        for array in program.arrays:
            est = estimate_distinct_accesses(program, array)
            truth = exact_distinct_accesses(program, array)
            if est.lower > est.upper:
                return self.fail(
                    f"array {array}: inverted bounds {est.lower} > {est.upper} "
                    f"({est.method})",
                    program,
                )
            if truth > est.upper:
                return self.fail(
                    f"array {array}: true A_d {truth} above upper bound "
                    f"{est.upper} ({est.method})",
                    program,
                )
            if est.exact and not (est.lower == est.upper == truth):
                return self.fail(
                    f"array {array}: claims exact A_d {est.lower} but "
                    f"enumeration counts {truth} ({est.method})",
                    program,
                )
        return None


@register
class NonUniformUpperBound(Oracle):
    name = "nonuniform-bounds-bracket"
    kind = "cross"
    paper = (
        "Section 3.2's interval bound UB_max - LB_min + 1 dominates the "
        "true union of 1-D non-uniform references (the lower bound is the "
        "paper's heuristic, so only sanity-checked)."
    )
    config = GeneratorConfig(
        depth=2, min_trip=2, max_trip=8, uniform_only=False, array_rank=1
    )

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation import exact_distinct_accesses, nonuniform_bounds

        for array in program.arrays:
            b = nonuniform_bounds(program, array)
            truth = exact_distinct_accesses(program, array)
            if not 0 <= b.lower <= b.upper:
                return self.fail(
                    f"array {array}: malformed bounds [{b.lower}, {b.upper}]",
                    program,
                )
            if truth > b.upper:
                return self.fail(
                    f"array {array}: true count {truth} above upper bound "
                    f"{b.upper}",
                    program,
                )
        return None


@register
class CascadeConformance(Oracle):
    name = "cascade-conformance"
    kind = "cross"
    paper = (
        "Section 4's search only needs the arg-min; the cascade's tier-1 "
        "certificates and tier-2 clipped lower bounds are admissible, so "
        "its first-wins winner must match full simulation."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=8)
    #: Small enough that tier 2 fires on most generated nests.
    clip_budget = 16

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.transform.elementary import signed_permutations
        from repro.transform.search import evaluate_cascade, evaluate_exact

        candidates: list[IntMatrix | None] = [None]
        candidates.extend(signed_permutations(program.nest.depth))
        outcomes = evaluate_cascade(
            program, candidates, clip_budget=self.clip_budget
        )
        truths = evaluate_exact(program, candidates)
        for idx, (outcome, truth) in enumerate(zip(outcomes, truths)):
            if outcome.exact and outcome.value != truth:
                return self.fail(
                    f"candidate {idx}: cascade says exact {outcome.value} "
                    f"({outcome.tier}), simulation says {truth}",
                    program,
                )
            if not outcome.exact and outcome.value > truth:
                return self.fail(
                    f"candidate {idx}: inadmissible {outcome.tier} lower "
                    f"bound {outcome.value} > true MWS {truth}",
                    program,
                )
        best = min(truths)
        winner_full = truths.index(best)
        exact_values = [o.value for o in outcomes if o.exact]
        if not exact_values or min(exact_values) != best:
            return self.fail(
                f"cascade never finalized the optimum {best} exactly "
                f"(exact outcomes: {exact_values})",
                program,
            )
        winner_cascade = next(
            idx for idx, o in enumerate(outcomes) if o.exact and o.value == best
        )
        if winner_cascade != winner_full:
            return self.fail(
                f"first-wins winner differs: cascade candidate "
                f"{winner_cascade}, simulation candidate {winner_full}",
                program,
            )
        return None


@register
class BatchedScoringParity(Oracle):
    name = "batched-scoring-parity"
    kind = "cross"
    paper = (
        "Section 2.3 defines one window per (program, array, order); "
        "scoring K candidate orders as one batch is pure re-association "
        "of the same sweeps, so the batched scorer must equal the "
        "per-candidate engines on every array and on the program total."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def generate(self, seed: int) -> Program:
        cfg = self.config
        if seed % 4 == 3:
            cfg = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)
        return random_program(seed, cfg)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.transform.elementary import signed_permutations
        from repro.window.batched import batched_mws
        from repro.window.fast import (
            max_total_window_fast,
            max_window_size_fast,
        )

        rng = random.Random(seed * 104_729 + program.nest.depth)
        pool = list(signed_permutations(program.nest.depth))
        rng.shuffle(pool)
        candidates: list[IntMatrix | None] = [None, _seed_transformation(program, seed)]
        candidates.extend(pool[:4])
        for array in [None, *program.arrays]:
            batch = batched_mws(program, candidates, array=array)
            if array is None:
                serial = [max_total_window_fast(program, t) for t in candidates]
            else:
                serial = [
                    max_window_size_fast(program, array, t) for t in candidates
                ]
            if batch != serial:
                where = array or "<total>"
                return self.fail(
                    f"array {where}: batched {batch} != per-candidate "
                    f"{serial} over {len(candidates)} candidates",
                    program,
                )
        return None


@register
class LineWindowElementParity(Oracle):
    name = "line-window-element-parity"
    kind = "cross"
    paper = (
        "The line-granular window composes the Section 2.3 sweep with a "
        "layout; at line size 1 the composition must reduce exactly to "
        "the element window."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.layout.line_window import line_window_profile, max_line_window
        from repro.window.fast import max_window_size_fast

        t = _seed_transformation(program, seed)
        for array in program.arrays:
            for transformation in (None, t):
                element = max_window_size_fast(program, array, transformation)
                line = max_line_window(
                    program, array, line_size=1, transformation=transformation
                )
                if line != element:
                    return self.fail(
                        f"array {array}: line window {line} != element "
                        f"window {element} at line size 1",
                        program,
                    )
            profile_peak = line_window_profile(program, array, line_size=1).max_size
            if profile_peak != max_window_size_fast(program, array):
                return self.fail(
                    f"array {array}: line profile peak {profile_peak} != "
                    f"element MWS",
                    program,
                )
        return None


@register
class MwsBoundedByDistinct(Oracle):
    name = "mws-bounded-by-distinct"
    kind = "cross"
    paper = (
        "The window holds only already-touched, to-be-reused elements "
        "(Section 2.3), so |W| can never exceed the array's distinct "
        "count A_d under any execution order."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def generate(self, seed: int) -> Program:
        cfg = self.config
        if seed % 4 == 3:
            cfg = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)
        return random_program(seed, cfg)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.exact import exact_distinct_accesses
        from repro.window.fast import max_window_size_fast

        t = _seed_transformation(program, seed)
        for array in program.arrays:
            distinct = exact_distinct_accesses(program, array)
            for transformation in (None, t):
                mws = max_window_size_fast(program, array, transformation)
                if mws > distinct:
                    return self.fail(
                        f"array {array}: MWS {mws} exceeds distinct count "
                        f"{distinct}",
                        program,
                    )
        return None


# ----------------------------------------------------------------------
# metamorphic oracles
# ----------------------------------------------------------------------

class _RelabelDistinctInvariance(Oracle):
    kind = "metamorphic"
    paper = (
        "A_d is the cardinality of the access image over the iteration "
        "box (Section 3); a signed-permutation relabeling maps the box "
        "bijectively onto itself, so the image — and for uniformly "
        "generated arrays the Section 3 estimate — is invariant."
    )

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation import (
            estimate_distinct_accesses,
            exact_distinct_accesses,
        )

        n = program.nest.depth
        rng = random.Random(seed * 65_537 + n)
        perm = tuple(rng.sample(range(n), n))
        signs = tuple(rng.choice((1, -1)) for _ in range(n))
        relabeled = relabel_signed_permutation(program, perm, signs)
        for array in program.arrays:
            base = exact_distinct_accesses(program, array)
            mapped = exact_distinct_accesses(relabeled, array)
            if base != mapped:
                return self.fail(
                    f"array {array}: A_d {base} -> {mapped} under relabeling "
                    f"perm={perm} signs={signs}",
                    program,
                )
            if program.is_uniformly_generated(array):
                if not relabeled.is_uniformly_generated(array):
                    return self.fail(
                        f"array {array}: uniformly generated before but not "
                        f"after relabeling perm={perm} signs={signs}",
                        program,
                    )
                # When d < n-1 the estimate falls back to heuristic bounds
                # that depend on offsets, so only the *exact* closed forms
                # (d == n, d == n-1; rank is relabeling-invariant) must
                # agree.
                e0 = estimate_distinct_accesses(program, array)
                e1 = estimate_distinct_accesses(relabeled, array)
                if e0.exact and (
                    (e0.lower, e0.upper, e0.exact)
                    != (e1.lower, e1.upper, e1.exact)
                ):
                    return self.fail(
                        f"array {array}: estimate ({e0.lower}, {e0.upper}, "
                        f"{e0.exact}) -> ({e1.lower}, {e1.upper}, {e1.exact}) "
                        f"under relabeling perm={perm} signs={signs}",
                        program,
                    )
        return None


@register
class RelabelDistinctInvariance2D(_RelabelDistinctInvariance):
    name = "relabel-distinct-invariance"
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=8, uniform_only=True)


@register
class RelabelDistinctInvariance3D(_RelabelDistinctInvariance):
    name = "relabel-distinct-invariance-3d"
    config = GeneratorConfig(
        depth=3, min_trip=2, max_trip=4, max_coeff=2, uniform_only=True
    )


@register
class PermutationPreservesSemantics(Oracle):
    name = "permutation-preserves-semantics"
    kind = "metamorphic"
    paper = (
        "Loop-order permutation is legal when every order-constraining "
        "distance stays lex-positive (Section 4, Example 8); a legal "
        "permutation must then produce identical final array contents."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=5, uniform_only=True)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        import itertools

        from repro.ir.interpreter import execute, states_equal
        from repro.transform.legality import is_legal, ordering_distances

        n = program.nest.depth
        distances = ordering_distances(program, reductions_reorderable=False)
        identity = tuple(range(n))
        for perm in itertools.permutations(range(n)):
            if perm == identity:
                continue
            matrix = IntMatrix(
                [[1 if c == p else 0 for c in range(n)] for p in perm]
            )
            if not is_legal(matrix, distances):
                continue
            permuted = relabel_signed_permutation(program, perm, (1,) * n)
            if not states_equal(execute(program), execute(permuted)):
                return self.fail(
                    f"legal permutation {perm} changed execution results "
                    f"(distances {distances})",
                    program,
                )
        return None


@register
class TripExtensionMonotone(Oracle):
    name = "trip-extension-monotone"
    kind = "metamorphic"
    paper = (
        "Extending the outermost trip count appends iterations after the "
        "original prefix; last touches only move later, so every window "
        "grows or stays — MWS and A_d are monotone non-decreasing."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.exact import exact_distinct_accesses
        from repro.window import max_total_window
        from repro.window.fast import max_window_size_fast

        extra = 1 + seed % 3
        extended = extend_outermost(program, extra)
        for array in program.arrays:
            base = max_window_size_fast(program, array)
            grown = max_window_size_fast(extended, array)
            if grown < base:
                return self.fail(
                    f"array {array}: MWS dropped {base} -> {grown} after "
                    f"extending the outermost trip count by {extra}",
                    program,
                )
            d0 = exact_distinct_accesses(program, array)
            d1 = exact_distinct_accesses(extended, array)
            if d1 < d0:
                return self.fail(
                    f"array {array}: A_d dropped {d0} -> {d1} after "
                    f"extending the outermost trip count by {extra}",
                    program,
                )
        total0 = max_total_window(program)
        total1 = max_total_window(extended)
        if total1 < total0:
            return self.fail(
                f"total window dropped {total0} -> {total1} after extending "
                f"the outermost trip count by {extra}",
                program,
            )
        return None


@register
class OffsetTranslationInvariance(Oracle):
    name = "offset-translation-invariance"
    kind = "metamorphic"
    paper = (
        "Translating all references of an array by one constant slides "
        "the touched set without changing any offset difference, so "
        "dependence distances, windows and distinct counts are invariant "
        "(Section 2's reuse vectors depend only on differences)."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation import (
            estimate_distinct_accesses,
            exact_distinct_accesses,
        )
        from repro.window.fast import max_window_size_fast

        shifts = {}
        for array in program.arrays:
            rank = program.refs_to(array)[0].rank
            rng = random.Random((seed, array).__repr__())
            shifts[array] = tuple(rng.randint(-5, 7) for _ in range(rank))
        shifted = translate_offsets(program, shifts)
        for array in program.arrays:
            m0 = max_window_size_fast(program, array)
            m1 = max_window_size_fast(shifted, array)
            if m0 != m1:
                return self.fail(
                    f"array {array}: MWS {m0} -> {m1} under offset "
                    f"translation {shifts[array]}",
                    program,
                )
            d0 = exact_distinct_accesses(program, array)
            d1 = exact_distinct_accesses(shifted, array)
            if d0 != d1:
                return self.fail(
                    f"array {array}: A_d {d0} -> {d1} under offset "
                    f"translation {shifts[array]}",
                    program,
                )
            e0 = estimate_distinct_accesses(program, array)
            e1 = estimate_distinct_accesses(shifted, array)
            if (e0.lower, e0.upper, e0.exact) != (e1.lower, e1.upper, e1.exact):
                return self.fail(
                    f"array {array}: estimate ({e0.lower}, {e0.upper}, "
                    f"{e0.exact}) -> ({e1.lower}, {e1.upper}, {e1.exact}) "
                    f"under offset translation {shifts[array]}",
                    program,
                )
        return None


# ----------------------------------------------------------------------
# parametric conformance oracles
# ----------------------------------------------------------------------

def _parametric_sample(
    domain: tuple[int, ...], seed: int, count: int = 6, spread: int = 6
) -> list[tuple[int, ...]]:
    """At least ``count`` in-domain bound vectors, corners first.

    The high corner plus per-axis low corners (one trip count at its
    domain minimum while the rest sit high) are the vectors most likely
    to expose a regime the derivation's own verification missed; the
    rest is random fill, deterministic in ``(seed, domain)``.
    """
    rng = random.Random(f"param-oracle:{seed}:{domain}")
    points = {tuple(d + spread for d in domain)}
    for j in range(len(domain)):
        corner = [d + spread for d in domain]
        corner[j] = domain[j]
        points.add(tuple(corner))
    while len(points) < count:
        points.add(tuple(d + rng.randint(0, spread) for d in domain))
    return sorted(points)


@register
class ParametricMwsConformance(Oracle):
    name = "parametric-mws-conformance"
    kind = "cross"
    paper = (
        "The paper states MWS as a function of the loop limits; a "
        "derived closed form must therefore reproduce the exact engines "
        "at every bound vector in its domain — native and under a "
        "candidate execution order.  Derivation declining (returning "
        "None) is the designed fallback, not a violation."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6, max_coeff=2)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.parametric import (
            parametric_signature,
            with_trip_counts,
        )
        from repro.window.symbolic import derive_parametric_mws

        t = _seed_transformation(program, seed)
        psig = parametric_signature(program)
        for array in program.arrays:
            for transformation in (None, t):
                pe = derive_parametric_mws(
                    program, array, transformation, seed=seed
                )
                if pe is None:
                    continue  # fallback contract: simulation answers instead
                where = (
                    "native" if transformation is None
                    else f"T={transformation.rows}"
                )
                for trips in _parametric_sample(pe.domain, seed):
                    value = pe.substitute(trips)
                    if value is None:
                        return self.fail(
                            f"array {array} ({where}): in-domain vector "
                            f"{trips} refused by a verified expression "
                            f"{pe.expr} (domain {pe.domain})",
                            program,
                        )
                    resized = with_trip_counts(program, trips)
                    if parametric_signature(resized) != psig:
                        return self.fail(
                            f"parametric signature not bound-invariant at "
                            f"{trips}",
                            program,
                        )
                    engines = _mws_all_engines(resized, array, transformation)
                    wrong = {k: v for k, v in engines.items() if v != value}
                    if wrong:
                        return self.fail(
                            f"array {array} ({where}) at N={trips}: "
                            f"substituted {pe.expr} = {value} but engines "
                            f"say {wrong}",
                            program,
                        )
        return None


@register
class ParametricDistinctConformance(Oracle):
    name = "parametric-distinct-conformance"
    kind = "cross"
    paper = (
        "Section 3 derives A_d as an expression in the loop limits; the "
        "derived parametric count (paper closed form or interpolated) "
        "must equal the enumeration oracle at every sampled bound "
        "vector in its domain."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=8)

    def generate(self, seed: int) -> Program:
        cfg = self.config
        if seed % 4 == 3:
            cfg = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)
        return random_program(seed, cfg)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.exact import exact_distinct_accesses
        from repro.estimation.parametric import with_trip_counts
        from repro.estimation.symbolic import derive_parametric_distinct

        for array in program.arrays:
            pe = derive_parametric_distinct(program, array, seed=seed)
            if pe is None:
                continue  # fallback contract: enumeration answers instead
            for trips in _parametric_sample(pe.domain, seed):
                value = pe.substitute(trips)
                if value is None:
                    return self.fail(
                        f"array {array}: in-domain vector {trips} refused "
                        f"by a verified expression {pe.expr} "
                        f"(domain {pe.domain})",
                        program,
                    )
                truth = exact_distinct_accesses(
                    with_trip_counts(program, trips), array
                )
                if truth != value:
                    return self.fail(
                        f"array {array} at N={trips}: substituted "
                        f"{pe.expr} = {value} ({pe.method}) but "
                        f"enumeration counts {truth}",
                        program,
                    )
        return None


@register
class TimeReversalInvariance(Oracle):
    name = "time-reversal-mws-invariance"
    kind = "metamorphic"
    paper = (
        "Reversing every loop runs the identical access sequence "
        "backwards; lifetimes [first, last] map to [T-1-last, T-1-first], "
        "so the peak live count — the MWS — is unchanged (Section 2.3's "
        "window is symmetric in time)."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.exact import exact_distinct_accesses
        from repro.window import max_total_window
        from repro.window.fast import max_window_size_fast

        n = program.nest.depth
        reversed_program = relabel_signed_permutation(
            program, tuple(range(n)), (-1,) * n
        )
        for array in program.arrays:
            m0 = max_window_size_fast(program, array)
            m1 = max_window_size_fast(reversed_program, array)
            if m0 != m1:
                return self.fail(
                    f"array {array}: MWS {m0} -> {m1} under time reversal",
                    program,
                )
            d0 = exact_distinct_accesses(program, array)
            d1 = exact_distinct_accesses(reversed_program, array)
            if d0 != d1:
                return self.fail(
                    f"array {array}: A_d {d0} -> {d1} under time reversal",
                    program,
                )
        t0 = max_total_window(program)
        t1 = max_total_window(reversed_program)
        if t0 != t1:
            return self.fail(
                f"total window {t0} -> {t1} under time reversal", program
            )
        return None


# ----------------------------------------------------------------------
# memory-hierarchy oracles (conformance tier for the multi-level model)
# ----------------------------------------------------------------------

def _seed_hierarchy(seed: int):
    """A deterministic pseudo-random tier stack for ``seed``.

    1-3 tiers with small capacities (generated programs are small), and
    per-access costs drawn then *sorted* so the constructor's
    non-decreasing-with-depth requirement holds by construction.
    """
    from repro.memory.hierarchy import MemoryHierarchy, MemoryTier

    rng = random.Random(seed * 9973 + 11)
    depth = rng.randint(1, 3)
    energies = sorted(round(rng.uniform(1.0, 40.0), 1) for _ in range(depth))
    latencies = sorted(round(rng.uniform(0.5, 20.0), 1) for _ in range(depth))
    tiers = tuple(
        MemoryTier(f"t{k + 1}", rng.randint(1, 48), latencies[k], energies[k])
        for k in range(depth)
    )
    return MemoryHierarchy(name=f"fuzz{seed}", tiers=tiers)


@register
class HierarchyDegenerateFlat(Oracle):
    name = "hierarchy-degenerate-flat"
    kind = "cross"
    paper = (
        "The stacked simulation defines tier k by the flat Belady run at "
        "the cumulative capacity c_1+...+c_k, so a one-tier hierarchy is "
        "*definitionally* the paper's flat scratchpad: its only level "
        "must reproduce simulate_scratchpad field for field, and its "
        "energy must be hits at the tier cost plus transfers at the "
        "backing cost."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.memory.hierarchy import (
            MemoryHierarchy,
            MemoryTier,
            simulate_hierarchy,
        )
        from repro.memory.scratchpad import simulate_scratchpad

        t = _seed_transformation(program, seed)
        rng = random.Random(seed * 104729 + 7)
        for transformation in (None, t):
            for policy in ("belady", "lru"):
                capacity = rng.randint(1, 64)
                hier = MemoryHierarchy(
                    "one", (MemoryTier("only", capacity, 2.0, 5.0),)
                )
                stacked = simulate_hierarchy(
                    program, hier,
                    transformation=transformation, policy=policy,
                )
                flat = simulate_scratchpad(
                    program, capacity,
                    transformation=transformation, policy=policy,
                )
                where = (
                    f"capacity {capacity}, policy {policy}, "
                    + ("native" if transformation is None
                       else f"T={transformation.rows}")
                )
                if stacked.levels[0] != flat:
                    return self.fail(
                        f"{where}: one-tier level differs from flat "
                        f"scratchpad: {stacked.levels[0]} != {flat}",
                        program,
                    )
                tier = stacked.tiers[0]
                if (
                    tier.hits != flat.hits
                    or tier.lookups != flat.accesses
                    or tier.fetches_below != flat.misses
                    or tier.writebacks_below != flat.writebacks
                    or stacked.offchip_transfers != flat.offchip_transfers
                ):
                    return self.fail(
                        f"{where}: tier accounting differs from flat "
                        f"stats: {tier} vs {flat}",
                        program,
                    )
                energy = (
                    flat.hits * hier.tiers[0].energy_pj
                    + flat.offchip_transfers * hier.offchip_energy_pj
                )
                if abs(stacked.energy_pj - energy) > 1e-6:
                    return self.fail(
                        f"{where}: one-tier energy {stacked.energy_pj} != "
                        f"hits*E + transfers*E_back = {energy}",
                        program,
                    )
        return None


@register
class HierarchyCapacityMonotone(Oracle):
    name = "hierarchy-capacity-monotone"
    kind = "metamorphic"
    paper = (
        "Belady is a stack algorithm: misses and dirty evictions are "
        "non-increasing in capacity, every boundary simulates at a "
        "cumulative capacity, and the constructor requires per-access "
        "costs non-decreasing with depth — so growing any tier (costs "
        "fixed) can only shift hits toward cheaper tiers: no boundary's "
        "transfers, nor the total energy/latency, may increase."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.memory.hierarchy import simulate_hierarchy

        hier = _seed_hierarchy(seed)
        rng = random.Random(seed * 15485863 + 3)
        index = rng.randrange(hier.depth)
        delta = rng.randint(1, 32)
        grown = hier.resized(
            index, hier.tiers[index].capacity_words + delta
        )
        base = simulate_hierarchy(program, hier)
        more = simulate_hierarchy(program, grown)
        where = f"tier {index} of {hier.spec()['tiers']} grown by {delta}"
        for level, (before, after) in enumerate(zip(base.levels, more.levels)):
            if after.offchip_transfers > before.offchip_transfers:
                return self.fail(
                    f"{where}: boundary {level} transfers grew "
                    f"{before.offchip_transfers} -> "
                    f"{after.offchip_transfers}",
                    program,
                )
        if more.offchip_transfers > base.offchip_transfers:
            return self.fail(
                f"{where}: off-chip transfers grew "
                f"{base.offchip_transfers} -> {more.offchip_transfers}",
                program,
            )
        if more.energy_pj > base.energy_pj + 1e-6:
            return self.fail(
                f"{where}: energy grew {base.energy_pj} -> "
                f"{more.energy_pj}",
                program,
            )
        if more.latency_ns > base.latency_ns + 1e-6:
            return self.fail(
                f"{where}: latency grew {base.latency_ns} -> "
                f"{more.latency_ns}",
                program,
            )
        return None


@register
class HierarchyBoundAdmissible(Oracle):
    name = "hierarchy-bound-admissible"
    kind = "cross"
    paper = (
        "Hong & Kung's phase argument and the cold-traffic floor hold "
        "for any replacement policy, so transfer_lower_bound must never "
        "exceed the transfers any simulation reports — Belady or LRU, "
        "native or transformed order, whole program or one array, flat "
        "buffer or tier stack at its total capacity."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.bounds import transfer_lower_bound
        from repro.memory.hierarchy import simulate_hierarchy
        from repro.memory.scratchpad import simulate_scratchpad

        t = _seed_transformation(program, seed)
        rng = random.Random(seed * 32452843 + 17)
        capacities = [rng.randint(1, 8), rng.randint(9, 64)]
        for transformation in (None, t):
            for policy in ("belady", "lru"):
                for capacity in capacities:
                    lb = transfer_lower_bound(
                        program, capacity, None, transformation
                    )
                    sim = simulate_scratchpad(
                        program, capacity,
                        transformation=transformation, policy=policy,
                    )
                    if lb > sim.offchip_transfers:
                        return self.fail(
                            f"capacity {capacity} ({policy}): bound {lb} "
                            f"> simulated transfers "
                            f"{sim.offchip_transfers}",
                            program,
                        )
            for array in program.arrays:
                capacity = capacities[0]
                lb = transfer_lower_bound(
                    program, capacity, array, transformation
                )
                sim = simulate_scratchpad(
                    program, capacity, array=array,
                    transformation=transformation,
                )
                if lb > sim.offchip_transfers:
                    return self.fail(
                        f"array {array} at capacity {capacity}: bound "
                        f"{lb} > simulated transfers "
                        f"{sim.offchip_transfers}",
                        program,
                    )
        hier = _seed_hierarchy(seed)
        stacked = simulate_hierarchy(program, hier)
        lb = transfer_lower_bound(program, hier.total_capacity)
        if lb > stacked.offchip_transfers:
            return self.fail(
                f"stack {hier.spec()['tiers']}: bound {lb} at total "
                f"capacity {hier.total_capacity} > simulated off-chip "
                f"transfers {stacked.offchip_transfers}",
                program,
            )
        return None

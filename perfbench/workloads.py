"""Inputs and answer checks for the three benchmark workloads.

Every op of a compute workload analyses a program that no earlier op of
the run has seen, so no op is served by a cache an earlier op filled.
The trick is translation: the loop bounds move by a per-op offset ``d``
and every subscript offset ``b`` becomes ``b - A d``, so the op touches
exactly the same elements in the same order (the analysis work and the
answers are unchanged) while the program signature differs.

The expected answers come from ``tests/fixtures/figure2_golden.json``
(read at run time) and, for hierarchy plans, from
``perfbench/expected_hierarchy.json`` (recorded by
``perfbench/record_expected.py`` and cross-checked there against the
unpruned search).
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from repro.ir import ArrayRef, Program, parse_program
from repro.kernels import KERNELS, kernel_by_name
from repro.memory.hierarchy import MemoryHierarchy, preset

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN_PATH = ROOT / "tests" / "fixtures" / "figure2_golden.json"
EXPECTED_HIERARCHY_PATH = HERE / "expected_hierarchy.json"

FIGURE2_KERNELS = tuple(spec.name for spec in KERNELS)

#: Hierarchy inputs: the checked-in 48^3 examples rewritten to n = 8.
HIERARCHY_KERNELS = ("gemm", "correlation", "attention")
HIERARCHY_N = 8
EXAMPLE_N = 48

#: service-mixed repeat keys: every kind on four small kernels, minus
#: ``param`` on 3step_log (5.8 s cold, which would dominate the fill).
SERVICE_KINDS = ("optimize", "search", "mws", "analyze", "hierarchy", "param")
SERVICE_WARM_KERNELS = ("2point", "3point", "sor", "3step_log")
WARM_KEYS = tuple(
    (kind, kernel)
    for kernel in SERVICE_WARM_KERNELS
    for kind in SERVICE_KINDS
    if not (kind == "param" and kernel == "3step_log")
)
#: First-time requests: one of these kinds on a translated Figure-2 kernel.
COLD_KINDS = ("mws", "analyze")
#: One request in ``STREAM_BLOCK`` is first-time; the rest repeat a key.
STREAM_BLOCK = 8


# ----------------------------------------------------------------------
# translation
# ----------------------------------------------------------------------

def render(program: Program, shift: tuple[int, ...] | None = None) -> str:
    """``program`` as parser input, its loops translated by ``shift``.

    Subscript offsets are rebased by ``-A shift`` so every iteration
    touches the element it touched before.  Only declarations that
    differ from what the nest alone infers are written, so the
    untranslated printout reparses to the original signature.
    """
    nest = program.nest
    shift = shift or (0,) * nest.depth
    names = nest.index_names
    inferred = Program(nest, program.statements)
    lines = [
        f"array {program.decl(a)}"
        for a in program.arrays
        if program.decl(a) != inferred.decl(a)
    ]
    for depth, (loop, d) in enumerate(zip(nest.loops, shift)):
        lines.append(
            "  " * depth
            + f"for {loop.index} = {loop.lower + d} to {loop.upper + d} {{"
        )

    def ref_text(ref: ArrayRef) -> str:
        moved = ref.access.apply(shift)
        rebased = ArrayRef(
            ref.array, ref.access,
            tuple(b - m for b, m in zip(ref.offset, moved)), ref.kind,
        )
        return ref.array + "".join(
            f"[{s}]" for s in rebased.subscript_strings(names)
        )

    pad = "  " * nest.depth
    for stmt in program.statements:
        rhs = " + ".join(ref_text(r) for r in stmt.reads) or "0"
        if stmt.writes:
            lines.append(pad + f"{stmt.label}: {ref_text(stmt.writes[0])} = {rhs}")
        else:
            lines.append(pad + f"{stmt.label}: {rhs}")
    for depth in range(nest.depth - 1, -1, -1):
        lines.append("  " * depth + "}")
    return "\n".join(lines) + "\n"


class Offsets:
    """Per-op translation offsets, distinct within a run, from the seed.

    Offsets stay small so that no value-range screen in the engines
    (int32 key downshifts, overflow guards) changes path between ops.
    """

    def __init__(self, seed: int) -> None:
        self.base = random.Random(seed).randrange(1, 64)

    def __call__(self, index: int, depth: int) -> tuple[int, ...]:
        return tuple(self.base + index + 3 * axis for axis in range(depth))


def self_check() -> None:
    """Raise if the translation does not keep programs' meaning."""
    for spec in KERNELS:
        program = spec.build()
        again = parse_program(render(program), name=spec.name)
        if again.signature() != program.signature():
            raise AssertionError(f"{spec.name}: printout changes the signature")
        moved = parse_program(
            render(program, (5,) * program.nest.depth), name=spec.name
        )
        if moved.signature() == program.signature():
            raise AssertionError(f"{spec.name}: translation kept the signature")
        if moved.default_memory != program.default_memory:
            raise AssertionError(f"{spec.name}: translation moved the arrays")


# ----------------------------------------------------------------------
# expected answers
# ----------------------------------------------------------------------

def load_golden() -> dict[str, dict[str, int]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def check_figure2(kind: str, kernel: str, result: dict, golden) -> list[str]:
    """Problems with one mws/analyze/optimize answer (empty when right)."""
    row = golden[kernel]
    if kind == "mws":
        got = {"mws": result.get("mws")}
        want = {"mws": row["mws_unopt"]}
    elif kind == "analyze":
        got = {"mws_total": result.get("mws_total"),
               "default_memory": result.get("default_memory")}
        want = {"mws_total": row["mws_unopt"], "default_memory": row["default"]}
    elif kind == "optimize":
        got = {"mws_before": result.get("mws_before"),
               "mws_after": result.get("mws_after")}
        want = {"mws_before": row["mws_unopt"], "mws_after": row["mws_opt"]}
    else:
        return []
    if got != want:
        return [f"{kind} {kernel}: got {got}, expected {want}"]
    return []


def hierarchy_program(name: str) -> Program:
    """``examples/hierarchy/<name>48.loop`` with every loop at n = 8."""
    path = ROOT / "examples" / "hierarchy" / f"{name}{EXAMPLE_N}.loop"
    text, count = re.subn(
        rf"\bto\s+{EXAMPLE_N}\b", f"to {HIERARCHY_N}",
        path.read_text(encoding="utf-8"),
    )
    if count != 3:
        raise ValueError(f"{path}: expected three loops to rewrite, got {count}")
    return parse_program(text, name=name)


def scaled_hierarchy() -> MemoryHierarchy:
    """The ``tcm`` preset scaled by (8/48)^2, keeping the 48^3 regime:
    the three operands overflow L1 together and fit the TCM."""
    stack = preset("tcm")
    for index, tier in enumerate(stack.tiers):
        stack = stack.resized(
            index,
            tier.capacity_words * HIERARCHY_N ** 2 // EXAMPLE_N ** 2,
        )
    return stack


def plan_summary(plan) -> dict:
    return {
        "t": None if plan.transformation is None else [
            list(row) for row in plan.transformation.rows
        ],
        "tile": list(plan.tile),
        "placement": [[a, k] for a, k in plan.placement],
        "energy_pj": plan.energy_pj,
    }


def hierarchy_summary(report, search) -> dict:
    """The answer of one hierarchy op, as compared with the record."""
    return {
        "mws_words": report.mws_words,
        "tiers_needed": report.tiers_needed,
        "offchip_transfers": report.offchip_transfers,
        "sizing_energy_pj": report.energy_pj,
        "best": plan_summary(search.best),
        "flat": plan_summary(search.flat),
        "floor_energy_pj": search.floor_energy_pj,
    }


def check_hierarchy(name: str, summary: dict, expected) -> list[str]:
    problems = []
    if summary != expected[name]:
        problems.append(f"hierarchy {name}: got {summary}, expected {expected[name]}")
    if summary["floor_energy_pj"] > summary["best"]["energy_pj"]:
        problems.append(f"hierarchy {name}: floor above the winning plan")
    return problems


def load_expected_hierarchy() -> dict:
    return json.loads(EXPECTED_HIERARCHY_PATH.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# the service-mixed request stream
# ----------------------------------------------------------------------

class RequestStream:
    """A fixed seeded sequence of service requests.

    In every block of ``STREAM_BLOCK`` requests one, at a seeded
    position, is first-time (a cold kind on a freshly translated
    Figure-2 kernel); the others repeat warm keys.  Warm keys and cold
    (kind, kernel) types are each dealt from a reshuffled deck, so a
    run's mix is balanced however many requests it completes.  Not
    thread-safe: the caller serializes ``next``.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.offsets = Offsets(seed)
        self.programs = {name: kernel_by_name(name).build()
                         for name in FIGURE2_KERNELS}
        self.cold_types = [(kind, name) for name in FIGURE2_KERNELS
                           for kind in COLD_KINDS]
        self._warm_deck: list = []
        self._cold_deck: list = []
        self._block_cold = 0
        self.index = 0
        self.cold_index = 0

    def _deal(self, deck: list, source) -> tuple:
        if not deck:
            deck.extend(source)
            self.rng.shuffle(deck)
        return deck.pop()

    def cold(self) -> dict:
        """One first-time request (also used as the warm-up op)."""
        kind, name = self._deal(self._cold_deck, self.cold_types)
        program = self.programs[name]
        self.cold_index += 1
        shift = self.offsets(self.cold_index, program.nest.depth)
        return {"kind": kind, "source": render(program, shift), "name": name}

    def next(self) -> tuple[str, dict]:
        """``(request class, payload)``; class is ``"repeat"`` or ``"first"``."""
        slot = self.index % STREAM_BLOCK
        if slot == 0:
            self._block_cold = self.rng.randrange(STREAM_BLOCK)
        self.index += 1
        if slot == self._block_cold:
            return "first", self.cold()
        kind, kernel = self._deal(self._warm_deck, WARM_KEYS)
        return "repeat", {"kind": kind, "kernel": kernel}

"""Record the expected answers of the hierarchy-tiling workload.

Usage (from the repository root)::

    python3 perfbench/record_expected.py

For each n = 8 hierarchy kernel it runs the op the benchmark times
(``size_memory_for_hierarchy`` plus the pruned ``search_hierarchy``),
cross-checks the plan against the exhaustive ``prune=False`` search and
against a translated copy of the program, and writes the answers to
``perfbench/expected_hierarchy.json``.  Run it again only when a change
is meant to alter the plans.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from repro.ir import parse_program  # noqa: E402
from repro.memory.sizing import size_memory_for_hierarchy  # noqa: E402
from repro.transform.hierarchy_search import search_hierarchy  # noqa: E402


def answer(program, stack, prune: bool) -> dict:
    report = size_memory_for_hierarchy(program, stack)
    search = search_hierarchy(program, stack, prune=prune)
    return wl.hierarchy_summary(report, search)


def main() -> int:
    stack = wl.scaled_hierarchy()
    expected = {}
    for name in wl.HIERARCHY_KERNELS:
        program = wl.hierarchy_program(name)
        pruned = answer(program, stack, prune=True)
        exhaustive = answer(program, stack, prune=False)
        moved = answer(parse_program(wl.render(program, (11, 12, 13)), name=name),
                       stack, prune=True)
        if pruned != exhaustive or pruned != moved:
            print(f"{name}: pruned {pruned}\nexhaustive {exhaustive}\n"
                  f"translated {moved}", file=sys.stderr)
            return 1
        if pruned["floor_energy_pj"] > pruned["best"]["energy_pj"]:
            print(f"{name}: floor above the winning plan", file=sys.stderr)
            return 1
        expected[name] = pruned
        print(f"{name}: best {pruned['best']} flat {pruned['flat']['energy_pj']}")
    wl.EXPECTED_HIERARCHY_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

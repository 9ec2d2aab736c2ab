"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload figure2-cold --runs 10 [--first-seed 1]

Runs ``run.py`` once per seed, one after another, and prints for every
end-to-end metric the median of the runs and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median, next to a third of the metric's bound from
``BENCHMARK.json`` -- the level below which a metric counts as steady.
Each run's metadata stays under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def report(workload: str, runs: list[dict], spec: dict) -> bool:
    """Print the table; ``True`` when every metric but ``setup_s`` is
    within a third of its bound."""
    steady = True
    print(f"{workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}")
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        s = spread(values) if len(values) >= 2 else 0.0
        target = metric["bound"] / 3
        flag = "ok" if s <= target or metric["name"] == "setup_s" else "WIDE"
        steady &= flag == "ok"
        print(f"  {metric['name']:16s} median {statistics.median(values):12.4f} "
              f"{metric['unit']:8s} spread {s:7.2%}  (bound/3 {target:.2%}) {flag}")
    loads = [r["loadavg_start"][0] for r in runs]
    print(f"  loadavg(1m) at start: min {min(loads):.2f} max {max(loads):.2f}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 2
        meta = json.loads(lines[-2])["meta"]
        runs.append(meta)
        values = {k: round(v["value"], 4) for k, v in meta["result"]["metrics"].items()}
        print(f"seed {seed}: correct={meta['result']['correct']} {values}", flush=True)
    return 0 if report(args.workload, runs, spec) else 1


if __name__ == "__main__":
    raise SystemExit(main())

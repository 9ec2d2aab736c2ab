"""Benchmark entry point: one run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure2-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``figure2-cold``     -- the paper's Figure-2 table, every op on unseen programs;
* ``hierarchy-tiling`` -- ``repro hierarchy`` on n = 8 GEMM-family kernels;
* ``service-mixed``    -- ``repro serve`` under a closed loop of repeat and
  first-time requests.

With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``: it sets the workload up ``SETUP_REPEATS`` times, each
in a fresh process (``setup_s`` is their median), and the last of those
processes measures ops for ``--seconds``.  With ``--trace 1`` one traced
process reports the per-layer metrics, plus a ``python -X importtime``
pass that splits import time between sympy, numpy and ``repro``.

The last stdout line is the JSON result; the line before it and a file
under ``.perfbench/results/`` hold the run's metadata (host, versions,
load, sample counts).  Exit status 2 means the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import host_tick, scale  # noqa: E402  (sibling module)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figure2-cold", "hierarchy-tiling", "service-mixed")
SETUP_REPEATS = 3
#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0

#: What the import-time pass imports, per workload: the modules its
#: analysing process loads before the first op.
IMPORTS = {
    "figure2-cold": ("repro.api", "repro.kernels", "repro.core.optimizer",
                     "repro.transform.search"),
    "hierarchy-tiling": ("repro.ir", "repro.memory.sizing",
                         "repro.transform.hierarchy_search"),
    "service-mixed": ("repro.cli", "repro.api", "repro.server"),
}


class BenchError(RuntimeError):
    """The run could not be made (not a wrong answer: that is reported)."""


def child_env() -> tuple[dict, list[str]]:
    """The environment for every process: ``REPRO_*`` knobs removed, so
    the program runs with its defaults whatever the caller exported."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    return env, dropped


def run_child(args, mode: str, env: dict, deadline: float) -> dict:
    """Start ``child.py`` in ``mode``; its result event plus ``setup_s``
    (process start until its ``ready`` event, measured here and scaled
    to the reference host speed by a tick taken here before the start
    and one the child takes just before ``ready``)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    tick_before = host_tick()
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            _kill_group, (proc.pid,))
    timer.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith("PERFBENCH "):
                continue
            event = json.loads(line[len("PERFBENCH "):])
            if event["event"] == "ready":
                setup_s = time.perf_counter() - started
                setup_s *= scale(tick_before, event["tick"])
            elif event["event"] == "result":
                result = event
        proc.wait()
    finally:
        timer.cancel()
        _kill_group(proc.pid)
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or result is None or setup_s is None:
        raise BenchError(f"{mode} process failed (exit {proc.returncode})")
    result["setup_s"] = setup_s
    return result


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def import_times(workload: str, env: dict) -> tuple[dict, dict]:
    """``-X importtime`` split of the workload's imports."""
    cmd = [sys.executable, "-X", "importtime", "-c",
           "import " + ", ".join(IMPORTS[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(env, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import pass failed: {proc.stderr[-500:]}")
    cumulative: dict[str, float] = {}
    repro_self: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, self_us, cumulative_us, name = (
            part.strip() for part in line.replace("import time:", "|").split("|"))
        cumulative.setdefault(name, int(cumulative_us) / 1e6)
        if name == "repro" or name.startswith("repro."):
            group = ".".join(name.split(".")[:2])
            repro_self[group] = repro_self.get(group, 0.0) + int(self_us) / 1e6
    metrics = {
        "import.sympy_s": cumulative.get("sympy", 0.0),
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.repro_s": sum(repro_self.values()),
    }
    return metrics, dict(sorted(repro_self.items(), key=lambda kv: -kv[1]))


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(args, spec: dict, env: dict, deadline: float) -> tuple[dict, dict]:
    """One run: ``(result line, metadata)``."""
    meta: dict = {}
    problems: list[str] = []
    if args.trace:
        child = run_child(args, "traced", env, deadline)
        metrics = dict(child["metrics"])
        imports, by_package = import_times(args.workload, env)
        metrics.update(imports)
        meta["import_by_repro_package_s"] = by_package
        meta["ratio_bases"] = child["ratio_bases"]
        meta["program_counters"] = child["program_counters"]
        problems += child["invariant_problems"]
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            setup = run_child(args, "setup", env, deadline)
            setups.append(setup["setup_s"])
            problems += setup["problems"]
        child = run_child(args, "timed", env, deadline)
        setups.append(child["setup_s"])
        metrics = dict(child["metrics"], setup_s=statistics.median(setups))
        meta["setup_s_samples"] = setups
        meta["samples"] = child["samples"]
        if "walls_ms" in child:
            meta["op_walls_ms"] = child["walls_ms"]
            meta["host_ticks_ms"] = child["ticks_ms"]
        if "mix" in child:
            meta["request_mix"] = child["mix"]
        wanted = [m["name"] for m in spec["end_to_end"]]
    problems += child["problems"]
    meta["host"] = child["host"]
    if sorted(metrics) != sorted(wanted):
        raise BenchError(
            f"metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": child["failed"] == 0 and not problems,
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted},
    }
    meta["problems"] = problems[:20]
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (spec_path, ROOT / "src" / "repro",
                   ROOT / "tests" / "fixtures" / "figure2_golden.json",
                   ROOT / "examples" / "hierarchy"):
        if not needed.exists():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; "
                  "run from the root of a repository checkout", file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    env, dropped = child_env()
    started_unix = time.time()
    load_start = os.getloadavg()
    try:
        result, meta = measure(args, spec, env, deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started_unix,
        "wall_s": time.time() - started_unix,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "dropped_env": dropped,
        "result": result,
    })
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}-{int(started_unix * 1000)}.json"
    (out_dir / name).write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

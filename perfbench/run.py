"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tracker-crawl --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs each cell untraced and traced, checks that both give the
same output digest, and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` (cells),
``failed`` (cells that raised or failed a check) and ``metrics``.  A run
manifest and the per-cell records go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def metric_units(trace: int) -> Dict[str, str]:
    """Name -> unit of every metric ``BENCHMARK.json`` lists for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def manifest(workload: str, seed: int, seconds: float, trace: int,
             load_start: List[float], outcome: Any) -> Dict[str, Any]:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cell_seeds": [r.seed for r in outcome.records],
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        **outcome.extra,
    }


def layer_table(metrics: Dict[str, float]) -> List[str]:
    """Per-layer self time per traced cell, largest first."""
    from perfbench.tracing import PROBES

    cell_total = sum(metrics[f"{p.name}.self_s"] for p in PROBES)
    rows = sorted(PROBES, key=lambda p: -metrics[f"{p.name}.self_s"])
    lines = [f"  {'layer.call':<44} {'calls/cell':>11} {'self_s/cell':>11} "
             f"{'share':>6} {'p50_us':>9} {'p99_us':>9}"]
    for p in rows:
        self_s = metrics[f"{p.name}.self_s"]
        share = self_s / cell_total if cell_total else 0.0
        lines.append(
            f"  {p.name:<44} {metrics[p.name + '.calls']:>11.1f} {self_s:>11.4f} "
            f"{share:>6.1%} {metrics[p.name + '.p50_us']:>9.1f} "
            f"{metrics[p.name + '.p99_us']:>9.1f}"
        )
    return lines


def run_one(workload_name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    from perfbench import checks, workloads

    workload = workloads.WORKLOADS[workload_name]
    pins = checks.Pins()
    load_start = list(os.getloadavg())
    if trace:
        outcome = workloads.trace(workload, seed, seconds, pins)
    else:
        outcome = workloads.measure(workload, seed, seconds, pins)
    run_manifest = manifest(workload_name, seed, seconds, trace, load_start, outcome)

    print(f"manifest {json.dumps(run_manifest, sort_keys=True)}")
    print(f"workload {workload_name} seed {seed}: {len(outcome.records)} cells, "
          f"{outcome.failed} failed")
    for record in outcome.records:
        for problem in record.problems:
            print(f"  FAILED {record.cell_id}: {problem.strip()}")
    units = metric_units(trace)
    if set(units) != set(outcome.metrics):
        raise RuntimeError(
            f"reported metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(outcome.metrics))}"
        )
    if trace:
        print(f"per-layer self time, {workload_name}, "
              f"{outcome.extra['traced_cells']} traced cells:")
        for line in layer_table(outcome.metrics):
            print(line)
    for name, value in outcome.metrics.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")

    OUT_DIR.mkdir(exist_ok=True)
    report = {
        "manifest": run_manifest,
        "metrics": outcome.metrics,
        "cells": [vars(r) for r in outcome.records],
    }
    if outcome.tracer is not None:
        report["spans"] = outcome.tracer.span_records()
    out_path = OUT_DIR / f"{workload_name}-seed{seed}-trace{trace}.json"
    out_path.write_text(json.dumps(report, sort_keys=True, default=str))
    print(f"wrote {out_path.relative_to(ROOT)}")
    return {
        "correct": outcome.failed == 0,
        "attempted": len(outcome.records),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="tracker-crawl, dht-crawl, sweep or all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    results = []
    for name in names:
        started = time.perf_counter()
        results.append(run_one(name, args.seed, args.seconds, args.trace))
        print(f"{name}: {time.perf_counter() - started:.1f}s wall", flush=True)
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{m}": v for n, r in zip(names, results)
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

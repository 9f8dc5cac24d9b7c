#!/usr/bin/env python3
"""Compare two BENCH files: end-to-end medians against their bounds.

    python3 examples/compare_bench.py BENCH_4.json BENCH_5.json

For every workload both files measured, each end-to-end metric of
``BENCHMARK.json`` is printed as the median in A, the median in B and the
relative move, judged against that metric's bound: ``worse`` when B is
worse than A by more than the bound, ``better`` when B is better by more
than it, ``within`` otherwise.  Per-layer traced self time per cell
follows (perfbench reports it per cell; the median over traced runs),
largest move first, and the tier-1 wall time when both files carry one.
The exit status is 1 when any metric is ``worse``.

Two report-only notes say when the medians are not like for like.  Each
workload's median ``cells`` per untraced run is printed for both files,
marked ``differs`` when they differ: a run lasts a fixed time, so a faster
commit runs more cells, over more seeds.  And one warning line is printed
when the two files' ``host`` blocks differ.

Schema-2 files are written by ``examples/record_bench.py``.  A schema-1
file (BENCH_1.json, from the deleted ``repro bench``) timed the stages of
cold cells of one scenario; it reads as one workload named after that
scenario, with ``setup_s``, ``crawl_s`` and ``cell_s`` taken from the cold
``world_build``, ``crawl`` and ``campaign_cell`` times, and no layers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = REPO_ROOT / "BENCHMARK.json"

# Schema-1 stage -> the end-to-end metric it measured.
_SCHEMA1_STAGES = {"world_build": "setup_s", "crawl": "crawl_s",
                   "campaign_cell": "cell_s"}


def load_bench(data: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per workload: ``median`` end-to-end metrics, per-cell ``layers`` and
    the median ``cells`` per untraced run (None when no run is recorded)."""
    version = data.get("schema_version")
    if version == 1:
        median = {metric: data["stages"][stage]["cold_seconds"]
                  for stage, metric in _SCHEMA1_STAGES.items()
                  if stage in data["stages"]}
        return {data["scenario"]: {"median": median, "layers": {}, "cells": None}}
    if version != 2:
        raise ValueError(f"unknown BENCH schema_version {version!r}")
    workloads = {}
    for name, entry in data["workloads"].items():
        per_run: Dict[str, List[float]] = {}
        for run in entry.get("traced", []):
            for layer, seconds in run["self_s_by_layer"].items():
                per_run.setdefault(layer, []).append(seconds)
        cells = [run["cells"] for run in entry.get("runs", [])]
        workloads[name] = {
            "median": entry.get("median", {}),
            "layers": {layer: statistics.median(v) for layer, v in per_run.items()},
            "cells": statistics.median(cells) if cells else None,
        }
    return workloads


def judge(a: float, b: float, better: str, bound: float) -> str:
    move = (b - a) / a if a else 0.0
    against = move if better == "lower" else -move
    if against > bound:
        return "worse"
    if against < -bound:
        return "better"
    return "within"


def _pct(a: float, b: float) -> str:
    return f"{100.0 * (b - a) / a:+.1f}%" if a else "n/a"


def compare(left: Dict[str, Any], right: Dict[str, Any],
            end_to_end: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) both loaded files measured."""
    rows = []
    for workload in sorted(left.keys() & right.keys()):
        for metric in end_to_end:
            name = metric["name"]
            va = left[workload]["median"].get(name)
            vb = right[workload]["median"].get(name)
            if va is None or vb is None:
                continue
            rows.append({"workload": workload, "metric": name, "a": va, "b": vb,
                         "bound": metric["bound"],
                         "verdict": judge(va, vb, metric["better"], metric["bound"])})
    return rows


def cells_rows(left: Dict[str, Any], right: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Median cells per untraced run, for workloads both files ran."""
    rows = []
    for workload in sorted(left.keys() & right.keys()):
        ca, cb = left[workload]["cells"], right[workload]["cells"]
        if ca is not None and cb is not None:
            rows.append({"workload": workload, "a": ca, "b": cb})
    return rows


def layer_rows(left: Dict[str, Any], right: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-cell self time per layer, for workloads traced in both files."""
    rows = []
    for workload in sorted(left.keys() & right.keys()):
        la, lb = left[workload]["layers"], right[workload]["layers"]
        if not la or not lb:
            continue
        moved = [{"workload": workload, "layer": layer,
                  "a": la.get(layer, 0.0), "b": lb.get(layer, 0.0)}
                 for layer in sorted(la.keys() | lb.keys())]
        rows += sorted((row for row in moved if row["a"] or row["b"]),
                       key=lambda row: -abs(row["b"] - row["a"]))
    return rows


def render(a: Dict[str, Any], b: Dict[str, Any],
           end_to_end: List[Dict[str, Any]]) -> Tuple[List[str], bool]:
    """The report's lines, and whether any metric is worse past its bound."""
    left, right = load_bench(a), load_bench(b)
    lines = [f"A: {a.get('commit', 'schema 1')}  B: {b.get('commit', 'schema 1')}"]
    if a.get("host") != b.get("host"):
        lines.append(f"warning: hosts differ: A {json.dumps(a.get('host'), sort_keys=True)}"
                     f"  B {json.dumps(b.get('host'), sort_keys=True)}")
    for side, mine, other in (("A", left, right), ("B", right, left)):
        for workload in sorted(mine.keys() - other.keys()):
            lines.append(f"{workload}: only in {side}")
    rows = compare(left, right, end_to_end)
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['metric']:<14} {row['a']:>9.3f} -> "
            f"{row['b']:>9.3f}  {_pct(row['a'], row['b']):>7}  "
            f"bound {100 * row['bound']:.0f}%  {row['verdict']}")
    cells = cells_rows(left, right)
    if cells:
        lines.append("cells per run (median over untraced runs):")
    for row in cells:
        mark = "  differs" if row["a"] != row["b"] else ""
        lines.append(f"{row['workload']:<14} {row['a']:>9g} -> {row['b']:>9g}{mark}")
    layers = layer_rows(left, right)
    if layers:
        lines.append("self_s per cell by layer:")
    for row in layers:
        lines.append(
            f"{row['workload']:<14} {row['layer']:<22} {row['a']:>8.4f} -> "
            f"{row['b']:>8.4f}  {row['b'] - row['a']:+.4f} s  {_pct(row['a'], row['b']):>7}")
    t1a, t1b = a.get("tier1_wall_s"), b.get("tier1_wall_s")
    if t1a and t1b:
        lines.append(f"tier-1 wall {t1a:.0f} -> {t1b:.0f} s  {_pct(t1a, t1b)}")
    return lines, any(row["verdict"] == "worse" for row in rows)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the earlier BENCH file")
    parser.add_argument("b", type=Path, help="the later BENCH file")
    args = parser.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    lines, worse = render(a, b, end_to_end)
    print("\n".join(lines))
    return int(worse)


if __name__ == "__main__":
    sys.exit(main())

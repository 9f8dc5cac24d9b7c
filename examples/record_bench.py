#!/usr/bin/env python3
"""Record perfbench results in the next free ``BENCH_<n>.json``.

Each input is one report that ``perfbench/run.py`` wrote to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.  Copy the reports of
several runs aside between runs (each run overwrites them) and pass them all
at once; untraced and traced reports may be mixed:

    python3 examples/record_bench.py runs/*/*.json
    python3 examples/record_bench.py --commit 77739d0 --tier1-seconds 215 runs/*/*.json

The file written (schema 2) holds the commit and dirty flag the runs
measured, the host (platform, Python, CPU count), and per workload every
untraced run's end-to-end metrics with its ``host_scale``, plus the median
of each metric over those runs.  A traced report adds its self time per
layer, summed over the probes of each layer named in
``perfbench/layer_map.json`` (a probe belongs to the longest layer name it
starts with).  ``--tier1-seconds`` adds the tier-1 suite's wall time.

A ``git archive`` copy has no ``.git``, so its reports name no commit:
pass ``--commit`` to name the commit the copy was made from.  Reports of
different hosts are refused, because their timings do not compare.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
LAYER_MAP = REPO_ROOT / "perfbench" / "layer_map.json"
SCHEMA_VERSION = 2
_BENCH_NAME = re.compile(r"BENCH_(\d+)\.json")


class RecordError(ValueError):
    """Reports that cannot go into one BENCH file."""


def layer_of(probe: str, layers: Sequence[str]) -> str:
    """The longest layer name ``probe`` equals or starts with, else itself."""
    matches = [layer for layer in layers
               if probe == layer or probe.startswith(layer + ".")]
    return max(matches, key=len, default=probe)


def self_s_by_layer(metrics: Dict[str, float], layers: Sequence[str]) -> Dict[str, float]:
    grouped: Dict[str, float] = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            layer = layer_of(name[: -len(".self_s")], layers)
            grouped[layer] = grouped.get(layer, 0.0) + value
    return dict(sorted(grouped.items()))


def _one(values: List[Any], what: str) -> Any:
    distinct = {json.dumps(v, sort_keys=True) for v in values}
    if len(distinct) > 1:
        raise RecordError(f"reports disagree on {what}: {sorted(distinct)}")
    return values[0]


def build_record(reports: Sequence[Dict[str, Any]], layers: Sequence[str],
                 commit: Optional[str] = None,
                 tier1_seconds: Optional[float] = None) -> Dict[str, Any]:
    """The BENCH payload for ``reports`` (parsed perfbench report files)."""
    if not reports:
        raise RecordError("no reports given")
    manifests = [r["manifest"] for r in reports]
    if commit is None:
        commit = _one([m["git_commit"] for m in manifests], "the commit")
        if commit is None:
            raise RecordError("the reports name no commit; pass --commit")
    host = _one([{"platform": m["platform"], "python": m["python"],
                  "nproc": m["nproc"]} for m in manifests], "the host")

    workloads: Dict[str, Dict[str, Any]] = {}
    for report in reports:
        manifest = report["manifest"]
        entry = workloads.setdefault(manifest["workload"], {"runs": [], "traced": []})
        run = {
            "seed": manifest["seed"],
            "seconds": manifest["seconds"],
            "cells": len(report["cells"]),
            "failed": sum(1 for cell in report["cells"] if cell["problems"]),
        }
        if manifest["trace"]:
            run["traced_cells"] = manifest["traced_cells"]
            run["self_s_by_layer"] = self_s_by_layer(report["metrics"], layers)
            entry["traced"].append(run)
        else:
            run["host_scale"] = manifest["host_scale"]
            run["metrics"] = dict(sorted(report["metrics"].items()))
            entry["runs"].append(run)
    for entry in workloads.values():
        if entry["runs"]:
            names = entry["runs"][0]["metrics"]
            entry["median"] = {
                name: statistics.median(run["metrics"][name] for run in entry["runs"])
                for name in names
            }
    return {
        "schema_version": SCHEMA_VERSION,
        "commit": commit,
        "dirty": any(m["git_dirty"] for m in manifests),
        "host": host,
        "tier1_wall_s": tier1_seconds,
        "workloads": dict(sorted(workloads.items())),
    }


def next_bench_path(directory: Path) -> Path:
    taken = [int(m.group(1)) for p in directory.iterdir()
             if (m := _BENCH_NAME.fullmatch(p.name))]
    return directory / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+", type=Path,
                        help="perfbench report files (.perfbench_out/*.json)")
    parser.add_argument("--commit", help="commit the runs measured, when the "
                        "reports name none (git archive copies)")
    parser.add_argument("--tier1-seconds", type=float,
                        help="wall time of the tier-1 test suite")
    parser.add_argument("--out-dir", type=Path, default=REPO_ROOT,
                        help="where to write BENCH_<n>.json (default: repo root)")
    args = parser.parse_args(argv)

    layers = list(json.loads(LAYER_MAP.read_text())["layers"])
    reports = [json.loads(path.read_text()) for path in args.reports]
    try:
        record = build_record(reports, layers, args.commit, args.tier1_seconds)
    except RecordError as exc:
        parser.error(str(exc))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = next_bench_path(args.out_dir)
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``perfbench/digests.json``: output digests of the default seed.

Usage, from the repository root::

    python3 perfbench/pin_digests.py

Pins the cells the default seed (7) reaches in a 30-second run of each
workload, with headroom.  Run it only when a change is meant to alter
campaign outputs, and say so in the change.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 7
# Cells pinned per crawl workload, and grids per sweep shape.
CRAWL_CELLS = {"tracker-crawl": 20, "dht-crawl": 14}
SWEEP_GRIDS = 3
TRACED_SWEEP_GRIDS = 6


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, workloads

    none = checks.Pins({})
    table = {}
    for name, count in CRAWL_CELLS.items():
        workload = workloads.WORKLOADS[name]
        seeds = itertools.islice(workloads.cell_seeds(DEFAULT_SEED), count)
        table[name] = {
            str(seed): workloads.run_cell(workload.cell(seed), none, name).digest
            for seed in seeds
        }
        print(f"{name}: {count} cells pinned", flush=True)

    sweep = workloads.WORKLOADS["sweep"]
    seeds = workloads.cell_seeds(DEFAULT_SEED)
    probes = list(itertools.islice(seeds, workloads.SWEEP_PROBE_CELLS))
    table["sweep/probe"] = {
        str(seed): workloads.run_cell(sweep.cell(seed), none, "sweep/probe").digest
        for seed in probes
    }
    grids = [tuple(itertools.islice(seeds, workloads.SWEEP_GRID_CELLS))
             for _ in range(SWEEP_GRIDS)]
    # The traced run: one pooled grid of 2 x jobs cells, then small grids.
    traced = workloads.cell_seeds(DEFAULT_SEED)
    jobs = workloads.sweep_jobs()
    grids.append(tuple(itertools.islice(traced, 2 * jobs)))
    grids += [tuple(itertools.islice(traced, workloads.TRACED_SWEEP_CELLS))
              for _ in range(TRACED_SWEEP_GRIDS)]
    cells, reports = {}, {}
    for grid in grids:
        records, result = workloads.run_sweep_grid(sweep, grid, jobs, none)
        cells.update({str(r.seed): r.digest for r in records})
        reports[f"{grid[0]}-{grid[-1]}"] = checks.digest(result.report)
    table["sweep/cell"] = cells
    table["sweep/report"] = reports
    print(f"sweep: {len(cells)} cells, {len(reports)} reports pinned")

    checks.PINS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.PINS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The perf-trajectory harness behind ``repro bench``.

Every perf PR should leave a recorded data point.  This module times the
pipeline's stages over fixed scenarios and writes a schema-versioned
``BENCH_<n>.json`` next to the previous ones, so the numbers accumulate
into a trajectory instead of living in commit messages.

Stages (all per-rep wall seconds):

- ``world_build``: :meth:`World.build` for the scenario -- dominated by
  piece derivation on a cold cache;
- ``crawl``: the event-scheduler run over the measurement window;
- ``analysis``: headline statistics over the finished dataset;
- ``crawl_sampled``: the same crawl with ``wire_fidelity="sampled"``, so
  the report can show what the full wire path costs over the object path
  (:func:`format_bench` prints the full/sampled ratio);
- ``campaign_cell``: the full :func:`run_campaign_cell` (what the sweep
  runner multiplies by scenarios x seeds);
- ``sweep``: a 2-seed serial sweep with ``wire_fidelity="sampled"`` (the
  mode ``repro sweep`` uses); skipped by ``--quick``.

Each stage records the full rep list plus ``cold_seconds`` (first rep,
taken with the piece-derivation LRU cleared), ``best_seconds`` and
``mean_seconds``.  Cold reps answer "what does the first build of a world
cost?"; best-of-reps answers "what do goldens, sweeps and tests pay once
the cache is warm?" -- both are honest numbers and both are recorded.

The ``reference`` block pins the pre-optimisation stage times (measured on
the commit this harness landed on, same scenario/seed) so every report
carries its own before/after comparison without archaeology.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.runner import CellSpec, SweepSpec, headline_stats, run_campaign_cell, run_sweep
from repro.core.collector import run_measurement_with_world
from repro.observability import MetricsRegistry
from repro.simulation.scenarios import build_scenario
from repro.simulation.world import World
from repro.torrent.metainfo import _derive_pieces

BENCH_SCHEMA_VERSION = 1

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")

# Pre-optimisation stage times (seconds): tiny scenario, seed 7, single
# CPU, measured at the commit preceding the hot-path pass.  best-of-reps
# per stage; the pre-opt pipeline had no piece cache, so cold == warm.
REFERENCE_STAGES: Dict[str, float] = {
    "world_build": 2.609,
    "crawl": 1.946,
    "analysis": 0.010,
    "campaign_cell": 4.998,
    "sweep": 11.8,  # 2-seed serial tiny sweep, full wire fidelity
}
REFERENCE_DESCRIPTION = (
    "pre-optimisation baseline: tiny scenario, seed 7, measured on the "
    "parent of the hot-path PR (no piece-derivation cache, recursive "
    "bencode, per-event wall timing)"
)


def _time_reps(
    fn: Callable[[], Any], reps: int, cold_setup: Optional[Callable[[], None]] = None
) -> List[float]:
    """Wall-time ``reps`` calls of ``fn``; ``cold_setup`` runs before rep 0."""
    times: List[float] = []
    for rep in range(reps):
        if rep == 0 and cold_setup is not None:
            cold_setup()
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return times


def _stage_entry(reps_seconds: List[float]) -> Dict[str, Any]:
    return {
        "reps_seconds": reps_seconds,
        "cold_seconds": reps_seconds[0],
        "best_seconds": min(reps_seconds),
        "mean_seconds": sum(reps_seconds) / len(reps_seconds),
    }


def _clear_piece_cache() -> None:
    _derive_pieces.cache_clear()


def run_bench(
    scenario: str = "tiny",
    seed: int = 7,
    reps: int = 3,
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Time every stage and return the schema-versioned payload."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if quick:
        reps = min(reps, 2)

    def report(message: str) -> None:
        if progress is not None:
            progress(message)

    stages: Dict[str, Dict[str, Any]] = {}

    # world_build: cold rep pays full piece derivation, warm reps hit the
    # LRU (the cost goldens/sweeps/tests actually see on rebuilds).
    config = build_scenario(scenario)
    worlds: List[World] = []

    def build_world() -> None:
        worlds.append(World.build(config, seed, metrics=MetricsRegistry()))

    report(f"[bench] world_build x{reps} ({scenario}, seed={seed})")
    stages["world_build"] = _stage_entry(
        _time_reps(build_world, reps, cold_setup=_clear_piece_cache)
    )
    del worlds[:]

    # crawl + analysis: timed inside one full measurement per rep.  The
    # world is rebuilt each rep (cheap now) because swarm query state is
    # consumed by a crawl and cannot be rewound.
    def measure(wire_fidelity: Optional[str]):
        """One measurement: (crawl seconds, dataset, world)."""
        registry = MetricsRegistry()
        started = time.perf_counter()
        dataset, world = run_measurement_with_world(
            build_scenario(scenario, wire_fidelity=wire_fidelity),
            seed=seed,
            metrics=registry,
        )
        total = time.perf_counter() - started
        build_summary = registry.histogram(
            "campaign.build_world_wall_ms"
        ).summary()
        return total - build_summary.get("sum", 0.0) / 1000.0, dataset, world

    # The sampled crawl alternates with the full one, so drift in host
    # speed moves both sides of the full/sampled ratio alike.
    crawl_times: List[float] = []
    analysis_times: List[float] = []
    sampled_times: List[float] = []
    report(f"[bench] crawl/analysis/crawl_sampled x{reps}")
    for _rep in range(reps):
        crawl_seconds, dataset, world = measure(None)
        crawl_times.append(crawl_seconds)
        started = time.perf_counter()
        headline_stats(dataset, world)
        analysis_times.append(time.perf_counter() - started)
        sampled_times.append(measure("sampled")[0])
    stages["crawl"] = _stage_entry(crawl_times)
    stages["analysis"] = _stage_entry(analysis_times)
    stages["crawl_sampled"] = _stage_entry(sampled_times)

    def cell() -> None:
        run_campaign_cell(CellSpec(scenario=scenario, seed=seed))

    report(f"[bench] campaign_cell x{reps}")
    stages["campaign_cell"] = _stage_entry(
        _time_reps(cell, reps, cold_setup=_clear_piece_cache)
    )

    if not quick:
        sweep_spec = SweepSpec(
            scenarios=(scenario,),
            seeds=(seed, seed + 1),
            wire_fidelity="sampled",
        )

        def sweep() -> None:
            run_sweep(sweep_spec, jobs=1)

        report("[bench] sweep x1 (2 seeds, sampled wire fidelity)")
        stages["sweep"] = _stage_entry(_time_reps(sweep, 1))

    payload: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "scenario": scenario,
        "seed": seed,
        "reps": reps,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "stages": stages,
        "reference": {
            "description": REFERENCE_DESCRIPTION,
            "stages": dict(REFERENCE_STAGES),
        },
    }
    speedups: Dict[str, float] = {}
    for name, entry in stages.items():
        ref = REFERENCE_STAGES.get(name)
        if ref is not None and entry["best_seconds"] > 0:
            speedups[name] = ref / entry["best_seconds"]
    payload["speedup_vs_reference"] = speedups
    return payload


def next_bench_path(output_dir: str = ".") -> str:
    """The next free ``BENCH_<n>.json`` path (numbering starts at 1)."""
    os.makedirs(output_dir, exist_ok=True)
    highest = 0
    for entry in os.listdir(output_dir):
        match = _BENCH_NAME.match(entry)
        if match:
            highest = max(highest, int(match.group(1)))
    return os.path.join(output_dir, f"BENCH_{highest + 1}.json")


def write_bench(payload: Dict[str, Any], output_dir: str = ".") -> str:
    """Write the payload as the next ``BENCH_<n>.json``; returns the path."""
    path = next_bench_path(output_dir)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_bench(payload: Dict[str, Any]) -> str:
    """Human-readable stage table for the CLI / CI step summary."""
    lines = [
        f"bench: scenario={payload['scenario']} seed={payload['seed']} "
        f"reps={payload['reps']} python={payload['host']['python']}",
        f"{'stage':<15} {'cold':>8} {'best':>8} {'mean':>8} {'ref':>8} {'speedup':>8}",
    ]
    reference = payload.get("reference", {}).get("stages", {})
    speedups = payload.get("speedup_vs_reference", {})
    for name, entry in payload["stages"].items():
        ref = reference.get(name)
        speedup = speedups.get(name)
        lines.append(
            f"{name:<15} {entry['cold_seconds']:>8.3f} "
            f"{entry['best_seconds']:>8.3f} {entry['mean_seconds']:>8.3f} "
            f"{ref:>8.3f} {speedup:>7.2f}x"
            if ref is not None and speedup is not None
            else f"{name:<15} {entry['cold_seconds']:>8.3f} "
            f"{entry['best_seconds']:>8.3f} {entry['mean_seconds']:>8.3f} "
            f"{'-':>8} {'-':>8}"
        )
    stages = payload["stages"]
    if "crawl" in stages and "crawl_sampled" in stages:
        ratio = (
            stages["crawl"]["best_seconds"] / stages["crawl_sampled"]["best_seconds"]
        )
        lines.append(f"crawl full/sampled (best): {ratio:.2f}x")
    return "\n".join(lines)

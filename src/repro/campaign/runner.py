"""Sweep execution: the grid, the per-cell worker, and the process pool.

A *cell* is one (scenario, seed) pair.  Each worker rebuilds its own
deterministic world from the scenario name (configs are never pickled --
they can carry live registries), runs the full monitor -> crawler ->
analysis pipeline, scores it against ground truth, and returns a compact
:class:`CampaignResult`: headline floats, Table-1 counts, and a
sample-bearing observability snapshot.  Datasets and worlds die inside the
worker, so an 8-seed sweep costs eight campaign payloads of memory, not
eight worlds.

Determinism contract: the aggregate report depends only on the grid, never
on ``jobs`` -- workers are pure functions of their cell and aggregation
sorts by grid position.  ``repro sweep --jobs 1`` and ``--jobs 4`` emit
byte-identical JSON (a regression test holds this).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.analysis.contribution import analyze_contribution
from repro.core.analysis.groups import identify_groups
from repro.core.analysis.incentives import (
    PUBLISHER_CLASS_NAMES,
    classify_top_publishers,
)
from repro.core.collector import run_measurement_with_world
from repro.core.datasets import Dataset
from repro.core.validation import validate_campaign
from repro.observability import MetricsRegistry
from repro.simulation.scenarios import ScenarioConfig, build_scenario
from repro.simulation.world import World

# Headline-key slugs for the Section 5.1 publisher classes.
_CLASS_SLUGS = {
    "BT Portals": "bt_portals",
    "Other Web sites": "other_websites",
    "Altruistic Publishers": "altruistic",
}


@dataclass(frozen=True)
class SweepSpec:
    """A scenario x seed grid plus the shared scenario knobs."""

    scenarios: Tuple[str, ...]
    seeds: Tuple[int, ...]
    scale: float = 1.0
    popularity_scale: float = 1.0
    discovery: Optional[str] = None
    top_k: int = 20
    window_days: Optional[float] = None
    post_window_days: Optional[float] = None
    confidence: float = 0.95
    bootstrap_resamples: int = 1000
    # Tracker serialisation mode for every cell ("full"/"sampled"); must be
    # uniform across the grid so merged metrics stay comparable.  None keeps
    # each scenario's default.
    wire_fidelity: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("sweep needs at least one scenario")
        if not self.seeds:
            raise ValueError("sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("duplicate seeds in sweep grid")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        # Resolve every scenario name now: a typo should fail before any
        # worker process is forked, not minutes into the grid.
        for name in self.scenarios:
            self.config(name)

    def config(self, scenario: str) -> ScenarioConfig:
        """One scenario of the grid with the shared knobs applied."""
        return build_scenario(
            scenario,
            scale=self.scale,
            popularity_scale=self.popularity_scale,
            discovery=self.discovery,
            window_days=self.window_days,
            post_window_days=self.post_window_days,
            wire_fidelity=self.wire_fidelity,
        )

    def cells(self) -> List["CellSpec"]:
        return [
            CellSpec(sweep=self, scenario=scenario, seed=seed)
            for scenario in self.scenarios
            for seed in self.seeds
        ]

    def grid_dict(self) -> Dict[str, Any]:
        """The grid as a JSON-ready dict (the report's provenance block)."""
        return {
            "scenarios": list(self.scenarios),
            "seeds": list(self.seeds),
            "scale": self.scale,
            "popularity_scale": self.popularity_scale,
            "discovery": self.discovery,
            "top_k": self.top_k,
            "window_days": self.window_days,
            "post_window_days": self.post_window_days,
            "confidence": self.confidence,
            "bootstrap_resamples": self.bootstrap_resamples,
            "wire_fidelity": self.wire_fidelity,
        }


@dataclass(frozen=True)
class CellSpec:
    """One grid cell -- everything a worker needs to rebuild its campaign."""

    sweep: SweepSpec
    scenario: str
    seed: int


@dataclass
class CampaignResult:
    """Compact payload one worker returns for one cell."""

    scenario: str
    seed: int
    headline: Dict[str, float]
    summary: Dict[str, int]
    metrics: Dict[str, Any]
    wall_seconds: float


def headline_stats(
    dataset: Dataset, world: World, top_k: int = 20
) -> Dict[str, float]:
    """The paper's headline statistics for one campaign, as a flat dict.

    Covers identification coverage/precision, download coverage,
    session-estimation error, the fake/top mapping shares, the Section 5.1
    publisher-class split, and contribution skewness.  Keys are stable --
    the golden-dataset regression test pins them.
    """
    out: Dict[str, float] = {}
    validation = validate_campaign(dataset, world)
    out["identification.coverage"] = validation.identification.coverage
    out["identification.precision"] = validation.identification.precision
    out["download.coverage"] = validation.coverage.coverage
    out["session.samples"] = float(validation.session_samples)
    if validation.session_median_relative_error is not None:
        out["session.median_rel_error"] = (
            validation.session_median_relative_error
        )
    if validation.discovery is not None:
        out["discovery.tracker_coverage"] = validation.discovery.tracker_coverage
        out["discovery.dht_coverage"] = validation.discovery.dht_coverage
        out["discovery.coverage_gap"] = validation.discovery.coverage_gap

    contribution = analyze_contribution(dataset, top_k=top_k)
    out["contribution.top3pct_content_share"] = (
        contribution.top3pct_content_share
    )
    out["contribution.gini"] = contribution.gini_coefficient

    groups = identify_groups(dataset, top_k=top_k)
    mapping = groups.mapping
    if mapping is not None:
        out["mapping.fake_username_share"] = mapping.fake_username_share
        out["mapping.fake_content_share"] = mapping.fake_content_share
        out["mapping.fake_download_share"] = mapping.fake_download_share
        out["mapping.top_content_share"] = mapping.top_content_share
        out["mapping.top_download_share"] = mapping.top_download_share
    incentives = classify_top_publishers(dataset, groups)
    if incentives is not None:
        for cls in PUBLISHER_CLASS_NAMES:
            slug = _CLASS_SLUGS[cls]
            out[f"classes.{slug}.top_fraction"] = (
                incentives.class_top_fraction.get(cls, 0.0)
            )
            out[f"classes.{slug}.content_share"] = (
                incentives.class_content_share.get(cls, 0.0)
            )
            out[f"classes.{slug}.download_share"] = (
                incentives.class_download_share.get(cls, 0.0)
            )
    return out


def run_campaign_cell(cell: CellSpec) -> CampaignResult:
    """One worker's job: build the world, crawl, analyse, score, compact.

    Must stay a module-level function -- the process pool pickles it by
    reference.  The observability snapshot is taken sim-only with retained
    samples so cross-worker merges pool real observations and the aggregate
    stays seed-deterministic.
    """
    started = time.perf_counter()
    config = cell.sweep.config(cell.scenario)
    registry = MetricsRegistry()
    dataset, world = run_measurement_with_world(
        config, seed=cell.seed, metrics=registry
    )
    headline = headline_stats(dataset, world, top_k=cell.sweep.top_k)
    summary = dataset.summary_dict()
    summary["num_true_swarms"] = world.num_swarms
    return CampaignResult(
        scenario=cell.scenario,
        seed=cell.seed,
        headline=headline,
        summary=summary,
        metrics=registry.snapshot(include_wall=False, include_samples=True),
        wall_seconds=time.perf_counter() - started,
    )


@dataclass
class SweepResult:
    """Everything one sweep produced: payloads, aggregates, wall timings."""

    spec: SweepSpec
    results: List[CampaignResult]
    report: Dict[str, Any]
    wall_seconds: float = 0.0
    jobs: int = 1
    extras: Dict[str, Any] = field(default_factory=dict)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Deterministic aggregate JSON (wall timings deliberately absent:
        two sweeps over the same grid must serialise byte-identically)."""
        import json

        return json.dumps(self.report, sort_keys=True, indent=indent)

    @property
    def cell_wall_seconds(self) -> float:
        """Sum of per-cell compute time (the serial-equivalent cost)."""
        return sum(r.wall_seconds for r in self.results)


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Execute the grid, ``jobs`` cells at a time, and aggregate.

    ``jobs <= 1`` runs serially in-process (no pool overhead -- the fair
    baseline for the speedup benchmark).  Parallel workers may finish in any
    order; results are re-sorted into grid order before aggregation.
    """
    from repro.campaign.aggregate import aggregate_results

    cells = spec.cells()
    started = time.perf_counter()
    results: List[CampaignResult] = []
    with ExitStack() as stack:
        finished: Iterable[CampaignResult]
        if jobs <= 1:
            finished = map(run_campaign_cell, cells)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            futures = [pool.submit(run_campaign_cell, cell) for cell in cells]
            finished = (future.result() for future in as_completed(futures))
        for index, result in enumerate(finished, start=1):
            results.append(result)
            if progress is not None:
                progress(
                    f"[{result.scenario} seed={result.seed}] done in "
                    f"{result.wall_seconds:.1f}s ({index}/{len(cells)})"
                )
    # Grid order, not completion order: the aggregate must not know how many
    # workers ran.
    order = {
        (cell.scenario, cell.seed): index for index, cell in enumerate(cells)
    }
    results.sort(key=lambda r: order[(r.scenario, r.seed)])
    report = aggregate_results(spec, results)
    return SweepResult(
        spec=spec,
        results=results,
        report=report,
        wall_seconds=time.perf_counter() - started,
        jobs=max(jobs, 1),
    )

"""The benchmark's workloads and the loops that measure them.

Three workloads, each a stream of campaign cells whose seeds derive from
the workload seed (cell ``i`` of workload seed ``s`` has seed
``s * 1000 + i``):

- ``tracker-crawl``: serial cold ``tiny`` cells, tracker only, full wire
  fidelity -- the paper's own method;
- ``dht-crawl``: serial cold ``trackerless`` cells, magnet + DHT only;
- ``sweep``: ``run_sweep`` over grids of ``baseline`` cells with
  ``wire_fidelity="sampled"`` on a process pool, after a few in-process
  probe cells of the same kind.  The probes give the sweep's per-cell
  times (set-up, crawl, cell), the pooled sweeps its throughput.

Every public entry point is called through its module attribute at call
time, so the traced run's wrappers see each call.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro.campaign.runner as runner
import repro.core.collector as collector
import repro.simulation.scenarios as scenarios
import repro.torrent.metainfo as metainfo
from repro.observability import MetricsRegistry

from perfbench import checks
from perfbench.tracing import Tracer

TOP_K = 20
SEED_STRIDE = 1000
# Median time of one host-speed kernel sample on the 2-vCPU VM the bounds
# were set on (see HostSpeed).
REFERENCE_KERNEL_S = 0.0185
# In-process cells the sweep workload times before its pooled sweeps.
SWEEP_PROBE_CELLS = 6
# Cells per pooled sweep grid (fixed, so the report digest does not depend
# on the worker count).
SWEEP_GRID_CELLS = 8
# Cells per in-process sweep grid in the traced run.
TRACED_SWEEP_CELLS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "crawl" or "sweep"
    scenario: str
    channel: str  # "tracker" or "dht"
    window_days: Optional[float]
    post_window_days: Optional[float]
    wire_fidelity: Optional[str]

    def cell(self, seed: int) -> "CellPlan":
        return CellPlan(self.scenario, seed, self.channel, self.window_days,
                        self.post_window_days, self.wire_fidelity)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("tracker-crawl", "crawl", "tiny", "tracker", 2.0, 2.0, "full"),
        Workload("dht-crawl", "crawl", "trackerless", "dht", 0.125, 0.125, None),
        Workload("sweep", "sweep", "baseline", "tracker", 2.0, 2.0, "sampled"),
    )
}


@dataclass(frozen=True)
class CellPlan:
    """Everything needed to rebuild one campaign cell."""

    scenario: str
    seed: int
    channel: str
    window_days: Optional[float] = None
    post_window_days: Optional[float] = None
    wire_fidelity: Optional[str] = None

    @property
    def cell_id(self) -> str:
        return f"{self.scenario}:{self.seed}"

    @property
    def is_golden(self) -> bool:
        """The campaign ``tests/golden/tiny_seed7.json`` pins."""
        return (self.scenario, self.seed, self.window_days,
                self.post_window_days, self.wire_fidelity) == (
                    "tiny", 7, None, None, None)

    def config(self) -> Any:
        return scenarios.build_scenario(
            self.scenario,
            window_days=self.window_days,
            post_window_days=self.post_window_days,
            wire_fidelity=self.wire_fidelity,
        )

    def sweep_spec(self, seeds: Tuple[int, ...]) -> runner.SweepSpec:
        return runner.SweepSpec(
            scenarios=(self.scenario,),
            seeds=seeds,
            window_days=self.window_days,
            post_window_days=self.post_window_days,
            wire_fidelity=self.wire_fidelity,
            top_k=TOP_K,
        )


@dataclass
class CellRecord:
    """One cell's timings, output digest, work counts and check results."""

    cell_id: str
    seed: int
    setup_s: float = math.nan
    crawl_s: float = math.nan
    cell_s: float = math.nan
    peak_rss_mb: float = math.nan
    digest: str = ""
    counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def completed(self) -> bool:
        return not math.isnan(self.cell_s)


def cell_seeds(seed: int) -> Iterator[int]:
    return itertools.count(seed * SEED_STRIDE)


def clear_piece_cache() -> None:
    """Empty the piece-derivation LRU: every fresh process pays that cost."""
    cache_clear = getattr(getattr(metainfo, "_derive_pieces", None), "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


def _wall_seconds(registry: MetricsRegistry, name: str) -> float:
    return registry.histogram(name, wall=True).summary().get("sum", math.nan) / 1000.0


def run_cell(plan: CellPlan, pins: checks.Pins, namespace: str) -> CellRecord:
    """Build, crawl, analyse, score and snapshot one cold cell, then check it.

    A cell that raises is recorded with the traceback as its problem.
    """
    record = CellRecord(plan.cell_id, plan.seed)
    try:
        config = plan.config()
        clear_piece_cache()
        registry = MetricsRegistry()
        reset_peak_rss()
        started = time.perf_counter()
        dataset, world = collector.run_measurement_with_world(
            config, seed=plan.seed, metrics=registry
        )
        headline = runner.headline_stats(dataset, world, top_k=TOP_K)
        summary = dataset.summary_dict()
        summary["num_true_swarms"] = world.num_swarms
        snapshot = registry.snapshot(include_wall=False)
        record.cell_s = time.perf_counter() - started
        record.peak_rss_mb = peak_rss_mb()
        record.setup_s = _wall_seconds(registry, "campaign.build_world_wall_ms")
        record.crawl_s = _wall_seconds(registry, "campaign.crawl_wall_ms")
    except Exception:
        record.problems.append(traceback.format_exc(limit=4))
        return record
    _check(record, plan.channel, headline, summary, snapshot, pins, namespace)
    if plan.is_golden:
        record.problems += checks.golden_problems(headline, summary)
    return record


def _check(record: CellRecord, channel: str, headline: Dict[str, float],
           summary: Dict[str, Any], snapshot: Dict[str, Any],
           pins: checks.Pins, namespace: str) -> None:
    record.digest = checks.cell_digest(summary, headline, snapshot)
    record.counts = checks.deterministic_counts(snapshot)
    record.problems += checks.invariant_problems(channel, headline, summary, snapshot)
    mismatch = pins.problem(namespace, str(record.seed), record.digest)
    if mismatch:
        record.problems.append(mismatch)


def run_sweep_grid(workload: Workload, seeds: Tuple[int, ...], jobs: int,
                   pins: checks.Pins) -> Tuple[List[CellRecord], Optional[Any]]:
    """One ``run_sweep`` call; every cell of a sweep that raises fails."""
    plan = workload.cell(seeds[0])
    clear_piece_cache()
    try:
        result = runner.run_sweep(plan.sweep_spec(seeds), jobs=jobs)
    except Exception:
        problem = traceback.format_exc(limit=4)
        return [CellRecord(f"{workload.scenario}:{s}", s, problems=[problem])
                for s in seeds], None
    records = []
    for payload in result.results:
        record = CellRecord(f"{payload.scenario}:{payload.seed}", payload.seed,
                            cell_s=payload.wall_seconds)
        _check(record, workload.channel, payload.headline, payload.summary,
               payload.metrics, pins, "sweep/cell")
        records.append(record)
    report_problems = checks.sweep_report_problems(result.report, result.results)
    mismatch = pins.problem("sweep/report", f"{seeds[0]}-{seeds[-1]}",
                            checks.digest(result.report))
    if mismatch:
        report_problems.append(mismatch)
    for record in records:
        record.problems += report_problems
    return records, result


def sweep_jobs() -> int:
    """Workers for the pooled sweep: every CPU this process may use, at most 4."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, 4))


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (Linux ``clear_refs``), so
    the next reading covers one cell; elsewhere the peak stays cumulative."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process since the last reset."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest resident set any finished worker process reached."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class HostSpeed:
    """How fast the host runs plain Python right now.

    The benchmark shares its machine, and the speed the host gives the same
    Python work drifted by up to 40% within a few minutes on the VM the
    bounds were set on.  A fixed
    kernel that uses only the standard library (hashing, dicts, bytes) is
    timed between cells; the median of its samples over a run measures the
    host's speed during that run.  Timing metrics are reported in seconds
    at the reference speed: measured seconds x ``REFERENCE_KERNEL_S`` /
    median kernel time.  The unscaled figures go to the manifest.
    """

    REPEATS = 8

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        blob = b"x" * 4096
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            table = {}
            for i in range(3000):
                digest = hashlib.sha1(blob + i.to_bytes(4, "big")).digest()
                table[digest[:4]] = (i, digest, str(i))
            b"".join(entry[1] for entry in table.values())
            self.samples.append(time.perf_counter() - started)

    @property
    def scale(self) -> float:
        """Factor from measured seconds to reference-speed seconds."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def _median(values: List[float]) -> float:
    values = [v for v in values if not math.isnan(v)]
    if not values:
        raise RuntimeError("no cell completed, so there is nothing to report")
    return statistics.median(values)


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: Dict[str, float]
    records: List[CellRecord]
    extra: Dict[str, Any] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)


# ----------------------------------------------------------------------
# Untraced runs: the end-to-end metrics
# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float,
            pins: checks.Pins) -> Outcome:
    if workload.kind == "crawl":
        return _measure_crawl(workload, seed, seconds, pins)
    return _measure_sweep(workload, seed, seconds, pins)


def _measure_crawl(workload: Workload, seed: int, seconds: float,
                   pins: checks.Pins) -> Outcome:
    seeds = cell_seeds(seed)
    host = HostSpeed()
    records: List[CellRecord] = []
    started = time.perf_counter()
    busy = 0.0
    while True:
        cell_started = time.perf_counter()
        records.append(run_cell(workload.cell(next(seeds)), pins, workload.name))
        busy += time.perf_counter() - cell_started
        host.sample()
        if time.perf_counter() - started >= seconds:
            break
    completed = [r for r in records if r.completed]
    return _scaled(host, completed, cells=len(completed), wall=busy,
                   records=records)


def _measure_sweep(workload: Workload, seed: int, seconds: float,
                   pins: checks.Pins) -> Outcome:
    seeds = cell_seeds(seed)
    jobs = sweep_jobs()
    host = HostSpeed()
    started = time.perf_counter()
    probes = []
    for _ in range(SWEEP_PROBE_CELLS):
        probes.append(run_cell(workload.cell(next(seeds)), pins, "sweep/probe"))
        host.sample()
    sweep_records: List[CellRecord] = []
    sweeping = 0.0
    while True:
        grid = tuple(itertools.islice(seeds, SWEEP_GRID_CELLS))
        sweep_started = time.perf_counter()
        sweep_records += run_sweep_grid(workload, grid, jobs, pins)[0]
        sweeping += time.perf_counter() - sweep_started
        host.sample()
        if time.perf_counter() - started >= seconds:
            break
    completed = [r for r in sweep_records if r.completed]
    outcome = _scaled(host, [r for r in probes if r.completed],
                      cells=len(completed), wall=sweeping,
                      records=probes + sweep_records)
    outcome.extra.update(jobs=jobs, children_peak_rss_mb=children_peak_rss_mb())
    return outcome


def _scaled(host: HostSpeed, timed: List[CellRecord], cells: int, wall: float,
            records: List[CellRecord]) -> Outcome:
    """End-to-end metrics from per-cell timings (``timed``) and throughput
    (``cells`` in ``wall`` seconds), in reference-speed seconds."""
    raw = {
        "setup_s": _median([r.setup_s for r in timed]),
        "crawl_s": _median([r.crawl_s for r in timed]),
        "cell_s": _median([r.cell_s for r in timed]),
        "cells_per_min": 60.0 * cells / wall,
    }
    scale = host.scale
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["cells_per_min"] = raw["cells_per_min"] / scale
    metrics["peak_rss_mb"] = _median([r.peak_rss_mb for r in timed])
    return Outcome(
        metrics=metrics,
        records=records,
        extra={"unscaled": raw, "host_scale": scale,
               "kernel_median_s": statistics.median(host.samples)},
    )


# ----------------------------------------------------------------------
# Traced runs: the per-layer metrics
# ----------------------------------------------------------------------
def trace(workload: Workload, seed: int, seconds: float,
          pins: checks.Pins) -> Outcome:
    """Run cells untraced and traced in pairs and compare their digests."""
    tracer = Tracer()
    seeds = cell_seeds(seed)
    records: List[CellRecord] = []
    untraced_s: List[float] = []
    traced_s: List[float] = []
    extra: Dict[str, Any] = {}
    pool_efficiency = 0.0
    started = time.perf_counter()
    if workload.kind == "sweep":
        jobs = sweep_jobs()
        grid = tuple(itertools.islice(seeds, 2 * jobs))
        pooled, result = run_sweep_grid(workload, grid, jobs, pins)
        records += pooled
        if result is not None:
            pool_efficiency = result.cell_wall_seconds / (jobs * result.wall_seconds)
        extra["jobs"] = jobs
    traced_cells = 0
    while True:
        if workload.kind == "crawl":
            pairs = _traced_crawl_cell(workload, next(seeds), tracer, pins)
        else:
            grid = tuple(itertools.islice(seeds, TRACED_SWEEP_CELLS))
            pairs = _traced_sweep(workload, grid, tracer, pins)
        for untraced, traced in pairs:
            if untraced.digest != traced.digest:
                traced.problems.append(
                    f"traced digest {traced.digest[:12]} != untraced "
                    f"{untraced.digest[:12]}"
                )
            traced.problems += untraced.problems
            records.append(traced)
            untraced_s.append(untraced.cell_s)
            traced_s.append(traced.cell_s)
            traced_cells += 1
        if time.perf_counter() - started >= seconds:
            break
    metrics = tracer.layer_metrics(traced_cells)
    metrics["campaign.pool_efficiency"] = pool_efficiency
    metrics["trace.overhead_ratio"] = _median(traced_s) / _median(untraced_s)
    extra["traced_cells"] = traced_cells
    extra["spans_dropped"] = tracer.dropped
    return Outcome(metrics=metrics, records=records, extra=extra, tracer=tracer)


def _traced_crawl_cell(workload: Workload, seed: int, tracer: Tracer,
                       pins: checks.Pins) -> List[Tuple[CellRecord, CellRecord]]:
    plan = workload.cell(seed)
    untraced = run_cell(plan, pins, workload.name)
    tracer.install()
    try:
        with tracer.cell(plan.cell_id):
            traced = run_cell(plan, pins, workload.name)
    finally:
        tracer.uninstall()
    return [(untraced, traced)]


def _traced_sweep(workload: Workload, grid: Tuple[int, ...], tracer: Tracer,
                  pins: checks.Pins) -> List[Tuple[CellRecord, CellRecord]]:
    untraced, plain = run_sweep_grid(workload, grid, 1, pins)
    tracer.install()
    try:
        with tracer.cell(f"sweep:{grid[0]}-{grid[-1]}"):
            traced, wrapped = run_sweep_grid(workload, grid, 1, pins)
    finally:
        tracer.uninstall()
    if plain is not None and wrapped is not None:
        if checks.digest(plain.report) != checks.digest(wrapped.report):
            traced[0].problems.append("traced sweep report differs from untraced")
    return list(zip(untraced, traced))

"""Span tracing around the public calls into each layer of ``repro``.

The traced run replaces selected functions and methods with thin wrappers,
runs a campaign, and puts the originals back.  Nothing under ``src/repro``
knows about it.  Each wrapper keeps a stack of open spans, so a span's
*self time* is its duration minus the time of the wrapped calls it made.

Two kinds of probe:

- *recorded* probes (world build, crawl, lookups, analysis, ...) keep every
  span -- name, start, end, parent span and cell id -- in memory until the
  run writes them out;
- *hot* probes (codecs, routing, tracker announces, swarm queries) are
  aggregated in place: call count, total and self time, a bounded latency
  reservoir and a probe-specific counter.  Their spans are not kept.

Module-level functions are patched in every ``repro`` module that holds
them by name (``repro.tracker.protocol`` imports ``bencode`` by name, for
example), methods are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

# Latency samples kept per probe (reservoir), enough for a p99 with ~40
# samples beyond it.
RESERVOIR = 4096
# Recorded spans kept per run; later spans are counted as dropped.
MAX_SPANS = 500_000
# The root span of one campaign cell; not a layer, so not a metric.
CELL_SPAN = "cell"


def _failure_bytes(args: tuple, result: Any, token: Any) -> int:
    return int(b"14:failure reason" in result[:32])


def _peer_count(args: tuple, result: Any, token: Any) -> int:
    return len(result.peers)


def _result_len(args: tuple, result: Any, token: Any) -> int:
    return len(result)


def _input_len(args: tuple, result: Any, token: Any) -> int:
    return len(args[0])


def _delivered(args: tuple, result: Any, token: Any) -> int:
    return int(result is not None)


def _has_peers(args: tuple, result: Any, token: Any) -> int:
    return int(bool(result.peers))


def _events_before(args: tuple) -> int:
    return args[0].events_run


def _events_run(args: tuple, result: Any, token: int) -> int:
    return args[0].events_run - token


@dataclass(frozen=True)
class Probe:
    """One wrapped call: metric prefix, owner (``module`` or
    ``module:Class``), attribute, and how to count its work."""

    name: str
    owner: str
    attr: str
    hot: bool = False
    # Counter fed after each successful call: (args, result, token) -> int.
    count: Optional[Callable[[tuple, Any, Any], int]] = None
    # Taken before the call and handed to ``count`` as ``token``.
    before: Optional[Callable[[tuple], Any]] = None


PROBES: Tuple[Probe, ...] = (
    Probe("simulation.world.build", "repro.simulation.world:World", "build"),
    Probe("torrent.build_torrent", "repro.torrent.metainfo", "build_torrent"),
    Probe("dht.network.build", "repro.dht.network:DhtNetwork", "build"),
    Probe("tracker.announce", "repro.tracker.server:Tracker", "announce",
          hot=True, count=_failure_bytes),
    Probe("tracker.announce_object", "repro.tracker.server:Tracker",
          "announce_object", hot=True),
    Probe("tracker.protocol.decode_announce_response", "repro.tracker.protocol",
          "decode_announce_response", hot=True),
    Probe("swarm.query", "repro.swarm.swarm:Swarm", "query", hot=True,
          count=_peer_count),
    Probe("peerwire.probe", "repro.peerwire.client:BitfieldProber", "probe"),
    Probe("bencode.bencode", "repro.bencode.codec", "bencode", hot=True,
          count=_result_len),
    Probe("bencode.bdecode", "repro.bencode.codec", "bdecode", hot=True,
          count=_input_len),
    Probe("core.dht_crawler.lookup", "repro.core.dht_crawler:DhtCrawler",
          "lookup", count=_has_peers),
    Probe("dht.network.send", "repro.dht.network:DhtNetwork", "send",
          hot=True, count=_delivered),
    Probe("dht.node.handle_query", "repro.dht.node:DhtNode", "handle_query",
          hot=True),
    Probe("dht.node.peers_for", "repro.dht.node:DhtNode", "peers_for", hot=True),
    Probe("dht.routing.closest", "repro.dht.routing:RoutingTable", "closest",
          hot=True),
    Probe("dht.routing.observe", "repro.dht.routing:RoutingTable", "observe",
          hot=True),
    Probe("dht.krpc.encode_query", "repro.dht.krpc", "encode_query", hot=True),
    Probe("dht.krpc.decode_message", "repro.dht.krpc", "decode_message",
          hot=True),
    Probe("simulation.engine.run_until",
          "repro.simulation.engine:EventScheduler", "run_until",
          count=_events_run, before=_events_before),
    Probe("portal.get_torrent_file", "repro.portal.portal:Portal",
          "get_torrent_file"),
    Probe("portal.get_magnet", "repro.portal.portal:Portal", "get_magnet"),
    Probe("portal.entries_between", "repro.portal.rss:RssFeed",
          "entries_between"),
    Probe("core.analysis.headline_stats", "repro.campaign.runner",
          "headline_stats"),
    Probe("observability.snapshot", "repro.observability.metrics:MetricsRegistry",
          "snapshot"),
    Probe("campaign.aggregate_results", "repro.campaign.aggregate",
          "aggregate_results"),
    Probe("stats.bootstrap_ci", "repro.stats.bootstrap", "bootstrap_ci"),
)

# The cell root inside a sweep: wrapped only to open the ``cell`` span and
# tag its descendants with the cell id.
_CELL_PROBE = Probe(CELL_SPAN, "repro.campaign.runner", "run_campaign_cell")


class CallStats:
    """Aggregate of one probe's calls over a run."""

    __slots__ = ("calls", "total_s", "self_s", "failed", "work", "samples",
                 "_rng")

    def __init__(self, name: str) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.work = 0
        self.samples: List[float] = []
        self._rng = random.Random(name)

    def add(self, duration: float, self_time: float) -> None:
        self.calls += 1
        self.total_s += duration
        self.self_s += self_time
        if len(self.samples) < RESERVOIR:
            self.samples.append(duration)
        else:
            slot = self._rng.randrange(self.calls)
            if slot < RESERVOIR:
                self.samples[slot] = duration

    def quantile_us(self, q: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs the probes, collects spans and per-probe aggregates."""

    def __init__(self) -> None:
        self.stats: Dict[str, CallStats] = {
            probe.name: CallStats(probe.name) for probe in PROBES + (_CELL_PROBE,)
        }
        self.spans: List[Tuple[int, Optional[int], str, float, float, str]] = []
        self.dropped = 0
        self.cell_id = ""
        self._next_id = 0
        # Open spans: [child seconds, id of the nearest recorded span].
        self._stack: List[List[Any]] = []
        # (container, attribute, original) per patched binding.
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, recorded: bool) -> Tuple[List[Any], Optional[int]]:
        stack = self._stack
        parent = stack[-1][1] if stack else None
        if recorded:
            self._next_id += 1
            frame = [0.0, self._next_id]
        else:
            frame = [0.0, parent]
        stack.append(frame)
        return frame, parent

    def _close(self, name: str, frame: List[Any], parent: Optional[int],
               start: float, end: float, recorded: bool) -> CallStats:
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        stats = self.stats[name]
        stats.add(duration, duration - frame[0])
        if recorded:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (frame[1], parent, name, start, end, self.cell_id)
                )
            else:
                self.dropped += 1
        return stats

    def cell(self, cell_id: str) -> "_CellSpan":
        """Context manager: the root span of one campaign cell."""
        return _CellSpan(self, cell_id)

    def _wrap(self, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
        perf = time.perf_counter
        recorded = not probe.hot
        count, before, name = probe.count, probe.before, probe.name

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            frame, parent = self._open(recorded)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, frame, parent, start, perf(), recorded).failed += 1
                raise
            stats = self._close(name, frame, parent, start, perf(), recorded)
            if count is not None:
                stats.work += count(args, result, token)
            return result

        if probe is not _CELL_PROBE:
            return traced

        @functools.wraps(fn)
        def traced_cell(cell: Any) -> Any:
            outer, self.cell_id = self.cell_id, f"{cell.scenario}:{cell.seed}"
            try:
                return traced(cell)
            finally:
                self.cell_id = outer

        return traced_cell

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for probe in PROBES + (_CELL_PROBE,):
            owner = _resolve(probe.owner)
            if isinstance(owner, type):
                self._patch_method(owner, probe)
            else:
                self._patch_function(getattr(owner, probe.attr), probe)

    def _patch_method(self, cls: type, probe: Probe) -> None:
        original = cls.__dict__[probe.attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self._wrap(probe, original.__func__))
        else:
            replacement = self._wrap(probe, original)
        setattr(cls, probe.attr, replacement)
        self._patched.append((cls, probe.attr, original))

    def _patch_function(self, original: Callable[..., Any], probe: Probe) -> None:
        replacement = self._wrap(probe, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = replacement
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every original back and check that each one is back."""
        patched, self._patched = self._patched, []
        for container, attr, original in reversed(patched):
            setattr(container, attr, original)
        for container, attr, original in patched:
            if vars(container).get(attr) is not original:
                raise RuntimeError(
                    f"tracer failed to restore {container!r}.{attr}"
                )
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_metrics(self, cells: int) -> Dict[str, float]:
        """Per-probe metrics, per traced cell: calls, self seconds, p50/p99
        latency, plus the work ratios of the layers that have one."""
        per_cell = 1.0 / max(cells, 1)
        out: Dict[str, float] = {}
        for probe in PROBES:
            stats = self.stats[probe.name]
            out[f"{probe.name}.calls"] = stats.calls * per_cell
            out[f"{probe.name}.self_s"] = stats.self_s * per_cell
            out[f"{probe.name}.p50_us"] = stats.quantile_us(0.50)
            out[f"{probe.name}.p99_us"] = stats.quantile_us(0.99)
        s = self.stats
        announces = s["tracker.announce"].calls + s["tracker.announce_object"].calls
        announce_failures = (
            s["tracker.announce"].work + s["tracker.announce"].failed
            + s["tracker.announce_object"].failed
        )
        lookups = s["core.dht_crawler.lookup"]
        sends = s["dht.network.send"]
        out["tracker.announce.failed_ratio"] = _ratio(announce_failures, announces)
        out["swarm.query.peers_per_query"] = _ratio(
            s["swarm.query"].work, s["swarm.query"].calls
        )
        out["bencode.bytes"] = (
            s["bencode.bencode"].work + s["bencode.bdecode"].work
        ) * per_cell
        out["core.dht_crawler.lookup.useful_ratio"] = _ratio(
            lookups.work, lookups.calls
        )
        out["core.dht_crawler.lookup.rpcs_per_lookup"] = _ratio(
            sends.calls, lookups.calls
        )
        out["dht.network.send.delivered_ratio"] = _ratio(sends.work, sends.calls)
        out["simulation.engine.run_until.events"] = (
            s["simulation.engine.run_until"].work * per_cell
        )
        return out

    def span_records(self) -> List[Dict[str, Any]]:
        return [
            {"id": span_id, "parent": parent, "name": name, "start": start,
             "end": end, "cell": cell}
            for span_id, parent, name, start, end, cell in self.spans
        ]


class _CellSpan:
    def __init__(self, tracer: Tracer, cell_id: str) -> None:
        self._tracer = tracer
        self._cell_id = cell_id

    def __enter__(self) -> None:
        self._tracer.cell_id = self._cell_id
        self._frame, self._parent = self._tracer._open(True)
        self._start = time.perf_counter()

    def __exit__(self, *exc: Any) -> None:
        self._tracer._close(CELL_SPAN, self._frame, self._parent, self._start,
                            time.perf_counter(), True)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metric_names() -> List[str]:
    """Every per-layer metric name the traced run reports, in order."""
    return list(Tracer().layer_metrics(1)) + [
        "campaign.pool_efficiency",
        "trace.overhead_ratio",
    ]

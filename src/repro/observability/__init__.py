"""Observability: metrics registry + trace-event ring buffer.

Usage::

    from repro.observability import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("crawler.announces").inc(outcome="ok")
    registry.histogram("tracker.response_bytes").observe(412)
    with registry.timer("report.build_wall_ms"):
        ...
    print(registry.to_json(indent=2))

There is no process-global registry.  Every component that records
metrics takes its run's registry as a required ``metrics=`` argument, and
the campaign entry points (:func:`repro.core.collector.run_measurement`)
create a fresh one per run, so runs never bleed into each other and
same-seed snapshots stay byte-identical.  Each count lives in the registry
once; derived views such as ``Dataset.crawler_stats`` are read off its
snapshot.
"""

from __future__ import annotations

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    Timer,
    merge_snapshots,
)
from repro.observability.tracing import TraceBuffer, TraceEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "Timer",
    "TraceBuffer",
    "TraceEvent",
    "merge_snapshots",
]

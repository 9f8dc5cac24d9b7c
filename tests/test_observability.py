"""Unit tests for the observability layer itself.

Histogram quantiles are checked against known distributions, labels against
the usual split/aggregate semantics, snapshots against mutation leaks, and
the trace ring buffer against its overflow contract.
"""

import json

import pytest

from repro.observability import (
    MetricsError,
    merge_snapshots,
    MetricsRegistry,
    TraceBuffer,
)


class TestCounter:
    def test_basic_increment(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_split_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("announces")
        counter.inc(outcome="ok")
        counter.inc(outcome="ok")
        counter.inc(outcome="failure")
        assert counter.value(outcome="ok") == 2
        assert counter.value(outcome="failure") == 1
        assert counter.value(outcome="missing") == 0
        assert counter.total() == 3

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(a=1, b=2)
        counter.inc(b=2, a=1)
        assert counter.value(a=1, b=2) == 2

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError, match="cannot decrease"):
            registry.counter("c").inc(-1)

    def test_same_instrument_returned(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(MetricsError, match="already registered"):
            registry.histogram("x")


class TestGauge:
    def test_set_add_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value() == 7
        gauge.set(2, shard="a")
        assert gauge.value(shard="a") == 2
        assert gauge.value() == 7  # unlabeled value untouched


class TestHistogram:
    def test_quantiles_uniform_known(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in range(1, 101):  # 1..100 uniformly
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == 50
        assert summary["p90"] == 90
        assert summary["p99"] == 99

    def test_quantiles_constant_distribution(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for _ in range(1000):
            histogram.observe(42.0)
        summary = histogram.summary()
        assert summary["p50"] == summary["p90"] == summary["p99"] == 42.0
        assert summary["sum"] == pytest.approx(42000.0)

    def test_quantiles_survive_decimation(self):
        """Exact count/sum and ~exact quantiles with bounded sample memory."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h", max_samples=256)
        n = 100_000
        for value in range(n):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == n  # exact despite decimation
        assert summary["sum"] == pytest.approx(n * (n - 1) / 2)
        # Retained samples are a stride-subsample; quantiles stay within a
        # few percent of truth.
        assert summary["p50"] == pytest.approx(n / 2, rel=0.05)
        assert summary["p90"] == pytest.approx(0.9 * n, rel=0.05)

    def test_labels(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(1.0, phase="a")
        histogram.observe(3.0, phase="a")
        histogram.observe(100.0, phase="b")
        assert histogram.count(phase="a") == 2
        assert histogram.summary(phase="a")["mean"] == 2.0
        assert histogram.summary(phase="b")["max"] == 100.0
        assert histogram.summary()["count"] == 0  # unlabeled is its own series

    def test_empty_summary(self):
        registry = MetricsRegistry()
        assert registry.histogram("h").summary() == {"count": 0}


class TestTimers:
    def test_wall_timer_marks_histogram_wall(self):
        registry = MetricsRegistry()
        with registry.timer("elapsed_ms"):
            pass
        assert registry.histogram("elapsed_ms").wall is True
        assert registry.histogram("elapsed_ms").count() == 1
        # Wall instruments vanish from deterministic snapshots.
        assert "elapsed_ms" not in registry.snapshot(include_wall=False)
        assert "elapsed_ms" in registry.snapshot(include_wall=True)


class TestSnapshot:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(outcome="ok")
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        with registry.timer("w"):
            pass
        return registry

    def test_snapshot_isolation(self):
        """Mutating a snapshot must never touch the live registry."""
        registry = self._populated()
        snapshot = registry.snapshot()
        snapshot["c"]["values"]["outcome=ok"] = 999
        snapshot["h"]["values"][""]["count"] = 999
        assert registry.counter("c").value(outcome="ok") == 1
        assert registry.histogram("h").count() == 1
        fresh = registry.snapshot()
        assert fresh["c"]["values"]["outcome=ok"] == 1

    def test_snapshot_is_json_serialisable_and_sorted(self):
        registry = self._populated()
        text = registry.to_json(indent=2)
        parsed = json.loads(text)
        assert parsed["g"]["values"][""] == 5.0
        assert list(parsed) == sorted(parsed)

    def test_sim_only_json_excludes_wall(self):
        registry = self._populated()
        parsed = json.loads(registry.to_json(include_wall=False))
        assert "w" not in parsed
        assert set(parsed) == {"c", "g", "h"}

    def test_instrument_names_filter(self):
        registry = self._populated()
        assert registry.instrument_names() == ["c", "g", "h", "w"]
        assert registry.instrument_names(include_wall=False) == ["c", "g", "h"]

    def test_clear(self):
        registry = self._populated()
        registry.trace.record(0.0, "x")
        registry.clear()
        assert len(registry) == 0
        assert len(registry.trace) == 0


class TestTraceBuffer:
    def test_overflow_keeps_newest(self):
        buffer = TraceBuffer(capacity=8)
        for index in range(20):
            buffer.record(float(index), "tick", index=index)
        assert len(buffer) == 8
        assert buffer.recorded == 20
        assert buffer.dropped == 12
        events = buffer.events()
        assert [event.fields["index"] for event in events] == list(range(12, 20))
        assert events[0].time == 12.0  # oldest retained first

    def test_fields_and_dicts(self):
        buffer = TraceBuffer(capacity=4)
        buffer.record(1.5, "publish", torrent_id=7)
        event = buffer.events()[0]
        assert event.name == "publish"
        assert event.fields == {"torrent_id": 7}
        assert buffer.to_dicts() == [{"time": 1.5, "name": "publish", "torrent_id": 7}]

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceBuffer(capacity=0)

    def test_clear_resets_drop_accounting(self):
        buffer = TraceBuffer(capacity=2)
        for index in range(5):
            buffer.record(float(index), "tick")
        buffer.clear()
        assert buffer.dropped == 0
        assert buffer.recorded == 0


class TestMergeSnapshots:
    """merge_snapshots pools per-worker registries into one snapshot-shaped
    dict -- the primitive the parallel sweep's aggregation rests on."""

    @staticmethod
    def _worker_snapshot(counter_by_label, histogram_samples):
        registry = MetricsRegistry()
        for label_kwargs, amount in counter_by_label:
            registry.counter("jobs").inc(amount, **label_kwargs)
        for value in histogram_samples:
            registry.histogram("latency").observe(value)
        return registry.snapshot(include_wall=False, include_samples=True)

    def test_counters_sum_per_label(self):
        first = self._worker_snapshot([({"kind": "a"}, 2), ({}, 1)], [])
        second = self._worker_snapshot([({"kind": "a"}, 3), ({"kind": "b"}, 5)], [])
        merged = merge_snapshots([first, second])
        assert merged["jobs"]["values"] == {
            "": 1.0, "kind=a": 5.0, "kind=b": 5.0,
        }

    def test_gauges_sum(self):
        registries = [MetricsRegistry(), MetricsRegistry()]
        registries[0].gauge("inflight").set(3.0)
        registries[1].gauge("inflight").set(4.0)
        merged = merge_snapshots([r.snapshot() for r in registries])
        assert merged["inflight"]["values"][""] == 7.0

    def test_histograms_pool_exactly(self):
        first = self._worker_snapshot([], [1.0, 9.0])
        second = self._worker_snapshot([], [2.0, 4.0, 100.0])
        merged = merge_snapshots([first, second])
        pooled = merged["latency"]["values"][""]
        assert pooled["count"] == 5
        assert pooled["sum"] == 116.0
        assert pooled["min"] == 1.0 and pooled["max"] == 100.0
        assert pooled["mean"] == pytest.approx(23.2)
        # Quantiles recomputed from the pooled samples, not averaged
        # per-worker summaries: the pooled p90 is 100, which no
        # summary-averaging scheme would produce.
        assert pooled["p50"] == 4.0
        assert pooled["p90"] == 100.0

    def test_quantiles_dropped_without_samples(self):
        registry = MetricsRegistry()
        registry.histogram("latency").observe(5.0)
        sampleless = registry.snapshot(include_samples=False)
        merged = merge_snapshots([sampleless, sampleless])
        pooled = merged["latency"]["values"][""]
        assert pooled["count"] == 2
        assert "p50" not in pooled

    def test_type_conflict_raises(self):
        first = MetricsRegistry()
        first.counter("thing").inc()
        second = MetricsRegistry()
        second.gauge("thing").set(1.0)
        with pytest.raises(MetricsError, match="thing"):
            merge_snapshots([first.snapshot(), second.snapshot()])

    def test_merge_is_order_stable_and_snapshot_shaped(self):
        first = self._worker_snapshot([({"kind": "a"}, 1)], [3.0])
        second = self._worker_snapshot([({"kind": "b"}, 2)], [8.0])
        merged = merge_snapshots([first, second])
        again = merge_snapshots([first, second])
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
        assert list(merged) == sorted(merged)
        for entry in merged.values():
            assert set(entry) >= {"type", "values"}

    def test_empty_merge(self):
        assert merge_snapshots([]) == {}

    def test_wall_flag_survives_merge(self):
        registry = MetricsRegistry()
        with registry.timer("wall_op"):
            pass
        merged = merge_snapshots([registry.snapshot(include_wall=True)])
        assert merged["wall_op"].get("wall") is True


class TestBoundHandles:
    """``labels(**labels)`` handles must share state with the kwargs API --
    they are a call-overhead optimisation, never a separate namespace."""

    def test_counter_handle_shares_state_with_kwargs(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        handle = counter.labels(result="ok")
        handle.inc()
        counter.inc(2.0, result="ok")
        assert handle.value() == 3.0
        assert counter.value(result="ok") == 3.0

    def test_counter_handle_is_cached(self):
        counter = MetricsRegistry().counter("c")
        assert counter.labels(a="x") is counter.labels(a="x")
        assert counter.labels(a="x") is not counter.labels(a="y")

    def test_counter_handle_rejects_negative(self):
        handle = MetricsRegistry().counter("c").labels()
        with pytest.raises(MetricsError):
            handle.inc(-1)

    def test_gauge_handle_set_add_value(self):
        gauge = MetricsRegistry().gauge("g")
        handle = gauge.labels(kind="depth")
        handle.set(5)
        handle.add(2)
        assert handle.value() == 7.0
        assert gauge.value(kind="depth") == 7.0
        gauge.set(1.0, kind="depth")
        assert handle.value() == 1.0

    def test_histogram_handle_shares_state_with_kwargs(self):
        histogram = MetricsRegistry().histogram("h")
        handle = histogram.labels(stage="crawl")
        handle.observe(1.0)
        histogram.observe(3.0, stage="crawl")
        handle.observe(5.0)
        assert handle.count() == 3
        summary = histogram.summary(stage="crawl")
        assert summary["count"] == 3
        assert summary["sum"] == 9.0

    def test_unobserved_histogram_handle_absent_from_snapshot(self):
        # Binding must be lazy: a handle that never observes must not leak
        # a `count: 0` series into snapshots (bit-identity with kwargs API).
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.labels(stage="never_used")
        histogram.observe(1.0, stage="used")
        series = registry.snapshot()["h"]["values"]
        assert list(series) == ["stage=used"]

    def test_label_order_irrelevant_for_handles(self):
        counter = MetricsRegistry().counter("c")
        counter.labels(a="1", b="2").inc()
        assert counter.labels(b="2", a="1").value() == 1.0

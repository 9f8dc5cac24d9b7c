"""Unit tests for the clock and event scheduler."""

import pytest

from repro.observability import MetricsRegistry
from repro.simulation.clock import DAY, HOUR, MINUTE, WEEK, Clock, days, hours, minutes
from repro.simulation.engine import WALL_SAMPLE_INTERVAL, EventScheduler


class TestClock:
    def test_constants(self):
        assert MINUTE == 1.0
        assert HOUR == 60.0
        assert DAY == 1440.0
        assert WEEK == 7 * 1440.0
        assert hours(2) == 120.0
        assert days(1) == 1440.0
        assert minutes(5) == 5.0

    def test_advance(self):
        clock = Clock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_no_backwards(self):
        clock = Clock(start=5.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(4.0)


class TestScheduler:
    def test_runs_in_time_order(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        order = []
        scheduler.schedule(10.0, order.append, "b")
        scheduler.schedule(5.0, order.append, "a")
        scheduler.schedule(20.0, order.append, "c")
        scheduler.run_until(100.0)
        assert order == ["a", "b", "c"]
        assert scheduler.clock.now == 100.0

    def test_ties_run_in_schedule_order(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        order = []
        for tag in ("first", "second", "third"):
            scheduler.schedule(7.0, order.append, tag)
        scheduler.run_until(7.0)
        assert order == ["first", "second", "third"]

    def test_run_until_stops_at_boundary(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        fired = []
        scheduler.schedule(5.0, fired.append, 1)
        scheduler.schedule(15.0, fired.append, 2)
        scheduler.run_until(10.0)
        assert fired == [1]
        assert scheduler.pending() == 1
        scheduler.run_until(20.0)
        assert fired == [1, 2]

    def test_callbacks_can_reschedule(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        ticks = []

        def tick():
            ticks.append(scheduler.clock.now)
            if scheduler.clock.now < 50.0:
                scheduler.schedule_after(10.0, tick)

        scheduler.schedule(0.0, tick)
        scheduler.run_until(100.0)
        assert ticks == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]

    def test_schedule_in_past_rejected(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        scheduler.schedule(10.0, lambda: None)
        scheduler.run_until(10.0)
        with pytest.raises(ValueError, match="before now"):
            scheduler.schedule(5.0, lambda: None)

    def test_schedule_after_negative_rejected(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        with pytest.raises(ValueError):
            scheduler.schedule_after(-1.0, lambda: None)

    def test_events_run_counter(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        for i in range(5):
            scheduler.schedule(float(i), lambda: None)
        scheduler.run_until(10.0)
        assert scheduler.events_run == 5


class TestNonFiniteTimes:
    """NaN compares false against everything, so without an explicit guard
    ``schedule(float('nan'))`` slips past the past-time check and corrupts
    the heap's ordering invariant.  Non-finite times must be rejected."""

    def test_nan_rejected(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        with pytest.raises(ValueError, match="non-finite"):
            scheduler.schedule(float("nan"), lambda: None)

    def test_inf_rejected(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                scheduler.schedule(bad, lambda: None)

    def test_nan_delay_rejected(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        with pytest.raises(ValueError, match="finite"):
            scheduler.schedule_after(float("nan"), lambda: None)
        with pytest.raises(ValueError, match="finite"):
            scheduler.schedule_after(float("inf"), lambda: None)

    def test_heap_stays_ordered_after_rejection(self):
        scheduler = EventScheduler(metrics=MetricsRegistry())
        order = []
        scheduler.schedule(2.0, order.append, "b")
        with pytest.raises(ValueError):
            scheduler.schedule(float("nan"), order.append, "poison")
        scheduler.schedule(1.0, order.append, "a")
        scheduler.run_until(10.0)
        assert order == ["a", "b"]


class TestSchedulerMetrics:
    def test_events_and_heap_depth_instrumented(self):
        registry = MetricsRegistry()
        scheduler = EventScheduler(metrics=registry)
        for i in range(4):
            scheduler.schedule(float(i), lambda: None)
        scheduler.run_until(10.0)
        assert registry.counter("engine.events_run").value() == 4
        assert registry.histogram("engine.heap_depth").count() == 4
        # Depth was 4 when the first event popped, then 3, 2, 1.
        assert registry.histogram("engine.heap_depth").summary()["max"] == 4
        assert registry.gauge("engine.sim_time_minutes").value() == 10.0

    def test_callback_wall_timing_labeled(self):
        registry = MetricsRegistry()
        scheduler = EventScheduler(metrics=registry)

        def named_callback():
            pass

        # Two full sampling periods -> exactly two timed callbacks.
        for i in range(2 * WALL_SAMPLE_INTERVAL):
            scheduler.schedule(float(i), named_callback)
        scheduler.run_until(100.0)
        histogram = registry.histogram("engine.callback_wall_ms")
        assert histogram.wall is True
        label = "TestSchedulerMetrics.test_callback_wall_timing_labeled.<locals>.named_callback"
        assert histogram.count(callback=label) == 2

    def test_callback_wall_timing_sampled_by_default(self):
        registry = MetricsRegistry()
        scheduler = EventScheduler(metrics=registry)

        def named_callback():
            pass

        for i in range(48):
            scheduler.schedule(float(i), named_callback)
        scheduler.run_until(100.0)
        histogram = registry.histogram("engine.callback_wall_ms")
        label = (
            "TestSchedulerMetrics.test_callback_wall_timing_sampled_by_default"
            ".<locals>.named_callback"
        )
        # 48 events at 1-in-16 -> exactly 3 wall observations; every event
        # still counts in the sim-domain instruments.
        assert histogram.count(callback=label) == 3
        assert registry.counter("engine.events_run").value() == 48
        assert registry.histogram("engine.heap_depth").count() == 48

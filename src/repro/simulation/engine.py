"""Minimal deterministic discrete-event scheduler.

Events are ``(time, seq, callback, args)`` tuples on a binary heap; ``seq``
breaks ties so same-time events run in scheduling order, which keeps whole
simulations bit-for-bit reproducible from a seed.

Callbacks may schedule further events (that is how the crawler's periodic
tracker polling sustains itself).

The scheduler is instrumented through a
:class:`~repro.observability.MetricsRegistry`:

- ``engine.events_run`` (counter, sim): callbacks executed;
- ``engine.heap_depth`` (histogram, sim): pending-queue depth observed at
  every pop -- the campaign's backlog profile;
- ``engine.sim_time_minutes`` (gauge, sim): the clock after the last run;
- ``engine.callback_wall_ms`` (histogram, wall, labeled by callback):
  real time spent inside each callback kind -- the "where does campaign
  time go?" number.  Wall timings are inherently nondeterministic and are
  excluded from deterministic snapshots, so they are sampled 1-in-
  :data:`WALL_SAMPLE_INTERVAL`: ``perf_counter`` runs twice per sampled
  event, not twice per event.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from typing import Any, Callable, List, Optional, Tuple

from repro.observability import MetricsRegistry
from repro.simulation.clock import Clock

# Every 16th callback is wall-timed.
WALL_SAMPLE_INTERVAL = 16


def _callback_label(callback: Callable[..., None]) -> str:
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = type(callback).__name__
    return name


class EventScheduler:
    """Run callbacks at simulated times, in time order."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        *,
        metrics: MetricsRegistry,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.metrics = metrics
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        self._m_events = self.metrics.counter("engine.events_run").labels()
        self._m_depth = self.metrics.histogram("engine.heap_depth").labels()
        self._m_sim_time = self.metrics.gauge("engine.sim_time_minutes").labels()
        self._m_callback = self.metrics.histogram("engine.callback_wall_ms", wall=True)
        # Bound per-callback-label handles, resolved once per callback kind.
        self._callback_handles: dict = {}
        self._wall_tick = 0

    @property
    def events_run(self) -> int:
        return int(self._m_events.value())

    def schedule(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at simulated ``time``.

        Scheduling in the past is an error: it means a component computed a
        stale timestamp, which would silently reorder causality.  NaN and
        infinite times are rejected explicitly -- NaN compares false against
        everything, so it would slip past the past-time guard and poison the
        heap's ordering invariant.
        """
        if not math.isfinite(time):
            raise ValueError(f"cannot schedule at non-finite time {time!r}")
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule at {time:.2f} before now={self.clock.now:.2f}"
            )
        heapq.heappush(self._heap, (time, next(self._seq), callback, args))

    def schedule_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        if not math.isfinite(delay) or delay < 0:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        self.schedule(self.clock.now + delay, callback, *args)

    def _dispatch(self, time: float, callback: Callable[..., None], args: tuple) -> None:
        """Advance the clock, run one callback, account for it."""
        self._m_depth.observe(len(self._heap) + 1)
        self.clock.advance_to(time)
        self._wall_tick += 1
        if self._wall_tick >= WALL_SAMPLE_INTERVAL:
            self._wall_tick = 0
            started = _time.perf_counter()
            callback(*args)
            elapsed_ms = (_time.perf_counter() - started) * 1000.0
            label = _callback_label(callback)
            handle = self._callback_handles.get(label)
            if handle is None:
                handle = self._callback_handles[label] = self._m_callback.labels(
                    callback=label
                )
            handle.observe(elapsed_ms)
        else:
            callback(*args)
        self._m_events.inc()

    def run_until(self, end_time: float) -> None:
        """Run all events with time <= end_time, then advance the clock to it."""
        while self._heap and self._heap[0][0] <= end_time:
            time, _seq, callback, args = heapq.heappop(self._heap)
            self._dispatch(time, callback, args)
        self.clock.advance_to(max(self.clock.now, end_time))
        self._m_sim_time.set(self.clock.now)

    def pending(self) -> int:
        return len(self._heap)

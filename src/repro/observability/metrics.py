"""Dependency-free metrics: counters, gauges, histograms, labeled timers.

The registry is the campaign's flight recorder.  Every subsystem of the
reproduction (engine, crawler, tracker, swarms, portal) increments
instruments here so a run can answer "where did the time go?" and "did this
change alter what the crawler observed?" without re-deriving anything from
the dataset.

Two clock domains coexist and must never be mixed:

- **sim** instruments are driven purely by simulated state (event counts,
  simulated timestamps read from :class:`~repro.simulation.clock.Clock`,
  response sizes).  Given one seed they are bit-for-bit reproducible, so
  ``to_json(include_wall=False)`` of two same-seed runs compares equal and
  the determinism regression test can guard the instrumentation itself.
- **wall** instruments (``wall=True`` histograms, :meth:`MetricsRegistry.timer`)
  read ``time.perf_counter`` and carry the real performance numbers; they are
  excluded from deterministic snapshots.

Instruments are labeled: ``counter.inc(outcome="ok")`` keeps one value per
distinct label set, like every mainstream metrics facade, but with zero
third-party dependencies and a deterministic serialisation order.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.observability.tracing import TraceBuffer

LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(ValueError):
    """Raised on instrument misuse (type conflicts, bad values)."""


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical hashable form of a label set (sorted, stringified)."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_string(key: LabelKey) -> str:
    """Human/JSON form of a label key: ``"a=1,b=x"`` (``""`` if unlabeled)."""
    return ",".join(f"{k}={v}" for k, v in key)


class _Instrument:
    """Common name/label plumbing for all instrument kinds."""

    kind = "instrument"

    def __init__(self, name: str) -> None:
        if not name:
            raise MetricsError("instrument name must be non-empty")
        self.name = name

    def snapshot_values(
        self, include_samples: bool = False
    ) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError


class _BoundCounter:
    """A counter pre-resolved to one label set (hot-path handle).

    Created via :meth:`Counter.labels`; skips the per-call ``_label_key``
    sort/stringify and writes straight into the parent's value table, so a
    bound ``inc()`` is a dict update and nothing else.
    """

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: LabelKey) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self._counter.name!r} cannot decrease "
                f"(amount={amount})"
            )
        values = self._counter._values
        values[self._key] = values.get(self._key, 0.0) + amount

    def value(self) -> float:
        return self._counter._values.get(self._key, 0.0)


class Counter(_Instrument):
    """Monotonically increasing count, one value per label set."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._values: Dict[LabelKey, float] = {}
        self._bound: Dict[LabelKey, _BoundCounter] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def labels(self, **labels: Any) -> _BoundCounter:
        """A bound handle for this label set; shares state with ``inc``."""
        key = _label_key(labels)
        handle = self._bound.get(key)
        if handle is None:
            handle = self._bound[key] = _BoundCounter(self, key)
        return handle

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def snapshot_values(self, include_samples: bool = False) -> Dict[str, Any]:
        return {
            _label_string(key): self._values[key]
            for key in sorted(self._values)
        }


class _BoundGauge:
    """A gauge pre-resolved to one label set (hot-path handle)."""

    __slots__ = ("_gauge", "_key")

    def __init__(self, gauge: "Gauge", key: LabelKey) -> None:
        self._gauge = gauge
        self._key = key

    def set(self, value: float) -> None:
        self._gauge._values[self._key] = float(value)

    def add(self, amount: float) -> None:
        values = self._gauge._values
        values[self._key] = values.get(self._key, 0.0) + amount

    def value(self) -> float:
        return self._gauge._values.get(self._key, 0.0)


class Gauge(_Instrument):
    """A value that can move both ways (heap depth, watchlist size...)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._values: Dict[LabelKey, float] = {}
        self._bound: Dict[LabelKey, _BoundGauge] = {}

    def labels(self, **labels: Any) -> _BoundGauge:
        """A bound handle for this label set; shares state with ``set``."""
        key = _label_key(labels)
        handle = self._bound.get(key)
        if handle is None:
            handle = self._bound[key] = _BoundGauge(self, key)
        return handle

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def snapshot_values(self, include_samples: bool = False) -> Dict[str, Any]:
        return {
            _label_string(key): self._values[key]
            for key in sorted(self._values)
        }


class _HistogramState:
    """Per-label-set accumulation with a bounded, deterministic sample set.

    count/sum/min/max are exact.  Quantiles come from retained samples; once
    ``max_samples`` observations are held the sample list is decimated (every
    second sample kept) and the retention stride doubles, so memory stays
    bounded and the retained set depends only on the observation sequence --
    never on wall time or randomness.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "samples", "stride")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.samples: List[float] = []
        self.stride = 1

    def observe(self, value: float, max_samples: int) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if (self.count - 1) % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) >= max_samples:
                self.samples = self.samples[::2]
                self.stride *= 2

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained samples."""
        return _nearest_rank(self.samples, q)

    def summary(self, include_samples: bool = False) -> Dict[str, Any]:
        if self.count == 0:
            return {"count": 0, "samples": []} if include_samples else {"count": 0}
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }
        if include_samples:
            out["samples"] = list(self.samples)
        return out


def _nearest_rank(samples: List[float], q: float) -> float:
    """Nearest-rank quantile over an (unsorted) retained-sample list."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(int(q * len(ordered) + 0.5), 1)
    return ordered[min(rank, len(ordered)) - 1]


class _BoundHistogram:
    """A histogram pre-resolved to one label set (hot-path handle).

    After the first ``observe`` the handle holds its
    :class:`_HistogramState` directly, so subsequent calls go straight to
    the accumulator without a key lookup.  The state is materialised
    lazily: binding a label set that is never observed must not add a
    ``count: 0`` entry to snapshots (that would break snapshot
    bit-identity with the kwargs API).
    """

    __slots__ = ("_histogram", "_key", "_state")

    def __init__(self, histogram: "Histogram", key: LabelKey) -> None:
        self._histogram = histogram
        self._key = key
        self._state: Optional[_HistogramState] = None

    def observe(self, value: float) -> None:
        state = self._state
        if state is None:
            states = self._histogram._states
            state = states.get(self._key)
            if state is None:
                state = states[self._key] = _HistogramState()
            self._state = state
        state.observe(float(value), self._histogram.max_samples)

    def count(self) -> int:
        state = self._state
        if state is None:
            state = self._histogram._states.get(self._key)
        return state.count if state is not None else 0


class Histogram(_Instrument):
    """Distribution summary (count/sum/min/max/mean + p50/p90/p99)."""

    kind = "histogram"
    DEFAULT_MAX_SAMPLES = 4096

    def __init__(
        self, name: str, wall: bool = False, max_samples: int = DEFAULT_MAX_SAMPLES
    ) -> None:
        super().__init__(name)
        if max_samples < 2:
            raise MetricsError("max_samples must be >= 2")
        self.wall = wall
        self.max_samples = max_samples
        self._states: Dict[LabelKey, _HistogramState] = {}
        self._bound: Dict[LabelKey, _BoundHistogram] = {}

    def labels(self, **labels: Any) -> _BoundHistogram:
        """A bound handle for this label set; shares state with ``observe``."""
        key = _label_key(labels)
        handle = self._bound.get(key)
        if handle is None:
            handle = self._bound[key] = _BoundHistogram(self, key)
        return handle

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _HistogramState()
        state.observe(float(value), self.max_samples)

    def count(self, **labels: Any) -> int:
        state = self._states.get(_label_key(labels))
        return state.count if state is not None else 0

    def summary(self, **labels: Any) -> Dict[str, Any]:
        state = self._states.get(_label_key(labels))
        return state.summary() if state is not None else {"count": 0}

    def snapshot_values(self, include_samples: bool = False) -> Dict[str, Any]:
        return {
            _label_string(key): self._states[key].summary(
                include_samples=include_samples
            )
            for key in sorted(self._states)
        }


class Timer:
    """Context manager that observes elapsed wall milliseconds into a
    ``wall`` histogram."""

    __slots__ = ("_histogram", "_labels", "_start")

    def __init__(self, histogram: Histogram, labels: Dict[str, Any]) -> None:
        self._histogram = histogram
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        elapsed_ms = (time.perf_counter() - self._start) * 1000.0
        self._histogram.observe(elapsed_ms, **self._labels)


class MetricsRegistry:
    """All instruments of one run, plus the trace ring buffer.

    Instruments are created on first use and looked up by name thereafter;
    requesting an existing name as a different kind is an error (it would
    silently split one metric into two).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self.trace = TraceBuffer()

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def _get(self, name: str, kind: type, **kwargs: Any) -> _Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise MetricsError(
                f"instrument {name!r} already registered as "
                f"{instrument.kind}, requested {kind.kind}"  # type: ignore[attr-defined]
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        wall: bool = False,
        max_samples: int = Histogram.DEFAULT_MAX_SAMPLES,
    ) -> Histogram:
        histogram = self._get(name, Histogram, wall=wall, max_samples=max_samples)
        return histogram  # type: ignore[return-value]

    def timer(self, name: str, **labels: Any) -> Timer:
        """Wall-clock timer; records milliseconds into a ``wall`` histogram."""
        histogram = self.histogram(name, wall=True)
        return Timer(histogram, labels)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def instrument_names(self, include_wall: bool = True) -> List[str]:
        names = []
        for name, instrument in self._instruments.items():
            if not include_wall and getattr(instrument, "wall", False):
                continue
            names.append(name)
        return sorted(names)

    def snapshot(
        self, include_wall: bool = True, include_samples: bool = False
    ) -> Dict[str, Any]:
        """A plain-dict copy of every instrument (safe to mutate/serialise).

        ``include_samples=True`` additionally exports every histogram's
        retained sample list, which is what makes snapshots *mergeable*:
        :func:`merge_snapshots` pools those samples so cross-worker quantiles
        come from real observations, not from averaged summaries.
        """
        out: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            wall = bool(getattr(instrument, "wall", False))
            if not include_wall and wall:
                continue
            entry: Dict[str, Any] = {
                "type": instrument.kind,
                "values": instrument.snapshot_values(
                    include_samples=include_samples
                ),
            }
            if wall:
                entry["wall"] = True
            out[name] = entry
        return out

    def to_json(
        self, include_wall: bool = True, indent: Optional[int] = None
    ) -> str:
        """Deterministic JSON: with ``include_wall=False`` two same-seed runs
        serialise byte-identically."""
        return json.dumps(
            self.snapshot(include_wall=include_wall),
            sort_keys=True,
            indent=indent,
        )

    def clear(self) -> None:
        self._instruments.clear()
        self.trace.clear()

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments


# ---------------------------------------------------------------------------
# Snapshot merging (cross-worker / cross-seed aggregation)
# ---------------------------------------------------------------------------
def _merge_histogram_values(
    per_label: Dict[str, List[Dict[str, Any]]]
) -> Dict[str, Any]:
    """Pool histogram summaries per label set.

    count/sum/min/max are exact; quantiles are recomputed nearest-rank over
    the concatenated retained samples (present when the snapshots were taken
    with ``include_samples=True``).  Without samples, quantiles are dropped
    rather than guessed from averaged summaries.
    """
    merged: Dict[str, Any] = {}
    for label in sorted(per_label):
        count = 0
        total = 0.0
        minimum = float("inf")
        maximum = float("-inf")
        samples: List[float] = []
        have_samples = True
        for summary in per_label[label]:
            entry_count = int(summary.get("count", 0))
            if entry_count == 0:
                continue
            count += entry_count
            total += float(summary.get("sum", 0.0))
            minimum = min(minimum, float(summary.get("min", minimum)))
            maximum = max(maximum, float(summary.get("max", maximum)))
            if "samples" in summary:
                samples.extend(summary["samples"])
            else:
                have_samples = False
        if count == 0:
            merged[label] = {"count": 0}
            continue
        pooled: Dict[str, Any] = {
            "count": count,
            "sum": total,
            "min": minimum,
            "max": maximum,
            "mean": total / count,
        }
        if have_samples and samples:
            pooled["p50"] = _nearest_rank(samples, 0.50)
            pooled["p90"] = _nearest_rank(samples, 0.90)
            pooled["p99"] = _nearest_rank(samples, 0.99)
        merged[label] = pooled
    return merged


def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge :meth:`MetricsRegistry.snapshot` dicts from several runs/workers.

    Counters and gauges sum per label set; histograms pool (see
    :func:`_merge_histogram_values`).  The result has the same shape as a
    plain snapshot and is deterministic in the *sorted* instrument/label
    order, so merging the same snapshots in the same list order always
    serialises byte-identically -- the property the parallel sweep's
    ``--jobs 1`` vs ``--jobs N`` equivalence rests on.
    """
    kinds: Dict[str, str] = {}
    scalar_values: Dict[str, Dict[str, float]] = {}
    histogram_values: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    wall_flags: Dict[str, bool] = {}
    for snap in snapshots:
        for name, entry in snap.items():
            kind = entry.get("type", "counter")
            seen = kinds.setdefault(name, kind)
            if seen != kind:
                raise MetricsError(
                    f"cannot merge instrument {name!r}: {seen} vs {kind}"
                )
            wall_flags[name] = wall_flags.get(name, False) or bool(
                entry.get("wall", False)
            )
            if kind == "histogram":
                per_label = histogram_values.setdefault(name, {})
                for label, summary in entry.get("values", {}).items():
                    per_label.setdefault(label, []).append(summary)
            else:
                per_label_scalar = scalar_values.setdefault(name, {})
                for label, value in entry.get("values", {}).items():
                    per_label_scalar[label] = (
                        per_label_scalar.get(label, 0.0) + float(value)
                    )
    merged: Dict[str, Any] = {}
    for name in sorted(kinds):
        kind = kinds[name]
        if kind == "histogram":
            values: Dict[str, Any] = _merge_histogram_values(
                histogram_values.get(name, {})
            )
        else:
            scalars = scalar_values.get(name, {})
            values = {label: scalars[label] for label in sorted(scalars)}
        entry = {"type": kind, "values": values}
        if wall_flags.get(name):
            entry["wall"] = True
        merged[name] = entry
    return merged

"""Cross-seed uncertainty quantification: bands and bootstrap CIs.

One measurement campaign yields one number per headline statistic; the
original paper stops there.  Replicating the campaign across a seed grid
yields a *sample* per statistic, and this module turns that sample into a
reportable band: mean/stdev, the quartiles, and a percentile-bootstrap
confidence interval for the mean.

Everything is deterministic: the bootstrap resampler takes an explicit seed
(the sweep derives it from the metric name via CRC32), so the same seed grid
always produces byte-identical aggregate reports regardless of worker count.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.stats.summaries import percentile


def seed_for_metric(name: str) -> int:
    """A stable bootstrap seed for a metric name (never ``hash()``: that is
    randomised per process and would break --jobs determinism)."""
    return zlib.crc32(name.encode("utf-8"))


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 1000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean of ``values``.

    Resamples with replacement ``resamples`` times, computes each resample's
    mean, and returns the central ``confidence`` mass of that distribution.
    With a single observation the interval degenerates to that point.
    """
    if not values:
        raise ValueError("bootstrap_ci of empty sequence")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    data = [float(v) for v in values]
    n = len(data)
    if n == 1:
        return (data[0], data[0])
    rng = random.Random(seed)
    means = []
    for _ in range(resamples):
        means.append(
            math.fsum(data[rng.randrange(n)] for _ in range(n)) / n
        )
    alpha = (1.0 - confidence) / 2.0
    return (
        percentile(means, 100.0 * alpha),
        percentile(means, 100.0 * (1.0 - alpha)),
    )


@dataclass(frozen=True)
class MetricBand:
    """Cross-seed summary of one headline statistic."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "max": self.maximum,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
        }


def metric_band(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 1000,
    seed: int = 0,
) -> MetricBand:
    """Summarise one metric's per-seed values into a :class:`MetricBand`."""
    if not values:
        raise ValueError("metric_band of empty sequence")
    data = sorted(float(v) for v in values)
    n = len(data)
    mean = math.fsum(data) / n
    if n > 1:
        variance = math.fsum((v - mean) ** 2 for v in data) / (n - 1)
        stdev = math.sqrt(variance)
    else:
        stdev = 0.0
    low, high = bootstrap_ci(
        data, confidence=confidence, resamples=resamples, seed=seed
    )
    return MetricBand(
        count=n,
        mean=mean,
        stdev=stdev,
        minimum=data[0],
        p25=percentile(data, 25),
        median=percentile(data, 50),
        p75=percentile(data, 75),
        maximum=data[-1],
        ci_low=low,
        ci_high=high,
        confidence=confidence,
    )

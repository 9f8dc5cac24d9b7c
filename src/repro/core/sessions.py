"""Appendix A: estimating a peer's session time from sampled tracker replies.

The tracker returns a random subset of W of the N current peers per query.
If the target peer is in the swarm, the probability of seeing it at least
once in m consecutive queries is

    P = 1 - (1 - W/N)^m                                   (eq. 1)

The paper plugs in conservative bounds -- N = 165 (90th percentile of peak
swarm populations), W = 50 (worst-case reply size), P = 0.99 -- to get
m = 13 queries, and with 18 minutes between queries (90th percentile of
observed spacing) concludes: *a peer not seen for ~4 hours is offline*.
Session reconstruction then merges sightings closer than that threshold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.stats.summaries import percentile

Interval = Tuple[float, float]

# The paper's conservative percentile for the eq. 1 inputs N and spacing.
BOUND_PERCENTILE = 90.0
# Minutes credited to a session witnessed by a single isolated sighting.
MIN_SESSION = 10.0


def detection_probability(n_peers: int, sample_size: int, num_queries: int) -> float:
    """Eq. 1: P(target seen at least once in ``num_queries`` queries)."""
    if n_peers < 1 or sample_size < 1 or num_queries < 0:
        raise ValueError("n_peers, sample_size >= 1 and num_queries >= 0 required")
    if sample_size >= n_peers:
        return 1.0 if num_queries >= 1 else 0.0
    return 1.0 - (1.0 - sample_size / n_peers) ** num_queries


def required_queries(
    n_peers: int, sample_size: int, confidence: float = 0.99
) -> int:
    """Smallest m with detection probability >= ``confidence`` (paper: 13)."""
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if n_peers < 1 or sample_size < 1:
        raise ValueError("n_peers and sample_size must be >= 1")
    if sample_size >= n_peers:
        return 1
    miss = 1.0 - sample_size / n_peers
    return max(1, math.ceil(math.log(1.0 - confidence) / math.log(miss)))


def offline_threshold(
    n_peers: int,
    sample_size: int,
    query_spacing: float,
    confidence: float = 0.99,
) -> float:
    """Minutes without a sighting after which the peer is declared offline.

    With the paper's parameters (165, 50, 18 min, 0.99) this is 13 queries x
    18 min = 234 min, which the paper rounds to its 4-hour threshold.
    """
    if not (math.isfinite(query_spacing) and query_spacing > 0):
        raise ValueError("query_spacing must be finite and > 0")
    return required_queries(n_peers, sample_size, confidence) * query_spacing


def estimate_query_spacing(query_times: Sequence[float]) -> float:
    """Per-torrent inter-query spacing at the ``BOUND_PERCENTILE``."""
    if len(query_times) < 2:
        raise ValueError("need at least two query times")
    ordered = sorted(query_times)
    gaps = [b - a for a, b in zip(ordered, ordered[1:]) if b > a]
    if not gaps:
        raise ValueError("all query times identical")
    return percentile(gaps, BOUND_PERCENTILE)


def population_bound(max_populations: Sequence[int]) -> int:
    """The N to plug into eq. 1: the 90th pct of per-torrent peak sizes."""
    if not max_populations:
        raise ValueError("no population samples")
    values = [float(v) for v in max_populations]
    return max(1, int(math.ceil(percentile(values, BOUND_PERCENTILE))))


@dataclass(frozen=True)
class SessionEstimate:
    """Reconstructed presence of one peer in one torrent."""

    sessions: Tuple[Interval, ...]
    offline_threshold: float

    @property
    def total_time(self) -> float:
        return sum(end - start for start, end in self.sessions)

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)


def reconstruct_sessions(
    sighting_times: Sequence[float], threshold: float
) -> SessionEstimate:
    """Merge sightings separated by less than ``threshold`` into sessions.

    A single isolated sighting still witnesses presence; it becomes a session
    of ``MIN_SESSION`` minutes (the peer was certainly there once, and query
    spacing bounds how much longer).
    """
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    if not sighting_times:
        return SessionEstimate(sessions=(), offline_threshold=threshold)
    ordered = sorted(sighting_times)
    sessions: List[Interval] = []
    start = ordered[0]
    last = ordered[0]
    for t in ordered[1:]:
        if t - last > threshold:
            sessions.append((start, max(last, start + MIN_SESSION)))
            start = t
        last = t
    sessions.append((start, max(last, start + MIN_SESSION)))
    # The MIN_SESSION padding must never spill into the next session (it can
    # when the threshold is smaller than the padding).
    clamped: List[Interval] = []
    for index, (s, e) in enumerate(sessions):
        if index + 1 < len(sessions):
            e = min(e, sessions[index + 1][0])
        clamped.append((s, max(e, s)))
    return SessionEstimate(sessions=tuple(clamped), offline_threshold=threshold)


def union_length(intervals: Sequence[Interval]) -> float:
    """Total length of the union of intervals (aggregated session time)."""
    if not intervals:
        return 0.0
    ordered = sorted(intervals)
    total = 0.0
    cur_start, cur_end = ordered[0]
    for start, end in ordered[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    total += cur_end - cur_start
    return total


def average_concurrency(intervals: Sequence[Interval]) -> float:
    """Time-weighted average number of simultaneously active intervals.

    Measured over the union of the intervals (i.e. while at least one is
    active) -- the paper's "average number of torrents seeded in parallel".
    """
    union = union_length(intervals)
    if union <= 0:
        return 0.0
    total = sum(end - start for start, end in intervals)
    return total / union


def monte_carlo_detection(
    rng: random.Random,
    n_peers: int,
    sample_size: int,
    num_queries: int,
    trials: int = 2000,
) -> float:
    """Empirical check of eq. 1 by simulating random W-of-N sampling."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if sample_size >= n_peers:
        return 1.0
    hits = 0
    population = range(n_peers)
    for _ in range(trials):
        for _query in range(num_queries):
            if 0 in rng.sample(population, sample_size):
                hits += 1
                break
    return hits / trials

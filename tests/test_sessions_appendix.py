"""Tests for the Appendix A session estimator -- including the paper's
numerical example (N=165, W=50, P=0.99 -> m=13 -> ~4 h)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sessions import (
    average_concurrency,
    detection_probability,
    estimate_query_spacing,
    monte_carlo_detection,
    offline_threshold,
    population_bound,
    reconstruct_sessions,
    required_queries,
    union_length,
)


class TestEquationOne:
    def test_paper_parameters(self):
        """The exact computation behind the paper's 4-hour threshold."""
        m = required_queries(165, 50, 0.99)
        assert m == 13
        threshold = offline_threshold(165, 50, 18.0, 0.99)
        assert threshold == pytest.approx(234.0)  # 13 x 18 min ~ 3.9 h -> "4h"
        assert 3.5 * 60 <= threshold <= 4.5 * 60

    def test_detection_probability_formula(self):
        p = detection_probability(165, 50, 13)
        assert p > 0.99
        assert detection_probability(165, 50, 12) < 0.99

    def test_full_sample_is_certain(self):
        assert detection_probability(10, 50, 1) == 1.0
        assert required_queries(10, 50) == 1

    def test_zero_queries(self):
        assert detection_probability(100, 10, 0) == 0.0

    def test_monotone_in_queries(self):
        probs = [detection_probability(200, 50, m) for m in range(1, 20)]
        assert probs == sorted(probs)

    def test_monte_carlo_agrees_with_formula(self):
        rng = random.Random(42)
        empirical = monte_carlo_detection(rng, 165, 50, 13, trials=3000)
        assert abs(empirical - detection_probability(165, 50, 13)) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            required_queries(100, 50, confidence=1.0)
        with pytest.raises(ValueError):
            detection_probability(0, 50, 1)
        with pytest.raises(ValueError):
            offline_threshold(100, 50, 0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: required_queries(50, 0),
            lambda: required_queries(0, 50),
            lambda: required_queries(-3, 50),
            lambda: offline_threshold(165, 50, float("nan")),
        ],
        ids=["w=0", "n=0", "n=-3", "spacing=nan"],
    )
    def test_impossible_inputs_rejected(self, call):
        """No swarm has fewer than one peer or a reply of fewer than one,
        and a NaN spacing is no spacing: each raises ValueError, as
        detection_probability does, instead of dividing by zero or
        returning a number."""
        with pytest.raises(ValueError):
            call()


class TestDerivedInputs:
    def test_query_spacing_percentile(self):
        times = [0, 10, 20, 30, 40, 100]  # one large gap
        spacing = estimate_query_spacing(times)
        assert 10 <= spacing <= 60

    def test_query_spacing_needs_two(self):
        with pytest.raises(ValueError):
            estimate_query_spacing([5.0])

    def test_population_bound(self):
        assert population_bound([10] * 9 + [1000]) >= 10
        assert population_bound([165]) == 165

    def test_population_bound_empty(self):
        with pytest.raises(ValueError):
            population_bound([])


class TestReconstruction:
    def test_single_session(self):
        estimate = reconstruct_sessions([0, 10, 20, 30], threshold=15)
        assert estimate.num_sessions == 1
        assert estimate.total_time == 30

    def test_gap_splits_sessions(self):
        estimate = reconstruct_sessions([0, 10, 500, 510], threshold=100)
        assert estimate.num_sessions == 2
        assert estimate.sessions[0] == (0, 10)
        assert estimate.sessions[1] == (500, 510)

    def test_isolated_sighting_counts_min_session(self):
        estimate = reconstruct_sessions([42.0], threshold=60)
        assert estimate.num_sessions == 1
        assert estimate.total_time == 10

    def test_empty_sightings(self):
        estimate = reconstruct_sessions([], threshold=60)
        assert estimate.num_sessions == 0
        assert estimate.total_time == 0

    def test_unsorted_input_tolerated(self):
        estimate = reconstruct_sessions([30, 0, 10, 20], threshold=15)
        assert estimate.num_sessions == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            reconstruct_sessions([1.0], threshold=0)

    def test_estimator_recovers_true_session_under_sampling(self):
        """End-to-end Appendix A: random W-of-N sampling of a present peer."""
        rng = random.Random(7)
        n, w = 165, 50
        spacing = 18.0
        true_start, true_end = 0.0, 3000.0
        sightings = []
        t = true_start
        while t <= true_end:
            if rng.random() < w / n:
                sightings.append(t)
            t += spacing
        threshold = offline_threshold(n, w, spacing, 0.99)
        estimate = reconstruct_sessions(sightings, threshold)
        assert estimate.num_sessions <= 2  # rarely fragments
        assert estimate.total_time > 0.8 * (true_end - true_start)


class TestIntervalAlgebra:
    def test_union_length_disjoint(self):
        assert union_length([(0, 10), (20, 30)]) == 20

    def test_union_length_overlapping(self):
        assert union_length([(0, 10), (5, 15)]) == 15

    def test_union_length_nested(self):
        assert union_length([(0, 100), (10, 20)]) == 100

    def test_union_empty(self):
        assert union_length([]) == 0.0

    def test_concurrency_parallel_torrents(self):
        # Three fully-overlapping "torrent seeding" intervals -> parallel 3.
        intervals = [(0, 100), (0, 100), (0, 100)]
        assert average_concurrency(intervals) == pytest.approx(3.0)

    def test_concurrency_sequential(self):
        intervals = [(0, 100), (100, 200)]
        assert average_concurrency(intervals) == pytest.approx(1.0)

    def test_concurrency_empty(self):
        assert average_concurrency([]) == 0.0


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
        ).map(lambda p: (min(p), max(p) + 1.0)),
        min_size=1,
        max_size=30,
    )
)
def test_union_vs_concurrency_invariant(intervals):
    """total = union x concurrency, and union never exceeds total."""
    total = sum(end - start for start, end in intervals)
    union = union_length(intervals)
    assert union <= total + 1e-6
    concurrency = average_concurrency(intervals)
    assert concurrency * union == pytest.approx(total, rel=1e-6)


@settings(max_examples=50)
@given(
    sightings=st.lists(
        st.floats(min_value=0, max_value=1e5, allow_nan=False),
        min_size=1, max_size=200,
    ),
    threshold=st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
)
def test_reconstruction_invariants(sightings, threshold):
    estimate = reconstruct_sessions(sightings, threshold)
    ordered = sorted(sightings)
    # Sessions tile the sighting range without overlapping.
    assert estimate.num_sessions >= 1
    flat = [t for session in estimate.sessions for t in session]
    assert flat == sorted(flat)
    assert estimate.sessions[0][0] == ordered[0]
    # Every sighting falls inside some session.
    for t in ordered:
        assert any(start <= t <= end for start, end in estimate.sessions)

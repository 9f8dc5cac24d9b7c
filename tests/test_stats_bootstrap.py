"""Tests for repro.stats.bootstrap -- percentile-bootstrap CIs and bands."""

import math

import pytest

from repro.stats import MetricBand, bootstrap_ci, metric_band
from repro.stats.bootstrap import seed_for_metric


class TestSeedForMetric:
    def test_deterministic_and_name_sensitive(self):
        assert seed_for_metric("coverage") == seed_for_metric("coverage")
        assert seed_for_metric("coverage") != seed_for_metric("precision")


class TestBootstrapCi:
    def test_same_seed_same_interval(self):
        values = [0.2, 0.4, 0.9, 0.5, 0.7]
        assert bootstrap_ci(values, seed=42) == bootstrap_ci(values, seed=42)

    def test_different_seed_different_interval(self):
        values = [0.2, 0.4, 0.9, 0.5, 0.7]
        assert bootstrap_ci(values, seed=1) != bootstrap_ci(values, seed=2)

    def test_interval_brackets_the_mean_and_stays_in_range(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        low, high = bootstrap_ci(values, seed=7)
        assert min(values) <= low <= high <= max(values)
        assert low <= sum(values) / len(values) <= high

    def test_single_value_degenerates_to_point(self):
        assert bootstrap_ci([3.5], seed=0) == (3.5, 3.5)

    def test_identical_values_zero_width(self):
        low, high = bootstrap_ci([2.0] * 10, seed=0)
        assert low == high == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_wider_confidence_never_narrower(self):
        values = [0.1, 0.9, 0.4, 0.6, 0.3, 0.8, 0.2, 0.7]
        low95, high95 = bootstrap_ci(values, confidence=0.95, seed=5)
        low50, high50 = bootstrap_ci(values, confidence=0.50, seed=5)
        assert low95 <= low50 and high50 <= high95

    def test_coverage_roughly_calibrated(self):
        """The 95% CI from a well-behaved sample should contain the true
        mean most of the time.  Deterministic seeds -> no flake."""
        import random

        rng = random.Random(99)
        hits = 0
        trials = 60
        for trial in range(trials):
            sample = [rng.gauss(10.0, 2.0) for _ in range(25)]
            low, high = bootstrap_ci(sample, confidence=0.95, seed=trial)
            if low <= 10.0 <= high:
                hits += 1
        assert hits >= int(trials * 0.8)


class TestMetricBand:
    def test_fields_for_known_sample(self):
        band = metric_band([1.0, 2.0, 3.0, 4.0], seed=11)
        assert band.count == 4
        assert band.mean == pytest.approx(2.5)
        # Sample (n-1) stdev, matching statistics.stdev.
        assert band.stdev == pytest.approx(math.sqrt(5.0 / 3.0))
        assert band.minimum == 1.0 and band.maximum == 4.0
        assert band.ci_low <= band.mean <= band.ci_high
        assert band.confidence == 0.95

    def test_quartiles_ordered(self):
        band = metric_band([5.0, 1.0, 9.0, 3.0, 7.0], seed=2)
        assert (
            band.minimum <= band.p25 <= band.median
            <= band.p75 <= band.maximum
        )

    def test_single_sample(self):
        band = metric_band([4.2], seed=3)
        assert band.count == 1
        assert band.stdev == 0.0
        assert band.ci_low == band.ci_high == 4.2

    def test_as_dict_round_trips_fields(self):
        band = metric_band([1.0, 2.0, 3.0], seed=4)
        payload = band.as_dict()
        assert isinstance(band, MetricBand)
        assert payload["count"] == 3
        assert payload["mean"] == band.mean
        assert payload["ci_low"] == band.ci_low
        assert set(payload) == {
            "count", "mean", "stdev", "min", "p25", "median", "p75",
            "max", "ci_low", "ci_high", "confidence",
        }

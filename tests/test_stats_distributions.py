"""Unit tests for the distribution samplers."""

import random

import pytest

from repro.stats.distributions import LogNormal, poisson


class TestLogNormal:
    def test_median_matches(self):
        rng = random.Random(5)
        dist = LogNormal(100.0, 1.0)
        samples = sorted(dist.sample(rng) for _ in range(20001))
        median = samples[len(samples) // 2]
        assert 80.0 < median < 125.0

    def test_sigma_zero_is_constant(self):
        rng = random.Random(6)
        dist = LogNormal(42.0, 0.0)
        assert dist.sample(rng) == 42.0

    def test_invalid_median(self):
        with pytest.raises(ValueError):
            LogNormal(0.0, 1.0)


class TestPoisson:
    def test_zero_lambda(self):
        assert poisson(random.Random(7), 0.0) == 0

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            poisson(random.Random(7), -1.0)

    @pytest.mark.parametrize("lam", [0.5, 3.0, 12.0, 60.0])
    def test_mean_approximates_lambda(self, lam):
        rng = random.Random(int(lam * 10))
        samples = [poisson(rng, lam) for _ in range(8000)]
        mean = sum(samples) / len(samples)
        assert abs(mean - lam) < max(0.15, 0.08 * lam)

    def test_always_non_negative_large_lambda(self):
        rng = random.Random(8)
        assert all(poisson(rng, 35.0) >= 0 for _ in range(2000))

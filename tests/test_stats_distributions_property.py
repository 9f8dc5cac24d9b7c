"""Property-based tests for repro.stats.distributions.

Complements the example-based tests in test_stats_distributions.py: instead
of hand-picked parameters, hypothesis drives the samplers across their whole
legal parameter space and checks the three properties every sampler must
hold -- outputs stay inside the documented support, a given seed is fully
deterministic, and empirical moments land near their analytic values.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.distributions import LogNormal, poisson

# Moment checks draw this many variates; loose tolerances keep them robust
# across the whole strategy space while still catching a broken sampler.
MOMENT_DRAWS = 4000

lognormal_params = st.tuples(
    st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestBounds:
    @given(params=lognormal_params, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_lognormal_strictly_positive(self, params, seed):
        median, sigma = params
        sampler = LogNormal(median, sigma)
        rng = random.Random(seed)
        for _ in range(50):
            assert sampler.sample(rng) > 0.0

    @given(
        lam=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_poisson_non_negative_int(self, lam, seed):
        rng = random.Random(seed)
        for _ in range(20):
            value = poisson(rng, lam)
            assert isinstance(value, int)
            assert value >= 0

class TestSeedDeterminism:
    @given(params=lognormal_params, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_lognormal_replays_exactly(self, params, seed):
        median, sigma = params
        sampler = LogNormal(median, sigma)
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        assert [sampler.sample(rng_a) for _ in range(30)] == [
            sampler.sample(rng_b) for _ in range(30)
        ]

    @given(
        lam=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_helpers_replay_exactly(self, lam, seed):
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        assert [poisson(rng_a, lam) for _ in range(20)] == [
            poisson(rng_b, lam) for _ in range(20)
        ]


class TestEmpiricalMoments:
    @given(
        params=st.tuples(
            st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
            st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
        ),
        seed=seeds,
    )
    @settings(max_examples=15, deadline=None)
    def test_lognormal_mean_matches_analytic(self, params, seed):
        median, sigma = params
        sampler = LogNormal(median, sigma)
        rng = random.Random(seed)
        empirical = math.fsum(
            sampler.sample(rng) for _ in range(MOMENT_DRAWS)
        ) / MOMENT_DRAWS
        analytic = median * math.exp(sigma**2 / 2.0)
        assert abs(empirical - analytic) / analytic < 0.25

    @given(
        lam=st.floats(min_value=0.5, max_value=120.0, allow_nan=False),
        seed=seeds,
    )
    @settings(max_examples=15, deadline=None)
    def test_poisson_mean_near_lambda(self, lam, seed):
        rng = random.Random(seed)
        draws = 2000
        empirical = sum(poisson(rng, lam) for _ in range(draws)) / draws
        # Mean of `draws` Poisson(lam) draws has stdev sqrt(lam/draws);
        # eight sigma plus a small absolute floor keeps this flake-free.
        tolerance = 8.0 * math.sqrt(lam / draws) + 0.05
        assert abs(empirical - lam) < tolerance

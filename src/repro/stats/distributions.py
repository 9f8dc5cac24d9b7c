"""Seeded samplers the synthetic world draws from.

The paper's website economics (Table 5) are strongly skewed, so a site's
daily visits and revenue per visit are log-normal; publication counts are
Poisson.

All samplers take an explicit :class:`random.Random` instance so that whole
scenarios are reproducible from a single seed.
"""

from __future__ import annotations

import math
import random


class LogNormal:
    """Log-normal distribution parameterised by the *median* and a shape sigma.

    Parameterising by median keeps scenario configs readable ("median site
    income 55 $/day") and matches how the paper reports Table 5.
    """

    def __init__(self, median: float, sigma: float) -> None:
        if median <= 0:
            raise ValueError(f"median must be > 0, got {median}")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.median = median
        self.sigma = sigma
        self._mu = math.log(median)

    def sample(self, rng: random.Random) -> float:
        if self.sigma == 0:
            return self.median
        return rng.lognormvariate(self._mu, self.sigma)


def poisson(rng: random.Random, lam: float) -> int:
    """Draw a Poisson variate.

    Uses Knuth's method for small ``lam`` and a normal approximation above
    ``lam = 30`` (adequate for event counts; we never need exact tails there).
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if lam == 0:
        return 0
    if lam > 30:
        value = int(round(rng.gauss(lam, math.sqrt(lam))))
        return max(0, value)
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1

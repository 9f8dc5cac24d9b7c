"""Statistical helpers shared across the simulator and the analysis pipeline.

This package is intentionally dependency-free (``random`` + ``math`` only) so
that the core library can run anywhere.  It provides:

- :mod:`repro.stats.distributions` -- the seeded log-normal and Poisson
  samplers the synthetic world draws from.
- :mod:`repro.stats.summaries` -- five-number / box-plot summaries,
  percentiles, CDF construction and Gini coefficients used by the analysis
  modules that reproduce the paper's figures.
- :mod:`repro.stats.tables` -- plain-text table rendering used by the
  benchmark harness to print paper-style tables.
- :mod:`repro.stats.bootstrap` -- cross-seed bands and deterministic
  percentile-bootstrap confidence intervals used by ``repro sweep``.
"""

from repro.stats.bootstrap import MetricBand, bootstrap_ci, metric_band
from repro.stats.distributions import LogNormal, poisson
from repro.stats.summaries import (
    BoxStats,
    Cdf,
    box_stats,
    gini,
    percentile,
    top_share_curve,
)
from repro.stats.tables import format_table

__all__ = [
    "MetricBand",
    "bootstrap_ci",
    "metric_band",
    "LogNormal",
    "poisson",
    "BoxStats",
    "Cdf",
    "box_stats",
    "gini",
    "percentile",
    "top_share_curve",
    "format_table",
]

"""Shared fixtures.

The expensive artifact -- a full measurement campaign over the tiny scenario
-- is built once per session and shared by the crawler-integration and
analysis tests.  Ground truth (the world) rides along for validation; only
tests may look at it.
"""

import pytest

from repro.core.analysis import build_report, identify_groups
from repro.core.collector import run_measurement_with_world
from repro.simulation import tiny_scenario
from tests.golden_campaigns import GOLDENS, run_golden_campaign

TINY_SEED = 7
# The tiny world has ~150-underlying publishers; a top-20 plays the role the
# paper's top-100 plays at full scale.
TINY_TOP_K = 20


@pytest.fixture(scope="session")
def tiny_run():
    """(dataset, world) for the tiny scenario -- crawled once per session."""
    return run_measurement_with_world(tiny_scenario(), seed=TINY_SEED)


@pytest.fixture(scope="session")
def golden_run(request):
    """``golden_run(name)`` -> (dataset, world) of the golden campaign
    ``name``, crawled at most once per session.  ``tiny`` is ``tiny_run``."""
    cache = {}

    def run(name):
        if name not in cache:
            if name == "tiny":
                cache[name] = request.getfixturevalue("tiny_run")
            else:
                cache[name] = run_golden_campaign(GOLDENS[name])
        return cache[name]

    return run


@pytest.fixture(scope="session")
def dataset(tiny_run):
    return tiny_run[0]


@pytest.fixture(scope="session")
def world(tiny_run):
    return tiny_run[1]


@pytest.fixture(scope="session")
def groups(dataset):
    return identify_groups(dataset, top_k=TINY_TOP_K)


@pytest.fixture(scope="session")
def report(dataset):
    return build_report(dataset, top_k=TINY_TOP_K)

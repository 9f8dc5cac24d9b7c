"""Whole-pipeline determinism: same seed, same campaign, bit for bit."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from repro.core.collector import run_measurement
from repro.observability import MetricsRegistry
from repro.simulation import tiny_scenario


def _fingerprint(dataset):
    """A stable digest of everything the campaign observed."""
    parts = []
    for tid in sorted(dataset.records):
        record = dataset.records[tid]
        parts.append(
            (
                tid,
                record.infohash,
                record.username,
                record.publisher_ip,
                record.identification.name,
                len(record.query_times),
                round(sum(record.query_times), 3),
                len(record.downloader_ips),
                sum(record.downloader_ips) % (2**61 - 1),
                record.max_population,
            )
        )
    return hash(tuple(parts))


def _config():
    return dataclasses.replace(
        tiny_scenario("determinism"), window_days=2.0, post_window_days=2.0
    )


class TestDeterminism:
    def test_same_seed_same_campaign(self):
        first = run_measurement(_config(), seed=123)
        second = run_measurement(_config(), seed=123)
        assert _fingerprint(first) == _fingerprint(second)
        assert first.crawler_stats == second.crawler_stats

    def test_different_seed_different_campaign(self):
        first = run_measurement(_config(), seed=123)
        other = run_measurement(_config(), seed=124)
        assert _fingerprint(first) != _fingerprint(other)


class TestMetricsDeterminism:
    """The observability layer must not inject nondeterminism.

    Two same-seed runs of the quickstart (tiny) scenario must agree on the
    dataset summary AND serialise byte-identical sim-clock metric snapshots;
    only wall-clock timers may differ between the runs.
    """

    def test_same_seed_same_summary_and_metrics(self):
        first_registry = MetricsRegistry()
        second_registry = MetricsRegistry()
        first = run_measurement(_config(), seed=31, metrics=first_registry)
        second = run_measurement(_config(), seed=31, metrics=second_registry)

        # Dataset summaries agree...
        summary = lambda d: (
            d.num_torrents,
            d.num_with_username,
            d.num_with_publisher_ip,
            d.total_distinct_ips(),
        )
        assert summary(first) == summary(second)
        assert _fingerprint(first) == _fingerprint(second)

        # ...and the sim-clock snapshots are byte-identical.
        assert first_registry.to_json(include_wall=False) == \
            second_registry.to_json(include_wall=False)

    def test_snapshot_spans_the_whole_pipeline(self):
        registry = MetricsRegistry()
        run_measurement(_config(), seed=31, metrics=registry)
        names = registry.instrument_names(include_wall=False)
        assert len(names) >= 10
        subsystems = {name.split(".")[0] for name in names}
        assert {"engine", "crawler", "tracker", "swarm", "portal"} <= subsystems

    def test_wall_metrics_exist_but_stay_out_of_sim_snapshot(self):
        registry = MetricsRegistry()
        run_measurement(_config(), seed=31, metrics=registry)
        all_names = set(registry.instrument_names(include_wall=True))
        sim_names = set(registry.instrument_names(include_wall=False))
        assert "engine.callback_wall_ms" in all_names - sim_names
        assert "campaign.crawl_wall_ms" in all_names - sim_names


# Runs the hybrid golden campaign and prints one SHA-256 over its dataset
# summary, headline statistics and sim-domain metrics snapshot.
_DIGEST_SCRIPT = """
import hashlib, json
from repro.campaign import headline_stats
from repro.core.collector import run_measurement_with_world
from repro.observability import MetricsRegistry
from repro.simulation import build_scenario
from tests.golden_campaigns import GOLDENS

spec = GOLDENS["hybrid"]
config = build_scenario(
    spec.scenario,
    window_days=spec.window_days,
    post_window_days=spec.post_window_days,
)
registry = MetricsRegistry()
dataset, world = run_measurement_with_world(config, seed=spec.seed, metrics=registry)
payload = {
    "summary": dataset.summary_dict(),
    "headline": headline_stats(dataset, world, top_k=spec.top_k),
    "metrics": registry.snapshot(include_wall=False),
}
print(hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest())
"""


class TestHashSeedDeterminism:
    """str/bytes hashing is salted per process (PYTHONHASHSEED), so any
    output that depends on set or dict-of-str iteration order drifts between
    processes even with the same campaign seed."""

    def test_hybrid_campaign_independent_of_hash_seed(self):
        root = Path(__file__).resolve().parents[1]
        processes = []
        for hash_seed in ("0", "1"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            processes.append(
                subprocess.Popen(
                    [sys.executable, "-c", _DIGEST_SCRIPT],
                    cwd=root,
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
            )
        digests = []
        for process in processes:
            out, err = process.communicate(timeout=600)
            assert process.returncode == 0, err
            digests.append(out.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

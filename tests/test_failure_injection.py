"""Failure injection: the crawler survives a flaky tracker."""

import dataclasses
import random

import pytest

from repro.core.crawler import Crawler
from repro.observability import MetricsRegistry
from repro.simulation import CrawlerSettings, World, tiny_scenario
from repro.simulation.engine import EventScheduler
from repro.swarm import PeerSession, Swarm
from repro.tracker import (
    AnnounceRequest,
    Tracker,
    TrackerConfig,
    TrackerError,
    decode_announce_response,
)

IH = b"\x66" * 20


class TestTrackerOverload:
    def _tracker(self, p):
        tracker = Tracker(
            "http://t.sim/a",
            random.Random(0),
            TrackerConfig(failure_probability=p),
            metrics=MetricsRegistry(),
        )
        swarm = Swarm(infohash=IH, birth_time=0.0, metrics=MetricsRegistry())
        swarm.add_session(
            PeerSession(ip=1, join_time=0, leave_time=10_000, complete_time=0)
        )
        swarm.freeze()
        tracker.register_swarm(swarm)
        return tracker

    def test_failures_happen_at_configured_rate(self):
        tracker = self._tracker(0.3)
        failures = 0
        for i in range(300):
            raw = tracker.announce(
                AnnounceRequest(infohash=IH, client_ip=1000 + i), float(i)
            )
            try:
                decode_announce_response(raw)
            except TrackerError as exc:
                assert "overloaded" in str(exc)
                failures += 1
        assert 50 < failures < 130  # ~30%

    def test_overload_failure_is_not_a_violation(self):
        """Overload sheds load without advancing the rate-limit clock or
        counting toward the blacklist."""
        tracker = self._tracker(1.0 - 1e-9)
        for i in range(20):
            tracker.announce(AnnounceRequest(infohash=IH, client_ip=7), float(i))
        assert not tracker.is_blacklisted(7)

    def test_zero_probability_never_fails(self):
        tracker = self._tracker(0.0)
        raw = tracker.announce(AnnounceRequest(infohash=IH, client_ip=1), 0.0)
        decode_announce_response(raw)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(failure_probability=1.0)
        with pytest.raises(ValueError):
            TrackerConfig(failure_probability=-0.1)


class TestCrawlUnderFailures:
    def test_campaign_completes_despite_flaky_tracker(self):
        config = dataclasses.replace(
            tiny_scenario("flaky"),
            window_days=2.0,
            post_window_days=2.0,
            tracker=TrackerConfig(
                min_interval=20.0, max_interval=30.0, failure_probability=0.15
            ),
            crawler=CrawlerSettings(rss_poll_interval=10.0, vantage_count=1),
        )
        world = World.build(config, seed=13, metrics=MetricsRegistry())
        scheduler = EventScheduler(metrics=world.metrics)
        crawler = Crawler(world, scheduler, random.Random(2))
        crawler.start()
        scheduler.run_until(config.horizon_minutes)
        dataset = crawler.build_dataset()

        # Every publication still discovered; failures recorded; most
        # torrents still monitored and many publishers still identified.
        assert dataset.num_torrents == world.portal.num_items
        assert dataset.crawler_stats["announce_failures"] > 0
        monitored = sum(1 for r in dataset.torrents() if r.num_queries > 0)
        assert monitored > dataset.num_torrents * 0.9
        assert dataset.num_with_publisher_ip > dataset.num_torrents * 0.25

"""Crawler edge cases on purpose-built micro worlds."""

import dataclasses
import random

import pytest

from repro.core.crawler import EMPTY_REPLIES_TO_STOP, Crawler
from repro.core.datasets import IdentificationOutcome
from repro.observability import MetricsRegistry
from repro.simulation import CrawlerSettings, World, tiny_scenario
from repro.simulation.engine import EventScheduler


def _crawl(config, seed=5, settings=None):
    world = World.build(config, seed, metrics=MetricsRegistry())
    scheduler = EventScheduler(metrics=world.metrics)
    crawler = Crawler(world, scheduler, random.Random(1), settings=settings)
    crawler.start()
    scheduler.run_until(config.horizon_minutes)
    return crawler.build_dataset(), world


@pytest.fixture(scope="module")
def instant_moderation_run():
    """Moderation so fast that some torrents vanish before discovery."""
    config = dataclasses.replace(
        tiny_scenario("instant-mod"),
        fake_detection_mean_days=0.01,  # ~15 minutes
        crawler=CrawlerSettings(rss_poll_interval=60.0, vantage_count=1),
        window_days=3.0,
        post_window_days=2.0,
    )
    return _crawl(config)


class TestTorrentGone:
    def test_some_torrents_removed_before_download(self, instant_moderation_run):
        dataset, world = instant_moderation_run
        gone = [
            r for r in dataset.torrents()
            if r.identification is IdentificationOutcome.TORRENT_GONE
        ]
        assert gone, "expected the moderation race to beat the crawler sometimes"
        truth_by_id = {t.torrent_id: t for t in world.truth.torrents}
        for record in gone:
            assert truth_by_id[record.torrent_id].is_fake
            assert record.done
            assert record.num_queries == 0

    def test_gone_torrents_still_counted_in_dataset(self, instant_moderation_run):
        dataset, world = instant_moderation_run
        assert dataset.num_torrents == len(world.truth.torrents)


class TestVantageScaling:
    def test_more_vantages_more_samples(self):
        config = dataclasses.replace(
            tiny_scenario("vantage-1"),
            window_days=2.0,
            post_window_days=2.0,
        )
        single, _ = _crawl(
            config,
            settings=CrawlerSettings(rss_poll_interval=10.0, vantage_count=1),
        )
        triple, _ = _crawl(
            config,
            settings=CrawlerSettings(rss_poll_interval=10.0, vantage_count=3),
        )
        single_queries = sum(r.num_queries for r in single.torrents())
        triple_queries = sum(r.num_queries for r in triple.torrents())
        assert triple_queries > 1.8 * single_queries

    def test_vantages_never_blacklisted(self):
        """Staggered vantages always respect the tracker's rate limit."""
        config = dataclasses.replace(
            tiny_scenario("vantage-2"), window_days=2.0, post_window_days=2.0
        )
        dataset, world = _crawl(
            config,
            settings=CrawlerSettings(rss_poll_interval=10.0, vantage_count=4),
        )
        assert dataset.crawler_stats["announce_failures"] == 0
        for vantage in range(4):
            assert not world.tracker.is_blacklisted((10 << 24) | (66 << 16) | vantage)


class TestMonitoringTermination:
    def test_all_records_finish_by_horizon(self):
        config = dataclasses.replace(
            tiny_scenario("horizon"), window_days=2.0, post_window_days=1.0
        )
        dataset, _ = _crawl(config)
        horizon = config.horizon_minutes
        for record in dataset.torrents():
            if record.query_times:
                assert record.query_times[-1] <= horizon

    def test_empty_streak_respected(self):
        config = dataclasses.replace(
            tiny_scenario("streak"), window_days=2.0, post_window_days=4.0
        )
        assert EMPTY_REPLIES_TO_STOP == 10
        dataset, _ = _crawl(config)
        stopped_early = [
            r for r in dataset.torrents()
            if r.done and r.monitoring_ended is not None
            and r.monitoring_ended < config.horizon_minutes - 1
        ]
        assert stopped_early
        for record in stopped_early:
            assert (
                record.empty_streak == EMPTY_REPLIES_TO_STOP
                or record.num_queries == 0
            )

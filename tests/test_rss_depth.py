"""Bounded-RSS-feed behaviour: slow pollers miss bursts."""

import dataclasses

import pytest

from repro.core.collector import run_measurement
from repro.observability import MetricsRegistry
from repro.portal.categories import Category
from repro.portal.rss import RssEntry, RssFeed
from repro.simulation import CrawlerSettings, tiny_scenario


def _entry(t, tid):
    return RssEntry(
        published_time=t, torrent_id=tid, title=f"t{tid}",
        category=Category.MUSIC, size_bytes=1, username="u",
    )


class TestFeedDepth:
    def test_within_depth_nothing_missed(self):
        feed = RssFeed(depth=10)
        for i in range(8):
            feed.publish(_entry(float(i), i))
        got = feed.entries_between(float("-inf"), 10.0)
        assert len(got) == 8
        assert feed.missed_between(float("-inf"), 10.0) == 0

    def test_burst_beyond_depth_loses_oldest(self):
        feed = RssFeed(depth=5)
        for i in range(12):
            feed.publish(_entry(float(i), i))
        got = feed.entries_between(float("-inf"), 20.0)
        assert [e.torrent_id for e in got] == [7, 8, 9, 10, 11]
        assert feed.missed_between(float("-inf"), 20.0) == 7

    def test_frequent_polls_catch_everything(self):
        feed = RssFeed(depth=5)
        seen = []
        last = float("-inf")
        for i in range(30):
            feed.publish(_entry(float(i), i))
            if i % 3 == 0:  # poll every 3 publications (< depth)
                seen.extend(
                    e.torrent_id for e in feed.entries_between(last, float(i))
                )
                last = float(i)
        seen.extend(e.torrent_id for e in feed.entries_between(last, 100.0))
        assert seen == list(range(30))

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            RssFeed(depth=0)


class TestCrawlerDiscoveryLoss:
    def test_rare_polls_plus_shallow_feed_miss_torrents(self):
        """The ablation behind the paper's every-few-minutes polling."""
        base = dataclasses.replace(
            tiny_scenario("rss-depth"), window_days=3.0, post_window_days=1.0
        )
        fast = run_measurement(
            dataclasses.replace(
                base,
                crawler=CrawlerSettings(rss_poll_interval=10.0, vantage_count=1),
            ),
            seed=17,
        )
        # Same world; a poller that sleeps half a day against a depth-5 feed.
        slow_config = dataclasses.replace(
            base,
            crawler=CrawlerSettings(rss_poll_interval=720.0, vantage_count=1),
        )
        import random

        from repro.core.crawler import Crawler
        from repro.simulation import World
        from repro.simulation.engine import EventScheduler

        world = World.build(slow_config, seed=17, metrics=MetricsRegistry())
        world.portal.feed.depth = 5
        scheduler = EventScheduler(metrics=world.metrics)
        crawler = Crawler(world, scheduler, random.Random(1))
        crawler.start()
        scheduler.run_until(slow_config.horizon_minutes)
        slow = crawler.build_dataset()

        assert fast.num_torrents == world.portal.num_items
        assert slow.num_torrents < fast.num_torrents

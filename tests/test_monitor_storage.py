"""Tests for the Section 7 monitoring application and its database."""

import random

import pytest

from repro.core.analysis.isps import isp_ranking
from repro.core.datasets import TorrentRecord
from repro.core.export import (
    ArchivedGeoIp,
    CampaignArchive,
    PublisherRow,
    load_dataset,
)
from repro.core.monitor import ContentPublishingMonitor
from repro.geoip import GeoRecord, IspKind, parse_ip
from repro.observability import MetricsRegistry
from repro.portal.categories import Category
from repro.simulation import World, build_scenario, tiny_scenario
from repro.simulation.engine import EventScheduler

OVH_IP = parse_ip("1.2.3.4")
GEOIP = ArchivedGeoIp(
    {
        OVH_IP: GeoRecord(
            isp="OVH", kind=IspKind.HOSTING_PROVIDER, country="FR", city="Roubaix"
        ),
        parse_ip("5.6.7.8"): GeoRecord(
            isp="Zeta Net", kind=IspKind.COMMERCIAL_ISP, country="DE", city="Bonn"
        ),
        parse_ip("9.9.9.9"): GeoRecord(
            isp="Alpha Net", kind=IspKind.COMMERCIAL_ISP, country="US", city="Reno"
        ),
    }
)


def publications_by_username(store, username):
    return store._publications("WHERE t.username = ?", (username,))


def count_publications(store):
    return store._conn.execute("SELECT COUNT(*) FROM torrents").fetchone()[0]


@pytest.fixture(scope="module")
def monitor_run(tmp_path_factory):
    """The monitor writing its database to a file."""
    world = World.build(
        tiny_scenario("monitor"), seed=55, metrics=MetricsRegistry()
    )
    scheduler = EventScheduler(metrics=world.metrics)
    path = str(tmp_path_factory.mktemp("monitor") / "monitor.sqlite")
    monitor = ContentPublishingMonitor(
        world,
        scheduler,
        rng=random.Random(0xB17),
        store=CampaignArchive(path),
        poll_interval=10.0,
    )
    monitor.run_until(world.config.window_minutes)
    return world, monitor, path


class TestStore:
    def _record(self, tid=1, username="alice", category=Category.MOVIES,
                ip=OVH_IP):
        return TorrentRecord(
            torrent_id=tid, infohash=bytes(20), title=f"t{tid}",
            category=category, size_bytes=100, publish_time=1.0,
            username=username, publisher_ip=ip,
        )

    def test_insert_and_query_by_username(self):
        with CampaignArchive() as store:
            store.add_record(self._record(1), GEOIP)
            store.add_record(self._record(2), GEOIP)
            store.add_record(self._record(3, username="bob"), GEOIP)
            rows = publications_by_username(store, "alice")
            assert [r.torrent_id for r in rows] == [1, 2]
            assert count_publications(store) == 3
            row = rows[0]
            assert (row.title, row.category, row.publisher_ip) == (
                "t1", "Video/Movies", "1.2.3.4"
            )
            assert (row.isp, row.isp_kind, row.city, row.country) == (
                "OVH", "Hosting Provider", "Roubaix", "FR"
            )

    def test_add_record_upserts(self):
        with CampaignArchive() as store:
            store.add_record(self._record(1), GEOIP)
            store.add_record(self._record(1, username="bob"), GEOIP)
            assert count_publications(store) == 1
            assert store.top_publishers() == [("bob", 1)]

    def test_unlocated_publisher_has_no_geoip(self):
        with CampaignArchive() as store:
            store.add_record(self._record(1, ip=None), GEOIP)
            store.add_record(self._record(2, ip=parse_ip("8.8.8.8")), GEOIP)
            rows = publications_by_username(store, "alice")
            assert [r.publisher_ip for r in rows] == [None, "8.8.8.8"]
            assert [r.isp for r in rows] == [None, None]
            assert store.isp_breakdown() == []

    def test_query_by_category(self):
        with CampaignArchive() as store:
            store.add_record(self._record(1, category=Category.EBOOKS), GEOIP)
            store.add_record(self._record(2, category=Category.MOVIES), GEOIP)
            rows = store.publications_by_category("Other/E-books")
            assert [r.torrent_id for r in rows] == [1]
            assert store.publications_by_category("No/Such category") == []

    def test_category_excluding_fake(self):
        with CampaignArchive() as store:
            store.add_record(self._record(1, username="evil"), GEOIP)
            store.add_record(self._record(2, username="good"), GEOIP)
            store.annotate_publisher(
                PublisherRow("evil", None, None, False, True, "fake")
            )
            rows = store.publications_by_category(
                "Video/Movies", exclude_fake=True
            )
            assert [r.username for r in rows] == ["good"]

    def test_publication_without_username_survives_fake_filter(self):
        with CampaignArchive() as store:
            store.add_record(self._record(1, username="evil"), GEOIP)
            store.add_record(self._record(2, username=None), GEOIP)
            store.annotate_publisher(
                PublisherRow("evil", None, None, False, True, "fake")
            )
            rows = store.publications_by_category(
                "Video/Movies", exclude_fake=True
            )
            assert [(r.torrent_id, r.username) for r in rows] == [(2, None)]

    def test_publications_ordered_by_time_then_id(self):
        with CampaignArchive() as store:
            for tid in (3, 1, 2):
                store.add_record(self._record(tid), GEOIP)
            rows = publications_by_username(store, "alice")
            assert [r.torrent_id for r in rows] == [1, 2, 3]

    def test_top_publishers_ranking(self):
        with CampaignArchive() as store:
            for tid in range(5):
                store.add_record(self._record(tid, username="heavy"), GEOIP)
            store.add_record(self._record(99, username="light"), GEOIP)
            assert store.top_publishers(limit=1) == [("heavy", 5)]

    def test_publishers_for_category(self):
        """The paper's use case: find the big e-book publishers."""
        with CampaignArchive() as store:
            for tid in range(4):
                store.add_record(
                    self._record(tid, username="bookworm",
                                 category=Category.EBOOKS),
                    GEOIP,
                )
            store.add_record(
                self._record(50, username="casual", category=Category.EBOOKS),
                GEOIP,
            )
            hits = store.publishers_for_category("Other/E-books", min_torrents=2)
            assert hits == [("bookworm", 4)]

    def test_publisher_annotations(self):
        with CampaignArchive() as store:
            store.annotate_publisher(
                PublisherRow("mois20", "divxatope.com",
                             "private BitTorrent portal/tracker", True, False,
                             None)
            )
            row = store.publisher("mois20")
            assert row.profit_driven
            assert row.promoted_url == "divxatope.com"
            assert store.publisher("missing") is None

    def test_fake_usernames_listing(self):
        with CampaignArchive() as store:
            store.annotate_publisher(PublisherRow("z", None, None, False, True, ""))
            store.annotate_publisher(PublisherRow("a", None, None, False, True, ""))
            assert store.fake_usernames() == ["a", "z"]

    def test_isp_breakdown(self):
        with CampaignArchive() as store:
            store.add_record(self._record(1), GEOIP)
            store.add_record(self._record(2), GEOIP)
            assert store.isp_breakdown()[0] == ("OVH", 2)

    def test_isp_ties_ordered_by_name(self):
        with CampaignArchive() as store:
            zeta, alpha = parse_ip("5.6.7.8"), parse_ip("9.9.9.9")
            for tid, ip in enumerate([zeta, OVH_IP, zeta, alpha, OVH_IP, alpha,
                                      OVH_IP]):
                store.add_record(self._record(tid, ip=ip), GEOIP)
            assert store.isp_breakdown() == [
                ("OVH", 3), ("Alpha Net", 2), ("Zeta Net", 2)
            ]


class TestMonitor:
    def test_ingests_every_publication(self, monitor_run):
        world, monitor, _path = monitor_run
        assert monitor.publications_seen == world.portal.num_items
        assert count_publications(monitor.store) == world.portal.num_items

    def test_locates_a_good_fraction_of_publishers(self, monitor_run):
        _world, monitor, _path = monitor_run
        assert monitor.publishers_located > monitor.publications_seen * 0.3

    def test_geoip_enrichment(self, monitor_run):
        world, monitor, _path = monitor_run
        enriched = [
            row
            for username, _count in monitor.store.top_publishers(limit=50)
            for row in publications_by_username(monitor.store, username)
            if row.isp is not None
        ]
        assert enriched
        for row in enriched:
            assert row.country
            assert row.isp_kind in ("Hosting Provider", "Commercial ISP")

    def test_single_tracker_connection_per_torrent(self, monitor_run):
        """Section 7: one connection to the tracker per new torrent."""
        world, monitor, _path = monitor_run
        served = world.metrics.counter("tracker.announces").value(result="served")
        assert served <= monitor.publications_seen

    def test_flag_fake_flows_to_queries(self, monitor_run):
        _world, monitor, _path = monitor_run
        top = monitor.store.top_publishers(limit=1)[0][0]
        monitor.flag_fake(top, note="test flag")
        assert top in monitor.store.fake_usernames()

    def test_poll_interval_validation(self, monitor_run):
        world, _monitor, _path = monitor_run
        with pytest.raises(ValueError):
            ContentPublishingMonitor(
                world,
                EventScheduler(metrics=world.metrics),
                rng=random.Random(0xB17),
                poll_interval=0,
            )

    def test_counts_read_the_registry(self, monitor_run):
        world, monitor, _path = monitor_run
        identification = world.metrics.counter("crawler.identification")
        assert monitor.publishers_located == identification.value(
            outcome="IP_IDENTIFIED"
        )
        assert monitor.publications_seen == world.metrics.counter(
            "crawler.torrents_discovered"
        ).value()

    def test_database_loads_as_a_campaign_archive(self, monitor_run):
        world, monitor, path = monitor_run
        loaded = load_dataset(path)
        assert len(loaded.records) == monitor.publications_seen == 300
        located = [r for r in loaded.records.values() if r.publisher_ip]
        assert len(located) == monitor.publishers_located == 154
        assert loaded.name == world.config.name
        assert loaded.crawler_stats["torrents_discovered"] == 300
        assert isp_ranking(loaded).rows

    def test_run_until_resumes_one_poll_chain(self):
        """A second ``run_until`` resumes the RSS polls; it does not start a
        second chain beside the first."""
        world = World.build(
            tiny_scenario("monitor"), seed=55, metrics=MetricsRegistry()
        )
        monitor = ContentPublishingMonitor(
            world,
            EventScheduler(metrics=world.metrics),
            rng=random.Random(0xB17),
            poll_interval=10.0,
        )
        monitor.run_until(world.config.window_minutes / 2)
        monitor.run_until(world.config.window_minutes)
        assert world.metrics.counter("crawler.rss_polls").value() == 865
        assert monitor.publications_seen == 300

    def test_locates_publishers_on_magnet_only_portal(self):
        """Magnet-only publications are identified over the DHT."""
        world = World.build(
            build_scenario("trackerless"), seed=7, metrics=MetricsRegistry()
        )
        monitor = ContentPublishingMonitor(
            world,
            EventScheduler(metrics=world.metrics),
            rng=random.Random(0xB17),
            poll_interval=5.0,
        )
        monitor.run_until(world.config.window_minutes)
        assert monitor.publications_seen == world.portal.num_items
        assert monitor.publishers_located > 0.3 * monitor.publications_seen


class TestContentVerificationFilter:
    """The paper's §7 future-work feature, realised via piece hash checks."""

    def test_fakes_caught_by_hash_verification(self):
        from repro.simulation import World, tiny_scenario
        from repro.simulation.engine import EventScheduler

        world = World.build(
            tiny_scenario("verify-filter"), seed=66, metrics=MetricsRegistry()
        )
        scheduler = EventScheduler(metrics=world.metrics)
        monitor = ContentPublishingMonitor(
            world,
            scheduler,
            rng=random.Random(0xB17),
            poll_interval=10.0,
            verify_content_fraction=1.0,
        )
        monitor.run_until(world.config.window_minutes)
        assert monitor.contents_verified > 50
        assert monitor.fakes_caught > 0

        # Every flagged username truly published fake content.
        truth_fake = {
            t.username for t in world.truth.torrents if t.is_fake
        }
        flagged = set(monitor.store.fake_usernames())
        assert flagged
        assert flagged <= truth_fake

        # And the filter catches a substantial share of fake usernames whose
        # content was verifiable (the stealthy NATed ones stay invisible).
        assert len(flagged) >= len(truth_fake) * 0.3

    def test_fraction_validation(self):
        from repro.simulation import World, tiny_scenario
        from repro.simulation.engine import EventScheduler

        world = World.build(
            tiny_scenario("verify-val"), seed=1, metrics=MetricsRegistry()
        )
        with pytest.raises(ValueError):
            ContentPublishingMonitor(
                world,
                EventScheduler(metrics=world.metrics),
                rng=random.Random(0xB17),
                verify_content_fraction=1.5,
            )

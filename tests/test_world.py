"""Tests for world generation (ground-truth structure)."""

import pytest

from repro.agents.profiles import PublisherClass
from repro.geoip import IspKind
from repro.observability import MetricsRegistry
from repro.simulation import World, tiny_scenario
from repro.simulation.clock import DAY
from repro.torrent import parse_torrent


class TestWorldBuild:
    def test_deterministic_from_seed(self, world):
        rebuilt = World.build(tiny_scenario(), seed=7, metrics=MetricsRegistry())
        assert len(rebuilt.truth.torrents) == len(world.truth.torrents)
        assert [t.infohash for t in rebuilt.truth.torrents[:20]] == [
            t.infohash for t in world.truth.torrents[:20]
        ]

    def test_different_seed_differs(self, world):
        other = World.build(tiny_scenario(), seed=8, metrics=MetricsRegistry())
        assert [t.infohash for t in other.truth.torrents[:20]] != [
            t.infohash for t in world.truth.torrents[:20]
        ]

    def test_every_species_published(self, world):
        classes = {t.publisher_class for t in world.truth.torrents}
        assert PublisherClass.REGULAR in classes
        assert PublisherClass.TOP_BT_PORTAL in classes
        assert any(c.is_fake for c in classes)

    def test_portal_and_tracker_agree(self, world):
        assert world.portal.num_items == len(world.truth.torrents)
        assert world.tracker.num_swarms == len(world.truth.torrents)
        for truth in world.truth.torrents[:50]:
            assert world.tracker.has_swarm(truth.infohash)

    def test_torrent_files_parse_and_match_truth(self, world):
        for truth in world.truth.torrents[:50]:
            raw = world.portal.get_torrent_file(truth.torrent_id, truth.publish_time)
            assert raw is not None
            meta = parse_torrent(raw)
            assert meta.infohash == truth.infohash

    def test_publish_times_within_window(self, world):
        window = world.config.window_minutes
        for truth in world.truth.torrents:
            assert 0.0 <= truth.publish_time < window

    def test_rss_time_ordered_and_complete(self, world):
        entries = world.portal.feed.all_entries()
        assert len(entries) == len(world.truth.torrents)
        times = [e.published_time for e in entries]
        assert times == sorted(times)

    def test_fake_torrents_get_removed_and_banned(self, world):
        fakes = [t for t in world.truth.torrents if t.is_fake]
        assert fakes
        horizon = world.config.horizon_minutes + 10 * DAY
        for truth in fakes:
            assert truth.removal_time is not None
            assert truth.removal_time > truth.publish_time
            assert world.portal.is_removed(truth.torrent_id, horizon)
            assert world.portal.user_page(truth.username, horizon) is None

    def test_real_torrents_not_removed(self, world):
        horizon = world.config.horizon_minutes
        for truth in world.truth.torrents:
            if not truth.is_fake:
                assert not world.portal.is_removed(truth.torrent_id, horizon)

    def test_fake_publishers_rotate_usernames(self, world):
        fakes = [t for t in world.truth.torrents if t.is_fake]
        usernames = {t.username for t in fakes}
        assert len(usernames) > len({t.agent_id for t in fakes}) * 3

    def test_fake_swarm_downloaders_never_seed(self, world):
        fakes = [t for t in world.truth.torrents if t.is_fake]
        for truth in fakes[:20]:
            swarm = world.swarm_for(truth.torrent_id)
            for session in swarm.all_sessions:
                if not session.is_publisher:
                    assert session.complete_time is None

    def test_fake_arrivals_stop_at_removal(self, world):
        fakes = [t for t in world.truth.torrents if t.is_fake]
        for truth in fakes[:20]:
            swarm = world.swarm_for(truth.torrent_id)
            for session in swarm.all_sessions:
                if not session.is_publisher:
                    assert session.join_time <= truth.removal_time

    def test_publisher_ips_belong_to_agent(self, world):
        agents = {a.agent_id: a for a in world.population.agents}
        for truth in world.truth.torrents:
            agent = agents[truth.agent_id]
            for ip in truth.publisher_ips:
                assert ip in agent.ips

    def test_fake_publisher_ips_at_hosting(self, world):
        for truth in world.truth.torrents:
            if truth.is_fake and truth.publisher_ips:
                record = world.geoip.lookup(truth.publisher_ips[0])
                assert record.kind is IspKind.HOSTING_PROVIDER

    def test_downloaders_on_commercial_isps_only(self, world):
        """The paper saw no hosting-provider IPs among consumers."""
        checked = 0
        for truth in world.truth.torrents[:30]:
            swarm = world.swarm_for(truth.torrent_id)
            publisher_ips = set(truth.publisher_ips)
            for session in swarm.all_sessions:
                if session.is_publisher or session.ip in publisher_ips:
                    continue
                record = world.geoip.lookup(session.ip)
                assert record is not None
                assert record.kind is IspKind.COMMERCIAL_ISP
                checked += 1
        assert checked > 100

    def test_content_shares_roughly_calibrated(self, world):
        total = len(world.truth.torrents)
        fake = sum(1 for t in world.truth.torrents if t.is_fake)
        regular = sum(
            1
            for t in world.truth.torrents
            if t.publisher_class is PublisherClass.REGULAR
        )
        assert 0.15 < fake / total < 0.50
        assert 0.15 < regular / total < 0.60

    def test_account_histories_seeded_for_tops(self, world):
        for agent in world.population.top_agents:
            account = world.portal.accounts.get(agent.username)
            if account is None:
                continue  # published nothing in this tiny window
            assert account.historical_count > 0
            assert account.created_time < 0

    def test_num_pieces_accessor(self, world):
        truth = world.truth.torrents[0]
        raw = world.portal.get_torrent_file(truth.torrent_id, truth.publish_time)
        assert world.num_pieces_for(truth.torrent_id) == parse_torrent(raw).num_pieces

    def test_seederless_fraction_in_configured_band(self, world):
        """NO_SEEDER_FRACTION + fake stealth both produce seederless births."""
        non_fake = [t for t in world.truth.torrents if not t.is_fake]
        seederless = sum(1 for t in non_fake if t.seederless_at_birth)
        assert seederless / len(non_fake) < 0.12

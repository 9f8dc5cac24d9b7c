"""Unit tests for the portal: accounts, RSS, pages, moderation."""

import pytest

from repro.observability import MetricsRegistry
from repro.portal import Portal, PortalConfig
from repro.portal.accounts import AccountRegistry
from repro.portal.categories import ALL_COARSE_GROUPS, Category, coarse_group
from repro.portal.rss import RssEntry, RssFeed
from repro.simulation.clock import DAY

TORRENT = b"d8:announce3:url4:infod6:lengthi5e4:name1:x12:piece lengthi1e6:pieces20:aaaaaaaaaaaaaaaaaaaaee"


def publish(portal, time=10.0, username="alice", is_fake=False, **kwargs):
    defaults = dict(
        title="Some.Release",
        category=Category.MOVIES,
        size_bytes=1000,
        description="enjoy",
        torrent_bytes=TORRENT,
        is_fake=is_fake,
    )
    defaults.update(kwargs)
    return portal.publish(time=time, username=username, **defaults)


@pytest.fixture
def portal():
    return Portal(PortalConfig(name="TestBay"), metrics=MetricsRegistry())


class TestCategories:
    def test_coarse_grouping(self):
        assert coarse_group(Category.MOVIES) == "Video"
        assert coarse_group(Category.TV_SHOWS) == "Video"
        assert coarse_group(Category.PORN) == "Video"
        assert coarse_group(Category.APPLICATIONS) == "Software"
        assert coarse_group(Category.MUSIC) == "Audio"

    def test_every_category_grouped(self):
        for category in Category:
            assert coarse_group(category) in ALL_COARSE_GROUPS


class TestAccounts:
    def test_create_and_get(self):
        registry = AccountRegistry()
        account = registry.create("bob", created_time=-100.0)
        assert registry.get("bob") is account
        assert registry.get("nobody") is None

    def test_duplicate_rejected(self):
        registry = AccountRegistry()
        registry.create("bob", 0.0)
        with pytest.raises(ValueError):
            registry.create("bob", 0.0)

    def test_publication_recording(self):
        registry = AccountRegistry()
        account = registry.create("bob", 0.0)
        account.record_publication(5.0, 1)
        account.record_publication(9.0, 2)
        assert account.total_publications == 2
        assert account.first_publication_time == 5.0
        assert account.last_publication_time == 9.0

    def test_history_seeding(self):
        registry = AccountRegistry()
        account = registry.create("old", created_time=-1000 * DAY)
        account.seed_history(first_time=-1000 * DAY, count=5000)
        assert account.total_publications == 5000
        account.record_publication(1.0, 7)
        assert account.total_publications == 5001

    def test_banned_cannot_publish(self):
        registry = AccountRegistry()
        account = registry.create("evil", 0.0)
        registry.ban("evil", 10.0)
        with pytest.raises(RuntimeError):
            account.record_publication(11.0, 1)

    def test_ban_unknown_raises(self):
        with pytest.raises(KeyError):
            AccountRegistry().ban("ghost", 0.0)


class TestRss:
    def _entry(self, t, tid=1, username="u"):
        return RssEntry(
            published_time=t, torrent_id=tid, title="t",
            category=Category.MUSIC, size_bytes=10, username=username,
        )

    def test_entries_between(self):
        feed = RssFeed()
        for i in range(5):
            feed.publish(self._entry(float(i), tid=i))
        got = feed.entries_between(1.0, 3.0)
        assert [e.torrent_id for e in got] == [2, 3]

    def test_poll_semantics_no_duplicates(self):
        feed = RssFeed()
        feed.publish(self._entry(1.0, tid=1))
        feed.publish(self._entry(2.0, tid=2))
        first = feed.entries_between(float("-inf"), 1.5)
        second = feed.entries_between(1.5, 3.0)
        assert [e.torrent_id for e in first] == [1]
        assert [e.torrent_id for e in second] == [2]

    def test_username_stripped_when_configured(self):
        feed = RssFeed(include_username=False)
        feed.publish(self._entry(1.0))
        assert feed.entries_between(0.0, 2.0)[0].username is None

    def test_out_of_order_rejected(self):
        feed = RssFeed()
        feed.publish(self._entry(5.0))
        with pytest.raises(ValueError, match="time order"):
            feed.publish(self._entry(4.0))


class TestPortal:
    def test_publish_creates_page_feed_torrent(self, portal):
        tid = publish(portal)
        assert portal.get_torrent_file(tid, 11.0) == TORRENT
        page = portal.content_page(tid, 11.0)
        assert page.username == "alice"
        assert page.title == "Some.Release"
        assert len(portal.feed) == 1

    def test_moderation_removes_everything(self, portal):
        tid = publish(portal, is_fake=True)
        portal.schedule_removal(tid, removal_time=100.0)
        portal.ban_account("alice", 100.0)
        # Before removal: visible.
        assert portal.get_torrent_file(tid, 50.0) is not None
        assert not portal.is_removed(tid, 50.0)
        assert portal.user_page("alice", 50.0) is not None
        # After removal: gone.
        assert portal.get_torrent_file(tid, 100.0) is None
        assert portal.content_page(tid, 100.0) is None
        assert portal.is_removed(tid, 100.0)
        assert portal.user_page("alice", 100.0) is None

    def test_banned_account_cannot_publish_again(self, portal):
        publish(portal, time=10.0, username="victim")
        portal.ban_account("victim", 20.0)
        with pytest.raises(RuntimeError, match="banned"):
            publish(portal, time=25.0, username="victim")

    def test_download_experience(self, portal):
        tid = publish(
            portal,
            is_fake=True,
            payload_kind="antipiracy-decoy",
            bundled_file_names=("warning.txt",),
        )
        experience = portal.download_content(tid, 11.0)
        assert experience.is_fake
        assert experience.payload_kind == "antipiracy-decoy"
        assert experience.bundled_file_names == ("warning.txt",)

    def test_user_page_aggregates(self, portal):
        publish(portal, time=10.0, username="carol",
                account_created_time=-500 * DAY)
        publish(portal, time=20.0 + 10 * DAY, username="carol")
        account = portal.accounts.get("carol")
        account.seed_history(first_time=-500 * DAY, count=100)
        page = portal.user_page("carol", now=30.0 + 10 * DAY)
        assert page.total_publications == 102
        assert page.first_publication_time == -500 * DAY
        assert page.lifetime_days == pytest.approx(510, abs=1.0)
        assert page.publishing_rate_per_day == pytest.approx(102 / 510, rel=0.01)

    def test_user_page_respects_now(self, portal):
        publish(portal, time=10.0, username="dave")
        publish(portal, time=1000.0, username="dave")
        page = portal.user_page("dave", now=500.0)
        assert page.total_publications == 1

    def test_user_page_unknown_user(self, portal):
        assert portal.user_page("ghost", 0.0) is None

    def test_unknown_torrent_raises(self, portal):
        with pytest.raises(KeyError):
            portal.get_torrent_file(999, 0.0)

    def test_rss_username_omitted_when_configured(self):
        portal = Portal(
            PortalConfig(name="Mininova", rss_includes_username=False),
            metrics=MetricsRegistry(),
        )
        publish(portal)
        entries = portal.feed.entries_between(0.0, 100.0)
        assert entries[0].username is None
        # But the content page still knows the username (the web page did).
        assert portal.content_page(entries[0].torrent_id, 50.0).username == "alice"

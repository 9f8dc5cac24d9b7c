"""The portal: index, feed, pages, downloads and moderation.

All read operations take ``now`` so that the same portal object serves a
consistent, time-aware view: a fake torrent's page and .torrent file are
available until its (scheduled) removal time and gone afterwards; a banned
account's user page disappears at ban time.

Moderation removal times are decided by the world generator (detection is a
random delay after publication) and registered here; the portal applies them
by comparing against ``now`` rather than by mutation, which keeps the portal
usable both during the simulated crawl and during post-hoc analysis at the
"measurement date".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.observability import MetricsRegistry
from repro.portal.accounts import AccountRegistry
from repro.portal.categories import Category
from repro.portal.pages import ContentPage, UserPage
from repro.portal.rss import RssEntry, RssFeed


@dataclass(frozen=True)
class PortalConfig:
    """Portal behaviour knobs."""

    name: str
    rss_includes_username: bool = True


@dataclass(frozen=True)
class DownloadExperience:
    """What a user who downloads & opens the content actually gets.

    Models the authors' manual verification in Section 5: downloaded fake
    files turned out to be anti-piracy decoys or malware pointers; real files
    may carry a bundled promo file.
    """

    is_fake: bool
    payload_kind: str  # "content", "antipiracy-decoy", "malware-pointer"
    bundled_file_names: Tuple[str, ...] = ()


@dataclass
class _Item:
    torrent_id: int
    torrent_bytes: Optional[bytes]  # None: magnet-only, no .torrent served
    page: ContentPage
    is_fake: bool
    payload_kind: str
    bundled_file_names: Tuple[str, ...]
    removal_time: Optional[float] = None
    magnet_uri: Optional[str] = None


class Portal:
    """One BitTorrent portal (index + feed + accounts + moderation)."""

    def __init__(self, config: PortalConfig, *, metrics: MetricsRegistry) -> None:
        self.config = config
        self.accounts = AccountRegistry()
        self.feed = RssFeed(include_username=config.rss_includes_username)
        self._items: Dict[int, _Item] = {}
        self._next_id = 1
        self.metrics = metrics
        self._m_publishes = self.metrics.counter("portal.publishes")
        self._m_removals = self.metrics.counter("portal.removals_scheduled")
        self._m_bans = self.metrics.counter("portal.account_bans")
        self._m_downloads = self.metrics.counter("portal.torrent_downloads")
        self._m_magnets = self.metrics.counter("portal.magnet_fetches")

    # ------------------------------------------------------------------
    # Publishing (world-facing)
    # ------------------------------------------------------------------
    def publish(
        self,
        time: float,
        title: str,
        category: Category,
        size_bytes: int,
        username: str,
        description: str,
        torrent_bytes: Optional[bytes],
        is_fake: bool = False,
        payload_kind: str = "content",
        bundled_file_names: Tuple[str, ...] = (),
        account_created_time: Optional[float] = None,
        magnet_uri: Optional[str] = None,
    ) -> int:
        """Index a new torrent; returns its portal id.

        ``torrent_bytes=None`` publishes a magnet-only item: it serves no
        .torrent file, so the DHT is the only way in.
        """
        if torrent_bytes is None and magnet_uri is None:
            raise ValueError("a magnet-only publication needs a magnet_uri")
        account = self.accounts.get_or_create(
            username,
            created_time=time if account_created_time is None else account_created_time,
        )
        if account.banned and account.ban_time is not None and time >= account.ban_time:
            raise RuntimeError(f"banned account {username!r} cannot publish")
        torrent_id = self._next_id
        self._next_id += 1
        account.record_publication(time, torrent_id)
        page = ContentPage(
            torrent_id=torrent_id,
            title=title,
            category=category,
            size_bytes=size_bytes,
            username=username,
            upload_time=time,
            description=description,
        )
        self._items[torrent_id] = _Item(
            torrent_id=torrent_id,
            torrent_bytes=torrent_bytes,
            page=page,
            is_fake=is_fake,
            payload_kind=payload_kind,
            bundled_file_names=bundled_file_names,
            magnet_uri=magnet_uri,
        )
        self.feed.publish(
            RssEntry(
                published_time=time,
                torrent_id=torrent_id,
                title=title,
                category=category,
                size_bytes=size_bytes,
                username=username,
                magnet_uri=magnet_uri,
            )
        )
        self._m_publishes.inc(kind=payload_kind)
        self.metrics.trace.record(
            time, "portal.publish", torrent_id=torrent_id, username=username
        )
        return torrent_id

    def schedule_removal(self, torrent_id: int, removal_time: float) -> None:
        """Moderation decision: this torrent disappears at ``removal_time``."""
        item = self._require(torrent_id)
        item.removal_time = removal_time
        self._m_removals.inc()
        self.metrics.trace.record(
            removal_time, "portal.moderation_removal", torrent_id=torrent_id
        )

    def ban_account(self, username: str, time: float) -> None:
        self.accounts.ban(username, time)
        self._m_bans.inc()

    # ------------------------------------------------------------------
    # Public views (crawler / analyst-facing)
    # ------------------------------------------------------------------
    def _require(self, torrent_id: int) -> _Item:
        item = self._items.get(torrent_id)
        if item is None:
            raise KeyError(f"unknown torrent id {torrent_id}")
        return item

    def _visible(self, item: _Item, now: float) -> bool:
        return item.removal_time is None or now < item.removal_time

    def get_torrent_file(self, torrent_id: int, now: float) -> Optional[bytes]:
        """The .torrent bytes, or None once moderation removed the item.

        Magnet-only publications also return None (there is nothing to
        download); :meth:`get_magnet` is the way in for those.
        """
        item = self._require(torrent_id)
        if not self._visible(item, now):
            self._m_downloads.inc(result="gone")
            return None
        if item.torrent_bytes is None:
            self._m_downloads.inc(result="magnet_only")
            return None
        self._m_downloads.inc(result="ok")
        return item.torrent_bytes

    def get_magnet(self, torrent_id: int, now: float) -> Optional[str]:
        """The item's magnet URI (None if removed or never published one)."""
        item = self._require(torrent_id)
        if not self._visible(item, now):
            self._m_magnets.inc(result="gone")
            return None
        if item.magnet_uri is None:
            self._m_magnets.inc(result="absent")
            return None
        self._m_magnets.inc(result="ok")
        return item.magnet_uri

    def content_page(self, torrent_id: int, now: float) -> Optional[ContentPage]:
        item = self._require(torrent_id)
        return item.page if self._visible(item, now) else None

    def download_content(self, torrent_id: int, now: float) -> Optional[DownloadExperience]:
        """Emulate actually downloading & opening the content (Section 5)."""
        item = self._require(torrent_id)
        if not self._visible(item, now):
            return None
        return DownloadExperience(
            is_fake=item.is_fake,
            payload_kind=item.payload_kind,
            bundled_file_names=item.bundled_file_names,
        )

    def user_page(self, username: str, now: float) -> Optional[UserPage]:
        """The account's public page; None once the account is banned."""
        account = self.accounts.get(username)
        if account is None:
            return None
        if account.banned and account.ban_time is not None and now >= account.ban_time:
            return None
        recent = tuple(tid for t, tid in account.publications if t <= now)
        last = None
        times_in_window = [t for t, _ in account.publications if t <= now]
        if times_in_window:
            last = max(times_in_window)
        elif account.historical_count:
            last = account.first_publication_time
        return UserPage(
            username=username,
            first_publication_time=account.first_publication_time,
            last_publication_time=last,
            total_publications=account.historical_count + len(times_in_window),
            recent_torrent_ids=recent[-50:],
        )

    @property
    def num_items(self) -> int:
        return len(self._items)

    def torrent_ids(self) -> List[int]:
        return list(self._items)

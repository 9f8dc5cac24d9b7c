"""The portal's RSS feed of newly published torrents.

The feed is the crawler's discovery channel: each entry carries the title,
category, content size and (on portals that expose it -- The Pirate Bay did,
Mininova's feed did not carry a usable username in the mn08 crawl) the
publishing username.  Entries are kept time-ordered so "what's new since my
last poll" is a binary search.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.portal.categories import Category


@dataclass(frozen=True)
class RssEntry:
    """One feed item."""

    published_time: float
    torrent_id: int
    title: str
    category: Category
    size_bytes: int
    username: Optional[str]  # None when the portal's feed omits it
    # Trackerless portals put a magnet URI in the feed instead of (or next
    # to) a .torrent download link; None on .torrent-only portals.
    magnet_uri: Optional[str] = None


class RssFeed:
    """Append-only, time-ordered feed.

    Like a real portal's RSS document, a poll only exposes the most recent
    ``depth`` items (The Pirate Bay's feed held a few dozen): a crawler that
    polls too rarely while publications burst *misses* torrents, which is
    why the paper's monitor polls every few minutes.
    """

    def __init__(self, include_username: bool = True, depth: int = 60) -> None:
        if depth < 1:
            raise ValueError("feed depth must be >= 1")
        self.include_username = include_username
        self.depth = depth
        self._entries: List[RssEntry] = []
        self._times: List[float] = []

    def publish(self, entry: RssEntry) -> None:
        if self._times and entry.published_time < self._times[-1]:
            raise ValueError(
                "RSS entries must be appended in time order "
                f"({self._times[-1]} then {entry.published_time})"
            )
        if not self.include_username and entry.username is not None:
            entry = replace(entry, username=None)
        self._entries.append(entry)
        self._times.append(entry.published_time)

    def entries_between(self, after: float, until: float) -> List[RssEntry]:
        """New entries visible to a poll at time ``until``.

        Returns entries with ``after < published_time <= until`` that are
        still within the feed's most-recent-``depth`` window at poll time;
        older unseen entries have scrolled off the feed and are lost to the
        poller.
        """
        lo = bisect.bisect_right(self._times, after)
        hi = bisect.bisect_right(self._times, until)
        visible_from = max(lo, hi - self.depth)
        return self._entries[visible_from:hi]

    def __len__(self) -> int:
        return len(self._entries)

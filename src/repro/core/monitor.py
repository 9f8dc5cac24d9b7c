"""Section 7: the continuous content-publishing monitoring application.

Unlike the full measurement campaign, the monitor "makes only one connection
to the tracker just after we learn of a new torrent from The Pirate Bay RSS
feed": it tracks publishers, not downloaders.  That is exactly the crawler
in single-query mode (``monitor_swarms=False``, as for pb09), so the monitor
*is* a :class:`~repro.core.crawler.Crawler` whose database is the campaign
archive (:class:`~repro.core.export.CampaignArchive`): every discovered
torrent -- via .torrent or magnet link, tracker or DHT -- is written there
with its publisher IP's GeoIP row (ISP, city, country), so a monitor
database written to a file loads with :func:`~repro.core.export.load_dataset`.
Fake publishers can be flagged so that client-facing queries filter them
out (the feature the paper says it is working on).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from repro.core.crawler import Crawler
from repro.core.datasets import IdentificationOutcome
from repro.core.export import CampaignArchive, PublisherRow
from repro.peerwire import ContentVerdict, verify_content
from repro.portal.rss import RssEntry
from repro.simulation.engine import EventScheduler
from repro.simulation.world import World
from repro.torrent import TorrentMeta, parse_torrent


class ContentPublishingMonitor(Crawler):
    """Live monitor feeding a :class:`CampaignArchive`.

    Its counts live in the world's registry: the crawler's
    ``crawler.torrents_discovered`` and ``crawler.identification``, plus
    ``monitor.contents_verified`` and ``monitor.fakes_caught``.
    """

    def __init__(
        self,
        world: World,
        scheduler: EventScheduler,
        rng: random.Random,
        store: Optional[CampaignArchive] = None,
        poll_interval: float = 5.0,
        verify_content_fraction: float = 0.0,
    ) -> None:
        """``verify_content_fraction`` enables the fake-content filter the
        paper announces as future work: that fraction of new torrents gets a
        sample of pieces downloaded and hash-checked an hour after
        publication; a failed check flags the publishing account as fake.
        ``rng`` draws which torrents are verified and which pieces."""
        if not 0.0 <= verify_content_fraction <= 1.0:
            raise ValueError("verify_content_fraction must be in [0, 1]")
        settings = dataclasses.replace(
            world.config.crawler,
            monitor_swarms=False,
            rss_poll_interval=poll_interval,
        )
        super().__init__(world, scheduler, rng, settings)
        self.store = store if store is not None else CampaignArchive()
        self.verify_content_fraction = verify_content_fraction
        self._m_verified = self.metrics.counter("monitor.contents_verified").labels()
        self._m_fakes = self.metrics.counter("monitor.fakes_caught").labels()
        self._started = False

    @property
    def publications_seen(self) -> int:
        return int(self._m_discovered.value())

    @property
    def publishers_located(self) -> int:
        return int(
            self._m_identification.value(
                outcome=IdentificationOutcome.IP_IDENTIFIED.name
            )
        )

    @property
    def contents_verified(self) -> int:
        return int(self._m_verified.value())

    @property
    def fakes_caught(self) -> int:
        return int(self._m_fakes.value())

    # ------------------------------------------------------------------
    # Live operation
    # ------------------------------------------------------------------
    def run_until(self, end_time: float) -> None:
        """Monitor the portal feed until ``end_time`` (simulated minutes),
        then write the campaign's meta rows and commit.  The first call
        starts the RSS poll chain; later calls resume it."""
        if not self._started:
            self._started = True
            self.start()
        self.scheduler.run_until(end_time)
        self.store.write_meta(self.build_dataset())
        self.store.commit()

    def _discover(self, entry: RssEntry, now: float) -> None:
        super()._discover(entry, now)
        record = self.records[entry.torrent_id]
        # Only a fetched .torrent carries the piece hashes to check against.
        if (
            record.identification is not IdentificationOutcome.TORRENT_GONE
            and not record.via_magnet
            and self.verify_content_fraction > 0.0
            and self.rng.random() < self.verify_content_fraction
        ):
            # The crawler keeps no metainfo, so fetch it again for the check.
            # Verify an hour after publication, when the (sole) seeder of a
            # decoy is still around but honest swarms have finished peers.
            torrent_bytes = self.world.portal.get_torrent_file(entry.torrent_id, now)
            self.scheduler.schedule(
                now + 60.0, self._verify_content, entry, parse_torrent(torrent_bytes)
            )
        # Commit each publication as it lands, so other connections to a
        # file-backed database see the live feed.
        self.store.add_record(record, self.world.geoip)
        self.store.commit()

    def _verify_content(self, entry: RssEntry, meta: TorrentMeta) -> None:
        """The realised fake filter: sample pieces, hash-check, flag."""
        swarm = self.world.swarm_for(entry.torrent_id)
        result = verify_content(swarm, meta, self.scheduler.clock.now, self.rng)
        if result.verdict is ContentVerdict.UNREACHABLE:
            return
        self._m_verified.inc()
        if result.verdict is ContentVerdict.CORRUPT and entry.username:
            self._m_fakes.inc()
            self.flag_fake(
                entry.username,
                note=f"piece hash check failed on torrent {entry.torrent_id}",
            )

    # ------------------------------------------------------------------
    # Annotations
    # ------------------------------------------------------------------
    def flag_fake(self, username: str, note: str = "") -> None:
        """Flag a fake publisher so client queries can filter it out."""
        self.store.annotate_publisher(
            PublisherRow(
                username=username,
                promoted_url=None,
                business_type=None,
                profit_driven=False,
                fake=True,
                note=note or "detected fake publisher",
            )
        )

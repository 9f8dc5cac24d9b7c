"""The measurement crawler (Section 2).

One crawler instance drives a whole campaign on the event scheduler:

1. **Discovery** -- poll the portal's RSS feed every few minutes; each new
   entry yields the username (where the feed carries it) and triggers an
   immediate .torrent download and tracker announce, usually within minutes
   of the swarm's birth.
2. **Identification** -- apply the single-seeder/bitfield rule
   (:mod:`repro.core.identification`); successfully identified publisher
   IPs join a global *watchlist*.
3. **Monitoring** -- several geographically distributed vantage machines
   each re-announce at the tracker-advertised interval (10--15 min),
   staggered so the aggregate sampling resolution is higher than any single
   client could achieve without being blacklisted.  Monitoring stops after
   :data:`EMPTY_REPLIES_TO_STOP` consecutive empty replies.

Every tracker response is processed into the campaign's
:class:`~repro.core.datasets.TorrentRecord`: distinct downloader IPs,
sightings of watched (publisher) IPs, query times and the peak population
used by the Appendix A estimator.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Set

from repro.core.datasets import Dataset, IdentificationOutcome, TorrentRecord
from repro.core.dht_crawler import DhtCrawler
from repro.core.identification import identify_publisher
from repro.peerwire import BitfieldProber
from repro.portal.rss import RssEntry
from repro.simulation.engine import EventScheduler
from repro.simulation.scenarios import CrawlerSettings, ScenarioConfig
from repro.simulation.world import World
from repro.torrent import MagnetError, parse_magnet, parse_torrent
from repro.torrent.metainfo import DEFAULT_PIECE_LENGTH
from repro.tracker import AnnounceRequest, TrackerError, decode_announce_response
from repro.websites import default_monitor_panel

_CRAWLER_PEER_ID = b"-RP1000-repro-crawl1"
# Vantage machines live outside the synthetic address plan (10.66.x.x), so
# they can never collide with a world address.
_VANTAGE_BASE_IP = (10 << 24) | (66 << 16)
# Consecutive empty monitoring replies after which a swarm counts as dead.
EMPTY_REPLIES_TO_STOP = 10
# How long after discovery a NO_SEEDER torrent is still re-identified.
IDENTIFICATION_RETRY_MINUTES = 90.0


class Crawler:
    """One measurement campaign against one world."""

    def __init__(
        self,
        world: World,
        scheduler: EventScheduler,
        rng: random.Random,
        settings: Optional[CrawlerSettings] = None,
    ) -> None:
        self.world = world
        self.scheduler = scheduler
        self.rng = rng
        self.settings = settings if settings is not None else world.config.crawler
        self.records: Dict[int, TorrentRecord] = {}
        self.watchlist: Set[int] = set()
        self._vantage_ips = [
            _VANTAGE_BASE_IP + index for index in range(self.settings.vantage_count)
        ]
        self._probers: Dict[int, BitfieldProber] = {}
        # AnnounceRequests are immutable and identical for every poll of one
        # (torrent, vantage) pair, so they are built once and reused -- a
        # monitoring campaign issues tens of thousands of them.
        self._announce_requests: Dict[tuple, AnnounceRequest] = {}
        self._last_rss_time = float("-inf")
        self._hard_stop = world.config.horizon_minutes
        # Every count lives in the world's registry; Dataset.crawler_stats
        # reads them back off the final snapshot.
        self.metrics = registry = world.metrics
        self._m_rss_polls = registry.counter("crawler.rss_polls").labels()
        # The two hot announce outcomes get pre-bound handles; rare label
        # sets keep using the kwargs API on the parent counter.
        announces = registry.counter("crawler.announces")
        self._m_announces = announces
        self._m_announce_ok = announces.labels(outcome="ok")
        self._m_announce_failure = announces.labels(outcome="failure")
        self._m_discovered = registry.counter("crawler.torrents_discovered").labels()
        self._m_identification = registry.counter("crawler.identification")
        self._m_monitor_stops = registry.counter("crawler.monitor_stops")
        self._m_watchlist = registry.gauge("crawler.watchlist_size").labels()
        self._m_lag = registry.histogram("crawler.discovery_lag_minutes").labels()
        self._m_probes = registry.gauge("crawler.probes").labels()
        # Discovery channels (ISSUE 2).  The tracker is used unless the
        # scenario disables it; the DHT client exists only when the world
        # built an overlay.
        config = world.config
        self._use_tracker = config.uses_tracker
        self._use_dht = config.uses_dht and world.dht is not None
        self.dht_crawler: Optional[DhtCrawler] = None
        if self._use_dht:
            self.dht_crawler = DhtCrawler(
                world.dht,
                random.Random(rng.getrandbits(64)),
                metrics=self.metrics,
            )

    # ------------------------------------------------------------------
    # Campaign control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first RSS poll; everything else cascades from it."""
        self.scheduler.schedule(self.scheduler.clock.now, self._poll_rss)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _poll_rss(self) -> None:
        now = self.scheduler.clock.now
        self._m_rss_polls.inc()
        entries = self.world.portal.feed.entries_between(self._last_rss_time, now)
        self._last_rss_time = now
        for entry in entries:
            self._discover(entry, now)
        if now + self.settings.rss_poll_interval <= self.world.config.window_minutes:
            self.scheduler.schedule_after(self.settings.rss_poll_interval, self._poll_rss)

    def _discover(self, entry: RssEntry, now: float) -> None:
        record = TorrentRecord(
            torrent_id=entry.torrent_id,
            infohash=b"\x00" * 20,  # filled in after the .torrent download
            title=entry.title,
            category=entry.category,
            size_bytes=entry.size_bytes,
            publish_time=entry.published_time,
            username=entry.username,
            discovered_time=now,
        )
        self.records[entry.torrent_id] = record
        self._m_discovered.inc()
        self._m_lag.observe(now - entry.published_time)
        self.metrics.trace.record(
            now, "crawler.discover", torrent_id=entry.torrent_id
        )

        if not self._acquire_metadata(record, entry, now):
            record.identification = IdentificationOutcome.TORRENT_GONE
            self._m_identification.inc(outcome=IdentificationOutcome.TORRENT_GONE.name)
            record.done = True
            return

        # Immediate first contact: tracker announce (vantage 0) and/or an
        # iterative DHT lookup, depending on the scenario's channels.
        response = None
        if self._use_tracker:
            response = self._announce(record, vantage=0, now=now)
        dht_result = None
        if self._use_dht:
            dht_result = self._dht_lookup(record, now)
        observation = response if response is not None else dht_result
        if observation is not None:
            record.first_contact_time = now
            record.first_seeders = observation.seeders
            record.first_leechers = observation.leechers
            self._attempt_identification(record, observation, now)

        if self.settings.monitor_swarms:
            if self._use_tracker:
                self._schedule_vantage_polls(record, now, response)
            if self._use_dht:
                at = now + self.settings.dht_poll_interval
                if at <= self._hard_stop:
                    self.scheduler.schedule(
                        at, self._dht_monitor_poll, record.torrent_id
                    )
        else:
            record.done = True
            record.monitoring_ended = now

    def _acquire_metadata(
        self, record: TorrentRecord, entry: RssEntry, now: float
    ) -> bool:
        """Learn the infohash and piece count: .torrent first, magnet second.

        The magnet path models a BEP 9 metadata fetch: the infohash comes
        from the link; the piece count is derived from the advertised
        content size exactly as ``build_torrent`` derives it, so bitfield
        probing works identically on magnet-only publications.
        """
        torrent_bytes = self.world.portal.get_torrent_file(record.torrent_id, now)
        if torrent_bytes is not None:
            meta = parse_torrent(torrent_bytes)
            record.infohash = meta.infohash
            record.bundled_files = tuple(
                f.path for f in meta.files if f.path != meta.name
            )
            num_pieces = meta.num_pieces
        else:
            magnet_uri = self.world.portal.get_magnet(record.torrent_id, now)
            if magnet_uri is None:
                return False
            try:
                record.infohash = parse_magnet(magnet_uri).infohash
            except MagnetError:
                return False
            record.via_magnet = True
            num_pieces = max(
                1, math.ceil(record.size_bytes / DEFAULT_PIECE_LENGTH)
            )
        self._probers[record.torrent_id] = BitfieldProber(
            self.world.swarm_for(record.torrent_id),
            num_pieces,
            _CRAWLER_PEER_ID,
        )
        return True

    # ------------------------------------------------------------------
    # Tracker interaction
    # ------------------------------------------------------------------
    def _announce(self, record: TorrentRecord, vantage: int, now: float):
        request_key = (record.torrent_id, vantage)
        request = self._announce_requests.get(request_key)
        if request is None:
            request = self._announce_requests[request_key] = AnnounceRequest(
                infohash=record.infohash,
                client_ip=self._vantage_ips[vantage],
            )
        tracker = self.world.tracker
        if tracker.config.wire_fidelity == "sampled":
            # Object path: the tracker hands back the response dataclass and
            # only round-trips 1-in-N messages through the codec itself.
            try:
                response = tracker.announce_object(request, now)
            except TrackerError:
                self._m_announce_failure.inc()
                return None
        else:
            raw = tracker.announce(request, now)
            try:
                response = decode_announce_response(raw)
            except TrackerError:
                self._m_announce_failure.inc()
                return None
        self._m_announce_ok.inc()
        self._process_response(record, response, now)
        return response

    def _process_response(
        self, record: TorrentRecord, response, now: float, channel: str = "tracker"
    ) -> None:
        record.query_times.append(now)
        record.seeder_counts.append(response.seeders)
        record.leecher_counts.append(response.leechers)
        record.max_population = max(record.max_population, response.total_peers)
        channel_ips = record.tracker_ips if channel == "tracker" else record.dht_ips
        watchlist = self.watchlist
        downloader_ips = record.downloader_ips
        publisher_ip = record.publisher_ip
        for ip, _port in response.peers:
            channel_ips.add(ip)
            if ip in watchlist:
                record.record_sighting(ip, now)
            if ip != publisher_ip:
                downloader_ips.add(ip)

    # ------------------------------------------------------------------
    # DHT interaction
    # ------------------------------------------------------------------
    def _dht_lookup(self, record: TorrentRecord, now: float):
        assert self.dht_crawler is not None
        result = self.dht_crawler.lookup(record.infohash, now)
        self._process_response(record, result, now, channel="dht")
        return result

    def _dht_monitor_poll(self, torrent_id: int) -> None:
        record = self.records[torrent_id]
        if record.done:
            return
        now = self.scheduler.clock.now
        result = self._dht_lookup(record, now)
        at = now + self.settings.dht_poll_interval
        if self._use_tracker:
            # Hybrid: the tracker polls drive the stop rule.
            if at <= self._hard_stop:
                self.scheduler.schedule(at, self._dht_monitor_poll, torrent_id)
            return
        if self._identification_pending(record, now):
            self._attempt_identification(record, result, now)
        # The DHT is the primary channel: it drives the stop rule, just as
        # tracker replies do on the tracker path.
        if self._keep_monitoring(record, result.total_peers, now, at):
            self.scheduler.schedule(at, self._dht_monitor_poll, torrent_id)

    # ------------------------------------------------------------------
    # Identification
    # ------------------------------------------------------------------
    def _attempt_identification(self, record: TorrentRecord, response, now: float) -> None:
        prober = self._probers.get(record.torrent_id)
        if prober is None:
            return
        result = identify_publisher(
            response, prober, now, max_probe_peers=self.settings.max_probe_peers
        )
        record.identification = result.outcome
        self._m_identification.inc(outcome=result.outcome.name)
        if result.publisher_ip is not None:
            record.publisher_ip = result.publisher_ip
            record.identified_time = now
            self.watchlist.add(result.publisher_ip)
            self._m_watchlist.set(len(self.watchlist))
            self.metrics.trace.record(
                now,
                "crawler.publisher_identified",
                torrent_id=record.torrent_id,
                ip=result.publisher_ip,
            )
            # The publisher's own sightings start with this observation, and
            # it must not be counted as a downloader of its own torrent.
            record.downloader_ips.discard(result.publisher_ip)
            record.record_sighting(result.publisher_ip, now)

    def _identification_pending(self, record: TorrentRecord, now: float) -> bool:
        if record.identification is not IdentificationOutcome.NO_SEEDER:
            return False
        return now <= record.discovered_time + IDENTIFICATION_RETRY_MINUTES

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def _schedule_vantage_polls(self, record: TorrentRecord, now: float, response) -> None:
        interval = (
            response.interval_seconds / 60.0
            if response is not None
            else self.world.tracker.config.max_interval
        )
        for vantage in range(self.settings.vantage_count):
            # Stagger vantages across one interval for higher aggregate
            # resolution (the paper's multi-machine trick).  Every vantage
            # waits at least one full interval before its first poll so no
            # vantage ever violates the tracker's per-client rate limit
            # (vantage 0 already announced at discovery time).
            offset = interval * (1.0 + vantage / self.settings.vantage_count)
            at = now + offset
            if at <= self._hard_stop:
                self.scheduler.schedule(at, self._monitor_poll, record.torrent_id, vantage)

    def _monitor_poll(self, torrent_id: int, vantage: int) -> None:
        record = self.records[torrent_id]
        if record.done:
            return
        now = self.scheduler.clock.now
        response = self._announce(record, vantage=vantage, now=now)
        if response is None:
            # Rate-limited or tracker hiccup: retry after the safe interval.
            at = now + self.world.tracker.config.max_interval
            if at <= self._hard_stop:
                self.scheduler.schedule(at, self._monitor_poll, torrent_id, vantage)
            return

        if self._identification_pending(record, now):
            self._attempt_identification(record, response, now)

        interval = max(response.interval_seconds / 60.0,
                       self.world.tracker.config.min_interval)
        at = now + interval
        if self._keep_monitoring(record, response.total_peers, now, at):
            self.scheduler.schedule(at, self._monitor_poll, torrent_id, vantage)

    def _keep_monitoring(
        self, record: TorrentRecord, total_peers: int, now: float, next_at: float
    ) -> bool:
        """The stop rule, applied after each monitoring reply.

        Monitoring ends after :data:`EMPTY_REPLIES_TO_STOP` consecutive empty
        replies, or when the next poll at ``next_at`` would fall past the
        horizon.  Returns True when the caller should poll again.
        """
        if total_peers == 0:
            record.empty_streak += 1
        else:
            record.empty_streak = 0
        if record.empty_streak >= EMPTY_REPLIES_TO_STOP:
            record.done = True
            record.monitoring_ended = now
            self._m_monitor_stops.inc(reason="empty_replies")
            self.metrics.trace.record(
                now, "crawler.monitor_stop", torrent_id=record.torrent_id,
                reason="empty_replies",
            )
            return False
        if next_at <= self._hard_stop:
            return True
        record.done = True
        record.monitoring_ended = self._hard_stop
        self._m_monitor_stops.inc(reason="horizon")
        return False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def build_dataset(self) -> Dataset:
        config: ScenarioConfig = self.world.config
        self._m_probes.set(
            sum(prober.probes_sent for prober in self._probers.values())
        )
        # Final identification outcome per torrent (idempotent gauge, unlike
        # the attempt counter which counts every retry).
        final = self.metrics.gauge("crawler.identification_final")
        outcomes: Dict[str, int] = {}
        for record in self.records.values():
            name = record.identification.name
            outcomes[name] = outcomes.get(name, 0) + 1
        for name, count in outcomes.items():
            final.set(count, outcome=name)
        return Dataset(
            name=config.name,
            config=config,
            start_time=0.0,
            end_time=config.window_minutes,
            analysis_time=config.horizon_minutes,
            records=self.records,
            geoip=self.world.geoip,
            portal=self.world.portal,
            web_directory=self.world.web_directory,
            monitor_panel=default_monitor_panel(),
            metrics=self.metrics.snapshot(),
        )

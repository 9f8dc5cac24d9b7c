"""Dataset containers: what one measurement campaign produced.

A :class:`Dataset` is the analysis pipeline's only view of the world.  It
holds per-torrent :class:`TorrentRecord` observations gathered by the
crawler plus handles to the *public* services the paper's authors also used
after the crawl: the portal's web pages, the GeoIP database, the web-site
directory and the website-statistics monitors.  It never exposes simulator
ground truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.geoip import GeoIpDatabase
from repro.portal import Portal
from repro.portal.categories import Category
from repro.simulation.scenarios import ScenarioConfig
from repro.websites import MonitorPanel, WebDirectory


class IdentificationOutcome(enum.Enum):
    """Why the initial publisher's IP was (not) identified (Section 2)."""

    IP_IDENTIFIED = "single seeder probed; complete bitfield found"
    NAT_UNREACHABLE = "single seeder but behind NAT; probe failed"
    MULTIPLE_SEEDERS = "more than one seeder at first contact"
    TOO_MANY_PEERS = "swarm already large at first contact (pre-published?)"
    NO_SEEDER = "tracker never reported a seeder in the identification window"
    AMBIGUOUS = "probing found an inconsistent number of complete peers"
    TORRENT_GONE = "torrent removed from the portal before first contact"
    NOT_ATTEMPTED = "identification not attempted"


@dataclass
class TorrentRecord:
    """Everything the crawler learned about one published torrent."""

    torrent_id: int
    infohash: bytes
    title: str
    category: Category
    size_bytes: int
    publish_time: float  # RSS timestamp
    username: Optional[str]  # None on portals whose feed omits it (mn08)
    discovered_time: float = 0.0
    bundled_files: Tuple[str, ...] = ()
    # First tracker contact.
    first_contact_time: Optional[float] = None
    first_seeders: int = 0
    first_leechers: int = 0
    # Publisher identification.
    identification: IdentificationOutcome = IdentificationOutcome.NOT_ATTEMPTED
    publisher_ip: Optional[int] = None
    identified_time: Optional[float] = None
    # Monitoring.  The three count lists are parallel to query_times: one
    # (seeders, leechers, returned) observation per tracker query -- the
    # "high resolution view of participating peers and their evolution over
    # time" the paper aggregates multiple vantage machines to obtain.
    query_times: List[float] = field(default_factory=list)
    seeder_counts: List[int] = field(default_factory=list)
    leecher_counts: List[int] = field(default_factory=list)
    downloader_ips: Set[int] = field(default_factory=set)
    # Per-discovery-channel views of the same swarm (ISSUE 2): every peer IP
    # ever returned by a tracker announce vs. by a DHT get_peers lookup.
    # Unlike downloader_ips these include the publisher once identified.
    tracker_ips: Set[int] = field(default_factory=set)
    dht_ips: Set[int] = field(default_factory=set)
    # True when metadata came from a magnet link (no .torrent download).
    via_magnet: bool = False
    watched_sightings: Dict[int, List[float]] = field(default_factory=dict)
    max_population: int = 0
    monitoring_ended: Optional[float] = None
    empty_streak: int = 0
    done: bool = False

    @property
    def num_downloaders(self) -> int:
        """Distinct downloader IPs observed (the paper's popularity metric)."""
        return len(self.downloader_ips)

    @property
    def num_queries(self) -> int:
        return len(self.query_times)

    def population_series(self) -> List[Tuple[float, int, int]]:
        """(time, seeders, leechers) per query, time-ordered."""
        return list(zip(self.query_times, self.seeder_counts, self.leecher_counts))

    def record_sighting(self, ip: int, time: float) -> None:
        self.watched_sightings.setdefault(ip, []).append(time)

    def sightings_of(self, ips: Iterable[int]) -> List[float]:
        """All observation times of any of ``ips`` in this torrent, sorted."""
        times: List[float] = []
        for ip in ips:
            times.extend(self.watched_sightings.get(ip, ()))
        times.sort()
        return times


def publisher_ips(records: Iterable[TorrentRecord]) -> Set[int]:
    """Every publisher IP identified across ``records``."""
    return {r.publisher_ip for r in records if r.publisher_ip is not None}


@dataclass
class Dataset:
    """One campaign's observations plus the public lookup services."""

    name: str
    config: ScenarioConfig
    start_time: float
    end_time: float
    analysis_time: float  # the paper's "measurement date" for portal lookups
    records: Dict[int, TorrentRecord]
    geoip: GeoIpDatabase
    portal: Portal
    web_directory: WebDirectory
    monitor_panel: MonitorPanel
    # Full observability snapshot (MetricsRegistry.snapshot()) taken when the
    # campaign's dataset was built; {} for datasets loaded from old archives.
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def crawler_stats(self) -> Dict[str, int]:
        """The crawler's counts (Section 2), read off the metrics snapshot.

        The registry is the only place a count is kept; an instrument the
        run never created reads as 0.
        """

        def read(name: str, label: Optional[str] = None) -> int:
            values = self.metrics.get(name, {}).get("values", {})
            if label is None:
                return int(sum(values.values()))
            return int(values.get(label, 0))

        return {
            "rss_polls": read("crawler.rss_polls"),
            "announces": read("crawler.announces"),
            "announce_failures": read("crawler.announces", "outcome=failure"),
            "probes": read("crawler.probes"),
            "torrents_discovered": read("crawler.torrents_discovered"),
            "dht_lookups": read("dht.lookups"),
            "magnet_resolutions": sum(
                1 for r in self.records.values() if r.via_magnet
            ),
        }

    # ------------------------------------------------------------------
    # Table 1-style accessors
    # ------------------------------------------------------------------
    def torrents(self) -> List[TorrentRecord]:
        return list(self.records.values())

    @property
    def num_torrents(self) -> int:
        return len(self.records)

    @property
    def num_with_username(self) -> int:
        return sum(1 for r in self.records.values() if r.username is not None)

    @property
    def num_with_publisher_ip(self) -> int:
        return sum(1 for r in self.records.values() if r.publisher_ip is not None)

    def total_distinct_ips(self) -> int:
        """Distinct IP addresses discovered across all monitored swarms."""
        seen: Set[int] = set()
        for record in self.records.values():
            seen.update(record.downloader_ips)
            if record.publisher_ip is not None:
                seen.add(record.publisher_ip)
        return len(seen)

    def summary_dict(self) -> Dict[str, int]:
        """The Table-1 row as a plain dict (sweep payloads, run reports)."""
        return {
            "num_torrents": self.num_torrents,
            "num_with_username": self.num_with_username,
            "num_with_publisher_ip": self.num_with_publisher_ip,
            "total_distinct_ips": self.total_distinct_ips(),
        }

    # ------------------------------------------------------------------
    # Publisher-level accessors
    # ------------------------------------------------------------------
    def has_usernames(self) -> bool:
        return any(r.username is not None for r in self.records.values())

    def records_by_username(self) -> Dict[str, List[TorrentRecord]]:
        out: Dict[str, List[TorrentRecord]] = {}
        for record in self.records.values():
            if record.username is not None:
                out.setdefault(record.username, []).append(record)
        return out

    def records_by_publisher_ip(self) -> Dict[int, List[TorrentRecord]]:
        out: Dict[int, List[TorrentRecord]] = {}
        for record in self.records.values():
            if record.publisher_ip is not None:
                out.setdefault(record.publisher_ip, []).append(record)
        return out

    def publisher_ips_of(self, username: str) -> Set[int]:
        """Every IP this username was identified publishing from.

        Scans every record; to cover many usernames, apply
        :func:`publisher_ips` to :meth:`records_by_username` lists instead.
        """
        return publisher_ips(
            r for r in self.records.values() if r.username == username
        )

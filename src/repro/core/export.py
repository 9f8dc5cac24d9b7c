"""Dataset archival: save a measurement campaign to SQLite and load it back.

The paper makes its gathered data "publicly available through a web
interface"; this module is the archival layer that makes a campaign a
shareable artifact.  The archive is self-contained: torrent records,
per-torrent query times, downloader IP sets, watched-IP sightings and the
run's metrics snapshot (which the crawler's counts are read off) all
round-trip, so the full analysis pipeline can run on a loaded archive
without the simulator.

``meta.schema_version`` names the archive layout.  Version 2 (written
today) drops version 1's ``crawler_stats`` meta key and always carries
``metrics``; a version-1 archive (no ``schema_version``) still loads, its
``crawler_stats`` ignored.  Any other version is refused.

Lookup services (GeoIP, portal pages, web directory, monitor panel) are
*live services*, not data; a loaded dataset needs them re-attached (pass the
world's, or run analyses that do not need them).  The archive stores enough
GeoIP material (an IP -> ISP/kind/country/city table for every observed
publisher IP) to keep the ISP analyses working standalone via
:class:`ArchivedGeoIp`.
"""

from __future__ import annotations

import errno
import json
import os
import sqlite3
from pathlib import Path
from typing import Dict, Optional

from repro.core.datasets import Dataset, IdentificationOutcome, TorrentRecord
from repro.geoip import GeoIpDatabase, GeoRecord, IspKind
from repro.portal.categories import Category
from repro.simulation.scenarios import ScenarioConfig

SCHEMA_VERSION = "2"

_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);

CREATE TABLE torrents (
    torrent_id       INTEGER PRIMARY KEY,
    infohash         BLOB NOT NULL,
    title            TEXT NOT NULL,
    category         TEXT NOT NULL,
    size_bytes       INTEGER NOT NULL,
    publish_time     REAL NOT NULL,
    username         TEXT,
    discovered_time  REAL NOT NULL,
    bundled_files    TEXT NOT NULL,
    first_contact    REAL,
    first_seeders    INTEGER NOT NULL,
    first_leechers   INTEGER NOT NULL,
    identification   TEXT NOT NULL,
    publisher_ip     INTEGER,
    identified_time  REAL,
    max_population   INTEGER NOT NULL,
    monitoring_ended REAL,
    query_times      TEXT NOT NULL,
    seeder_counts    TEXT NOT NULL,
    leecher_counts   TEXT NOT NULL,
    downloader_ips   TEXT NOT NULL,
    sightings        TEXT NOT NULL,
    tracker_ips      TEXT NOT NULL DEFAULT '[]',
    dht_ips          TEXT NOT NULL DEFAULT '[]',
    via_magnet       INTEGER NOT NULL DEFAULT 0
);

CREATE TABLE geoip (
    ip      INTEGER PRIMARY KEY,
    isp     TEXT NOT NULL,
    kind    TEXT NOT NULL,
    country TEXT NOT NULL,
    city    TEXT NOT NULL
);
"""


class ArchivedGeoIp(GeoIpDatabase):
    """A GeoIP view reconstructed from an archive (publisher IPs only)."""

    def __init__(self, table: Dict[int, GeoRecord]) -> None:
        # Intentionally does not call super().__init__: lookups go through
        # the per-IP table rather than per-prefix data.
        self._table = dict(table)

    def lookup(self, ip: int) -> Optional[GeoRecord]:
        return self._table.get(ip)

    def isp_of(self, ip: int) -> Optional[str]:
        record = self._table.get(ip)
        return record.isp if record else None

    def __len__(self) -> int:
        return len(self._table)


def save_dataset(dataset: Dataset, path: str, overwrite: bool = False) -> None:
    """Write the campaign to a SQLite archive at ``path``.

    An existing archive is refused unless ``overwrite=True`` (which replaces
    it atomically from the reader's perspective: the old file is unlinked
    first, so a concurrent reader keeps its open snapshot).
    """
    if os.path.exists(path):
        if not overwrite:
            raise FileExistsError(
                f"archive already exists at {path!r}; "
                "pass overwrite=True to replace it"
            )
        os.remove(path)
    conn = sqlite3.connect(path)
    try:
        conn.executescript("PRAGMA journal_mode=MEMORY;")
        conn.executescript(_SCHEMA)
        meta = {
            "schema_version": SCHEMA_VERSION,
            "name": dataset.name,
            "start_time": str(dataset.start_time),
            "end_time": str(dataset.end_time),
            "analysis_time": str(dataset.analysis_time),
            "metrics": json.dumps(dataset.metrics, sort_keys=True),
            "config_name": dataset.config.name,
            "portal_name": dataset.config.portal_name,
            "rss_includes_username": str(int(dataset.config.rss_includes_username)),
            "window_days": str(dataset.config.window_days),
            "post_window_days": str(dataset.config.post_window_days),
        }
        conn.executemany(
            "INSERT INTO meta VALUES (?, ?)", list(meta.items())
        )
        rows = []
        geo_ips = set()
        for record in dataset.records.values():
            rows.append(
                (
                    record.torrent_id,
                    record.infohash,
                    record.title,
                    record.category.name,
                    record.size_bytes,
                    record.publish_time,
                    record.username,
                    record.discovered_time,
                    json.dumps(list(record.bundled_files)),
                    record.first_contact_time,
                    record.first_seeders,
                    record.first_leechers,
                    record.identification.name,
                    record.publisher_ip,
                    record.identified_time,
                    record.max_population,
                    record.monitoring_ended,
                    json.dumps(record.query_times),
                    json.dumps(record.seeder_counts),
                    json.dumps(record.leecher_counts),
                    json.dumps(sorted(record.downloader_ips)),
                    json.dumps(
                        {str(ip): times for ip, times in record.watched_sightings.items()}
                    ),
                    json.dumps(sorted(record.tracker_ips)),
                    json.dumps(sorted(record.dht_ips)),
                    int(record.via_magnet),
                )
            )
            if record.publisher_ip is not None:
                geo_ips.add(record.publisher_ip)
        conn.executemany(
            "INSERT INTO torrents VALUES "
            "(?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            rows,
        )
        geo_rows = []
        for ip in sorted(geo_ips):
            record = dataset.geoip.lookup(ip)
            if record is not None:
                geo_rows.append(
                    (ip, record.isp, record.kind.name, record.country, record.city)
                )
        conn.executemany("INSERT INTO geoip VALUES (?,?,?,?,?)", geo_rows)
        conn.commit()
    finally:
        conn.close()


def load_dataset(
    path: str,
    config: Optional[ScenarioConfig] = None,
    dataset_services: Optional[Dataset] = None,
) -> Dataset:
    """Load an archive.

    ``dataset_services`` (typically the original dataset, or one built from
    the same world) donates the live lookup services; without it, GeoIP is
    reconstructed from the archive and portal/web-directory-dependent
    analyses are unavailable (set to None).  A missing ``path`` raises
    :class:`FileNotFoundError`; the archive is opened read-only, so loading
    never creates or modifies a file.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(errno.ENOENT, "no archive", path)
    conn = sqlite3.connect(Path(path).absolute().as_uri() + "?mode=ro", uri=True)
    try:
        meta = dict(conn.execute("SELECT key, value FROM meta").fetchall())
        version = meta.get("schema_version", "1")
        if version == "1":
            # The oldest version-1 archives predate the snapshot.
            metrics = json.loads(meta.get("metrics", "{}"))
        elif version == SCHEMA_VERSION:
            metrics = json.loads(meta["metrics"])
        else:
            raise ValueError(
                f"{path}: unsupported archive schema_version {version!r} "
                f"(this reader knows 1 and {SCHEMA_VERSION})"
            )
        records: Dict[int, TorrentRecord] = {}
        for row in conn.execute("SELECT * FROM torrents"):
            (
                torrent_id, infohash, title, category, size_bytes, publish_time,
                username, discovered_time, bundled, first_contact, first_seeders,
                first_leechers, identification, publisher_ip, identified_time,
                max_population, monitoring_ended, query_times, seeder_counts,
                leecher_counts, downloader_ips, sightings, tracker_ips, dht_ips,
                via_magnet,
            ) = row
            record = TorrentRecord(
                torrent_id=torrent_id,
                infohash=bytes(infohash),
                title=title,
                category=Category[category],
                size_bytes=size_bytes,
                publish_time=publish_time,
                username=username,
                discovered_time=discovered_time,
                bundled_files=tuple(json.loads(bundled)),
                first_contact_time=first_contact,
                first_seeders=first_seeders,
                first_leechers=first_leechers,
                identification=IdentificationOutcome[identification],
                publisher_ip=publisher_ip,
                identified_time=identified_time,
                max_population=max_population,
                monitoring_ended=monitoring_ended,
                query_times=json.loads(query_times),
                seeder_counts=json.loads(seeder_counts),
                leecher_counts=json.loads(leecher_counts),
                downloader_ips=set(json.loads(downloader_ips)),
                tracker_ips=set(json.loads(tracker_ips)),
                dht_ips=set(json.loads(dht_ips)),
                via_magnet=bool(via_magnet),
                watched_sightings={
                    int(ip): times
                    for ip, times in json.loads(sightings).items()
                },
                done=True,
            )
            records[torrent_id] = record

        geo_table: Dict[int, GeoRecord] = {}
        for ip, isp, kind, country, city in conn.execute("SELECT * FROM geoip"):
            geo_table[ip] = GeoRecord(
                isp=isp, kind=IspKind[kind], country=country, city=city
            )
    finally:
        conn.close()

    if dataset_services is not None:
        geoip = dataset_services.geoip
        portal = dataset_services.portal
        web_directory = dataset_services.web_directory
        monitor_panel = dataset_services.monitor_panel
        loaded_config = dataset_services.config
    else:
        geoip = ArchivedGeoIp(geo_table)
        portal = None  # type: ignore[assignment]
        web_directory = None  # type: ignore[assignment]
        monitor_panel = None  # type: ignore[assignment]
        loaded_config = config

    return Dataset(
        name=meta["name"],
        config=loaded_config,  # type: ignore[arg-type]
        start_time=float(meta["start_time"]),
        end_time=float(meta["end_time"]),
        analysis_time=float(meta["analysis_time"]),
        records=records,
        geoip=geoip,
        portal=portal,  # type: ignore[arg-type]
        web_directory=web_directory,  # type: ignore[arg-type]
        monitor_panel=monitor_panel,  # type: ignore[arg-type]
        metrics=metrics,
    )

"""The campaign database: one SQLite schema for archives and the §7 monitor.

The paper makes its gathered data "publicly available through a web
interface", and its Section 7 system "stores all this information in a
database" that the interface queries.  Both are this database.  A campaign
archive is self-contained: torrent records, per-torrent query times,
downloader IP sets, watched-IP sightings and the run's metrics snapshot
(which the crawler's counts are read off) all round-trip, so the full
analysis pipeline can run on a loaded archive without the simulator.  The
live monitor writes the same tables as it discovers torrents, annotates
publishers in a ``publishers`` table, and answers the web interface's
queries through :class:`CampaignArchive`.

``meta.schema_version`` names the layout.  Version 3 (written today) adds
the ``publishers`` table and the ``torrents`` indexes on ``username`` and
``category``; it reads exactly like version 2.  Version 2 drops version 1's
``crawler_stats`` meta key and always carries ``metrics``.  A version-1
archive (no ``schema_version``) loads with its ``crawler_stats`` ignored,
provided its ``torrents`` table has every column; one written before the
``tracker_ips``, ``dht_ips`` and ``via_magnet`` columns existed is refused
with a :class:`ValueError` naming the missing columns.  Any other version
is refused.

Lookup services (GeoIP, portal pages, web directory, monitor panel) are
*live services*, not data; a loaded dataset needs them re-attached (pass the
world's, or run analyses that do not need them).  The archive stores enough
GeoIP material (an IP -> ISP/kind/country/city table for every observed
publisher IP) to keep the ISP analyses working standalone via
:class:`ArchivedGeoIp`.

``sqlite3`` is imported where a connection opens, so a process that never
touches a database (``import repro``, a perfbench cell) does not load it.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.datasets import Dataset, IdentificationOutcome, TorrentRecord
from repro.geoip import GeoIpDatabase, GeoRecord, IspKind, format_ip
from repro.portal.categories import Category

SCHEMA_VERSION = "3"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);

CREATE TABLE IF NOT EXISTS torrents (
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
    tracker_ips      TEXT NOT NULL,
    dht_ips          TEXT NOT NULL,
    via_magnet       INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_torrents_username ON torrents(username);
CREATE INDEX IF NOT EXISTS idx_torrents_category ON torrents(category);

CREATE TABLE IF NOT EXISTS geoip (
    ip      INTEGER PRIMARY KEY,
    isp     TEXT NOT NULL,
    kind    TEXT NOT NULL,
    country TEXT NOT NULL,
    city    TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS publishers (
    username       TEXT PRIMARY KEY,
    promoted_url   TEXT,
    business_type  TEXT,
    profit_driven  INTEGER NOT NULL DEFAULT 0,
    fake           INTEGER NOT NULL DEFAULT 0,
    note           TEXT
);
"""

# The ``torrents`` columns in table order; the reader selects them by name.
_TORRENT_COLUMNS = (
    "torrent_id", "infohash", "title", "category", "size_bytes",
    "publish_time", "username", "discovered_time", "bundled_files",
    "first_contact", "first_seeders", "first_leechers", "identification",
    "publisher_ip", "identified_time", "max_population", "monitoring_ended",
    "query_times", "seeder_counts", "leecher_counts", "downloader_ips",
    "sightings", "tracker_ips", "dht_ips", "via_magnet",
)

# The §7 queries: one publication per torrent, GeoIP-enriched, with its
# publisher's annotations joined in for the fake filter.
_PUBLICATIONS = """
SELECT t.torrent_id, t.title, t.category, t.size_bytes, t.username,
       t.publish_time, t.publisher_ip, g.isp, g.kind, g.city, g.country
FROM torrents t
LEFT JOIN geoip g ON g.ip = t.publisher_ip
LEFT JOIN publishers u ON u.username = t.username
"""

# Queries take and return display categories ("Other/E-books"); the table
# stores the enum name.
_CATEGORY_NAMES = {category.value: category.name for category in Category}


@dataclass(frozen=True)
class PublicationRow:
    """One publication as the §7 web interface shows it."""

    torrent_id: int
    title: str
    category: str
    size_bytes: int
    username: Optional[str]
    publish_time: float
    publisher_ip: Optional[str]
    isp: Optional[str]
    isp_kind: Optional[str]
    city: Optional[str]
    country: Optional[str]


@dataclass(frozen=True)
class PublisherRow:
    """A publisher annotation: profit-driven page or fake flag."""

    username: str
    promoted_url: Optional[str]
    business_type: Optional[str]
    profit_driven: bool
    fake: bool
    note: Optional[str]


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


class CampaignArchive:
    """A connection to one campaign database (``:memory:`` by default).

    Writes are not committed until :meth:`commit` (annotations commit at
    once); queries on this connection see them straight away.
    """

    def __init__(self, path: str = ":memory:") -> None:
        import sqlite3

        self._conn = sqlite3.connect(path)
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def commit(self) -> None:
        self._conn.commit()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write_meta(self, dataset: Dataset) -> None:
        """Record the campaign's window, config and metrics snapshot."""
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
        self._conn.executemany(
            "INSERT OR REPLACE INTO meta VALUES (?, ?)", list(meta.items())
        )

    def add_record(self, record: TorrentRecord, geoip: GeoIpDatabase) -> None:
        """Upsert one torrent and the GeoIP row of its publisher's IP."""
        self._conn.execute(
            "INSERT OR REPLACE INTO torrents VALUES "
            f"({', '.join('?' * len(_TORRENT_COLUMNS))})",
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
            ),
        )
        if record.publisher_ip is None:
            return
        geo = geoip.lookup(record.publisher_ip)
        if geo is not None:
            self._conn.execute(
                "INSERT OR REPLACE INTO geoip VALUES (?,?,?,?,?)",
                (record.publisher_ip, geo.isp, geo.kind.name, geo.country, geo.city),
            )

    def annotate_publisher(self, row: PublisherRow) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO publishers VALUES (?,?,?,?,?,?)",
            (
                row.username,
                row.promoted_url,
                row.business_type,
                int(row.profit_driven),
                int(row.fake),
                row.note,
            ),
        )
        self._conn.commit()

    # ------------------------------------------------------------------
    # Queries (the §7 web interface's backend)
    # ------------------------------------------------------------------
    def _publications(self, where: str, params: Tuple) -> List[PublicationRow]:
        rows = self._conn.execute(
            _PUBLICATIONS + where + " ORDER BY t.publish_time, t.torrent_id",
            params,
        ).fetchall()
        return [
            PublicationRow(
                torrent_id=torrent_id,
                title=title,
                category=Category[category].value,
                size_bytes=size_bytes,
                username=username,
                publish_time=publish_time,
                publisher_ip=format_ip(ip) if ip is not None else None,
                isp=isp,
                isp_kind=IspKind[kind].value if kind is not None else None,
                city=city,
                country=country,
            )
            for (
                torrent_id, title, category, size_bytes, username,
                publish_time, ip, isp, kind, city, country,
            ) in rows
        ]

    def publications_by_category(
        self, category: str, exclude_fake: bool = False
    ) -> List[PublicationRow]:
        where = "WHERE t.category = ?"
        if exclude_fake:
            where += " AND COALESCE(u.fake, 0) = 0"
        return self._publications(where, (_CATEGORY_NAMES.get(category),))

    def top_publishers(self, limit: int = 20) -> List[Tuple[str, int]]:
        """Usernames ranked by number of publications."""
        cur = self._conn.execute(
            """
            SELECT username, COUNT(*) AS n FROM torrents
            WHERE username IS NOT NULL
            GROUP BY username ORDER BY n DESC, username LIMIT ?
            """,
            (limit,),
        )
        return list(cur.fetchall())

    def publishers_for_category(
        self, category: str, min_torrents: int = 2
    ) -> List[Tuple[str, int]]:
        """The paper's e-books use case: who publishes lots of category X?"""
        cur = self._conn.execute(
            """
            SELECT username, COUNT(*) AS n FROM torrents
            WHERE category = ? AND username IS NOT NULL
            GROUP BY username HAVING n >= ? ORDER BY n DESC, username
            """,
            (_CATEGORY_NAMES.get(category), min_torrents),
        )
        return list(cur.fetchall())

    def publisher(self, username: str) -> Optional[PublisherRow]:
        row = self._conn.execute(
            "SELECT * FROM publishers WHERE username = ?", (username,)
        ).fetchone()
        if row is None:
            return None
        return PublisherRow(
            username=row[0],
            promoted_url=row[1],
            business_type=row[2],
            profit_driven=bool(row[3]),
            fake=bool(row[4]),
            note=row[5],
        )

    def fake_usernames(self) -> List[str]:
        cur = self._conn.execute(
            "SELECT username FROM publishers WHERE fake = 1 ORDER BY username"
        )
        return [r[0] for r in cur.fetchall()]

    def isp_breakdown(self) -> List[Tuple[str, int]]:
        """Publisher ISPs ranked by publications, ties by name."""
        cur = self._conn.execute(
            """
            SELECT g.isp, COUNT(*) AS n FROM torrents t
            JOIN geoip g ON g.ip = t.publisher_ip
            GROUP BY g.isp ORDER BY n DESC, g.isp
            """
        )
        return list(cur.fetchall())


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
    with CampaignArchive(path) as archive:
        archive.write_meta(dataset)
        for record in dataset.records.values():
            archive.add_record(record, dataset.geoip)
        archive.commit()


def load_dataset(
    path: str,
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
    import sqlite3

    conn = sqlite3.connect(Path(path).absolute().as_uri() + "?mode=ro", uri=True)
    try:
        meta = dict(conn.execute("SELECT key, value FROM meta").fetchall())
        version = meta.get("schema_version", "1")
        if version == "1":
            # The oldest version-1 archives predate the snapshot.
            metrics = json.loads(meta.get("metrics", "{}"))
        elif version in ("2", SCHEMA_VERSION):
            metrics = json.loads(meta["metrics"])
        else:
            raise ValueError(
                f"{path}: unsupported archive schema_version {version!r} "
                f"(this reader knows 1, 2 and {SCHEMA_VERSION})"
            )
        present = {row[1] for row in conn.execute("PRAGMA table_info(torrents)")}
        missing = [name for name in _TORRENT_COLUMNS if name not in present]
        if missing:
            raise ValueError(
                f"{path}: torrents table lacks column(s) {', '.join(missing)}; "
                "the archive predates them and cannot be loaded"
            )
        records: Dict[int, TorrentRecord] = {}
        columns = ", ".join(_TORRENT_COLUMNS)
        for row in conn.execute(f"SELECT {columns} FROM torrents"):
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
        loaded_config = None

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

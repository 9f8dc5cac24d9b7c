"""Round-trip fuzz tests for the SQLite archive (core.export).

Seeded generators build adversarial datasets the simulator would rarely
produce -- unicode titles and usernames, empty swarms, magnet-only records,
zero-download torrents, publishers with no GeoIP entry -- and assert every
archivable field survives save -> load exactly.  Each seed is fixed, so a
failure replays deterministically.
"""

import random

import pytest

from repro.core.datasets import Dataset, IdentificationOutcome, TorrentRecord
from repro.core.export import ArchivedGeoIp, load_dataset, save_dataset
from repro.geoip import GeoRecord
from repro.geoip.isps import IspKind
from repro.portal.categories import Category
from repro.simulation import tiny_scenario

# Deliberately nasty strings: CJK, RTL, emoji, combining marks, quotes and
# SQL-looking fragments, embedded newlines/NULs-adjacent escapes.
NASTY_STRINGS = [
    "plain ascii",
    "Ünïcödé tîtle",
    "日本語のタイトル",
    "שלום עולם",
    "🎬🎵💿 release 🏴‍☠️",
    "combining áé",
    "O'Reilly \"quoted\"; DROP TABLE torrents; --",
    "tab\tand\nnewline",
    "",
]

CATEGORIES = list(Category)
OUTCOMES = list(IdentificationOutcome)


def _random_record(rng: random.Random, torrent_id: int) -> TorrentRecord:
    """One randomized TorrentRecord exercising optional-field combinations."""
    has_publisher = rng.random() < 0.7
    num_queries = rng.randrange(0, 6)
    query_times = sorted(
        round(rng.uniform(0.0, 5000.0), 3) for _ in range(num_queries)
    )
    downloader_ips = {
        rng.randrange(1, 2**32) for _ in range(rng.randrange(0, 8))
    }
    return TorrentRecord(
        torrent_id=torrent_id,
        infohash=rng.randbytes(20),
        title=rng.choice(NASTY_STRINGS),
        category=rng.choice(CATEGORIES),
        size_bytes=rng.randrange(0, 2**40),
        publish_time=round(rng.uniform(0.0, 10_000.0), 3),
        username=rng.choice(NASTY_STRINGS + [None]),  # type: ignore[arg-type]
        discovered_time=round(rng.uniform(0.0, 10_000.0), 3),
        bundled_files=tuple(
            rng.choice(NASTY_STRINGS) for _ in range(rng.randrange(0, 4))
        ),
        first_contact_time=(
            round(rng.uniform(0.0, 10_000.0), 3) if rng.random() < 0.8 else None
        ),
        first_seeders=rng.randrange(0, 5),
        first_leechers=rng.randrange(0, 50),
        identification=rng.choice(OUTCOMES),
        publisher_ip=rng.randrange(1, 2**32) if has_publisher else None,
        identified_time=(
            round(rng.uniform(0.0, 10_000.0), 3) if has_publisher else None
        ),
        max_population=rng.randrange(0, 1000),
        monitoring_ended=(
            round(rng.uniform(0.0, 20_000.0), 3) if rng.random() < 0.5 else None
        ),
        query_times=query_times,
        seeder_counts=[rng.randrange(0, 10) for _ in range(num_queries)],
        leecher_counts=[rng.randrange(0, 100) for _ in range(num_queries)],
        downloader_ips=downloader_ips,
        tracker_ips=set(
            rng.sample(sorted(downloader_ips), k=len(downloader_ips) // 2)
        )
        if downloader_ips
        else set(),
        dht_ips={rng.randrange(1, 2**32) for _ in range(rng.randrange(0, 3))},
        via_magnet=rng.random() < 0.3,
        watched_sightings={
            rng.randrange(1, 2**32): sorted(
                round(rng.uniform(0.0, 9_000.0), 3)
                for _ in range(rng.randrange(1, 5))
            )
            for _ in range(rng.randrange(0, 3))
        },
    )


def _random_dataset(seed: int, num_records: int = 12) -> Dataset:
    rng = random.Random(seed)
    records = {}
    for torrent_id in range(num_records):
        records[torrent_id] = _random_record(rng, torrent_id)
    # GeoIP entries for *most* publisher IPs; a few are deliberately missing
    # so the archive's geoip table handles absent lookups.
    geo_table = {}
    for record in records.values():
        if record.publisher_ip is not None and rng.random() < 0.8:
            geo_table[record.publisher_ip] = GeoRecord(
                isp=rng.choice(["OVH", "Comcast", "企业宽带", "fuzz-isp"]),
                kind=rng.choice(list(IspKind)),
                country=rng.choice(["FR", "US", "ES", "JP"]),
                city=rng.choice(NASTY_STRINGS[:-1]),  # city must be a string
            )
    return Dataset(
        name=f"fuzz-{seed}",
        config=tiny_scenario(),
        start_time=0.0,
        end_time=round(rng.uniform(1.0, 20_000.0), 3),
        analysis_time=round(rng.uniform(20_000.0, 30_000.0), 3),
        records=records,
        geoip=ArchivedGeoIp(geo_table),
        portal=None,  # type: ignore[arg-type]
        web_directory=None,  # type: ignore[arg-type]
        monitor_panel=None,  # type: ignore[arg-type]
        metrics={
            "crawler.rss_polls": {
                "type": "counter",
                "values": {"": float(rng.randrange(0, 100))},
            }
        },
    )


ARCHIVED_FIELDS = [
    "infohash", "title", "category", "size_bytes", "publish_time",
    "username", "discovered_time", "bundled_files", "first_contact_time",
    "first_seeders", "first_leechers", "identification", "publisher_ip",
    "identified_time", "max_population", "monitoring_ended", "query_times",
    "seeder_counts", "leecher_counts", "downloader_ips", "tracker_ips",
    "dht_ips", "via_magnet", "watched_sightings",
]


def _assert_round_trip(dataset: Dataset, path) -> Dataset:
    save_dataset(dataset, str(path))
    loaded = load_dataset(str(path))
    assert set(loaded.records) == set(dataset.records)
    for torrent_id, original in dataset.records.items():
        copy = loaded.records[torrent_id]
        for field_name in ARCHIVED_FIELDS:
            got = getattr(copy, field_name)
            want = getattr(original, field_name)
            assert got == want, (
                f"record {torrent_id} field {field_name}: "
                f"{got!r} != {want!r}"
            )
    assert loaded.name == dataset.name
    assert loaded.end_time == dataset.end_time
    assert loaded.analysis_time == dataset.analysis_time
    assert loaded.crawler_stats == dataset.crawler_stats
    return loaded


class TestFuzzRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_dataset_survives_archive(self, seed, tmp_path):
        dataset = _random_dataset(seed)
        _assert_round_trip(dataset, tmp_path / f"fuzz{seed}.sqlite")

    def test_geoip_table_round_trips_for_archived_publishers(self, tmp_path):
        dataset = _random_dataset(4242)
        path = tmp_path / "geo.sqlite"
        save_dataset(dataset, str(path))
        loaded = load_dataset(str(path))
        for record in dataset.records.values():
            ip = record.publisher_ip
            if ip is None:
                continue
            assert loaded.geoip.lookup(ip) == dataset.geoip.lookup(ip)


class TestEdgeCaseDatasets:
    def test_empty_dataset(self, tmp_path):
        dataset = _random_dataset(1, num_records=0)
        loaded = _assert_round_trip(dataset, tmp_path / "empty.sqlite")
        assert loaded.num_torrents == 0
        assert loaded.summary_dict()["total_distinct_ips"] == 0

    def test_magnet_only_zero_download_swarm(self, tmp_path):
        record = TorrentRecord(
            torrent_id=0,
            infohash=b"\x00" * 20,
            title="魔法 magnet ✨",
            category=Category.MOVIES,
            size_bytes=0,
            publish_time=1.0,
            username=None,
            via_magnet=True,
        )
        dataset = _random_dataset(2, num_records=0)
        dataset.records[0] = record
        loaded = _assert_round_trip(dataset, tmp_path / "magnet.sqlite")
        copy = loaded.records[0]
        assert copy.via_magnet is True
        assert copy.downloader_ips == set()
        assert copy.num_downloaders == 0
        assert copy.username is None

    def test_summary_dict_stable_across_round_trip(self, tmp_path):
        dataset = _random_dataset(7)
        loaded = _assert_round_trip(dataset, tmp_path / "summary.sqlite")
        assert loaded.summary_dict() == dataset.summary_dict()


class TestOverwrite:
    def test_existing_archive_refused_by_default(self, tmp_path):
        dataset = _random_dataset(11, num_records=2)
        path = tmp_path / "twice.sqlite"
        save_dataset(dataset, str(path))
        with pytest.raises(FileExistsError, match="overwrite=True"):
            save_dataset(dataset, str(path))

    def test_overwrite_replaces_archive(self, tmp_path):
        path = tmp_path / "replace.sqlite"
        save_dataset(_random_dataset(12, num_records=3), str(path))
        smaller = _random_dataset(13, num_records=1)
        save_dataset(smaller, str(path), overwrite=True)
        loaded = load_dataset(str(path))
        assert loaded.name == smaller.name
        assert set(loaded.records) == set(smaller.records)

"""Tests for dataset archival (save/load round-trips)."""

import json
import os
import shutil
import sqlite3

import pytest

from repro.core.analysis.contribution import analyze_contribution
from repro.core.analysis.isps import isp_ranking, ovh_vs_comcast
from repro.core.analysis.mapping import analyze_mapping
from repro.core.export import (
    SCHEMA_VERSION,
    ArchivedGeoIp,
    load_dataset,
    save_dataset,
)


@pytest.fixture(scope="module")
def archive_path(dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("archive") / "campaign.sqlite")
    save_dataset(dataset, path)
    return path


class TestRoundTrip:
    def test_file_created(self, archive_path):
        assert os.path.getsize(archive_path) > 10_000

    def test_metadata_roundtrip(self, dataset, archive_path):
        loaded = load_dataset(archive_path, dataset_services=dataset)
        assert loaded.name == dataset.name
        assert loaded.start_time == dataset.start_time
        assert loaded.end_time == dataset.end_time
        assert loaded.analysis_time == dataset.analysis_time
        assert loaded.crawler_stats == dataset.crawler_stats

    def test_records_roundtrip(self, dataset, archive_path):
        loaded = load_dataset(archive_path, dataset_services=dataset)
        assert set(loaded.records) == set(dataset.records)
        for tid, original in dataset.records.items():
            copy = loaded.records[tid]
            assert copy.infohash == original.infohash
            assert copy.title == original.title
            assert copy.category is original.category
            assert copy.username == original.username
            assert copy.identification is original.identification
            assert copy.publisher_ip == original.publisher_ip
            assert copy.downloader_ips == original.downloader_ips
            assert copy.query_times == original.query_times
            assert copy.watched_sightings == original.watched_sightings
            assert copy.max_population == original.max_population

    def test_analyses_identical_on_loaded_dataset(self, dataset, archive_path):
        loaded = load_dataset(archive_path, dataset_services=dataset)
        original = analyze_contribution(dataset, top_k=20)
        reloaded = analyze_contribution(loaded, top_k=20)
        assert original.curve == reloaded.curve
        assert original.gini_coefficient == reloaded.gini_coefficient
        m_original = analyze_mapping(dataset, top_k=20)
        m_reloaded = analyze_mapping(loaded, top_k=20)
        assert m_original.fake_usernames == m_reloaded.fake_usernames
        assert m_original.top_usernames == m_reloaded.top_usernames


class TestStandaloneLoad:
    def test_geoip_reconstructed_for_publisher_ips(self, dataset, archive_path):
        loaded = load_dataset(archive_path)
        assert isinstance(loaded.geoip, ArchivedGeoIp)
        assert len(loaded.geoip) > 0
        for record in loaded.records.values():
            if record.publisher_ip is not None:
                original_geo = dataset.geoip.lookup(record.publisher_ip)
                loaded_geo = loaded.geoip.lookup(record.publisher_ip)
                if original_geo is not None:
                    assert loaded_geo == original_geo

    def test_isp_analyses_work_standalone(self, dataset, archive_path):
        loaded = load_dataset(archive_path)
        original = isp_ranking(dataset)
        reloaded = isp_ranking(loaded)
        assert [r.isp for r in original.rows] == [r.isp for r in reloaded.rows]
        assert ovh_vs_comcast(loaded)[0] == ovh_vs_comcast(dataset)[0]

    def test_unknown_ips_resolve_to_none(self, archive_path):
        loaded = load_dataset(archive_path)
        assert loaded.geoip.lookup(1) is None
        assert loaded.geoip.isp_of(1) is None


class TestLoadPath:
    def test_missing_path_raises_and_creates_nothing(self, tmp_path):
        path = tmp_path / "absent.sqlite"
        with pytest.raises(FileNotFoundError, match="absent.sqlite"):
            load_dataset(str(path))
        assert not path.exists()

    def test_uri_special_characters_in_path(self, dataset, archive_path, tmp_path):
        # The read-only open goes through a file: URI; the path must be quoted.
        path = tmp_path / "odd name?#%20.sqlite"
        shutil.copyfile(archive_path, path)
        loaded = load_dataset(str(path))
        assert set(loaded.records) == set(dataset.records)


def _rewrite_meta(source, target, drop=(), put=None):
    """Copy the archive at ``source`` to ``target`` and edit its meta rows."""
    shutil.copyfile(source, target)
    conn = sqlite3.connect(target)
    try:
        for key in drop:
            conn.execute("DELETE FROM meta WHERE key = ?", (key,))
        for key, value in (put or {}).items():
            conn.execute("INSERT OR REPLACE INTO meta VALUES (?, ?)", (key, value))
        conn.commit()
    finally:
        conn.close()
    return str(target)


def _meta(path):
    conn = sqlite3.connect(path)
    try:
        return dict(conn.execute("SELECT key, value FROM meta"))
    finally:
        conn.close()


class TestSchemaVersion:
    def test_round_trip_carries_version_3(self, dataset, archive_path):
        meta = _meta(archive_path)
        assert SCHEMA_VERSION == "3"
        assert meta["schema_version"] == "3"
        # Since version 2, counts live only in the metrics snapshot.
        assert "crawler_stats" not in meta
        loaded = load_dataset(archive_path)
        assert loaded.metrics == dataset.metrics
        assert loaded.crawler_stats == dataset.crawler_stats

    def test_version_1_archive_with_crawler_stats_loads(
        self, dataset, archive_path, tmp_path
    ):
        stale = {key: 0 for key in dataset.crawler_stats}
        path = _rewrite_meta(
            archive_path,
            tmp_path / "v1.sqlite",
            drop=("schema_version",),
            put={"crawler_stats": json.dumps(stale)},
        )
        loaded = load_dataset(path)
        assert set(loaded.records) == set(dataset.records)
        # The stored copy is ignored; the counts come from the snapshot.
        assert loaded.crawler_stats == dataset.crawler_stats

    def test_version_1_archive_without_metrics_loads(
        self, dataset, archive_path, tmp_path
    ):
        path = _rewrite_meta(
            archive_path,
            tmp_path / "v1-old.sqlite",
            drop=("schema_version", "metrics"),
            put={"crawler_stats": json.dumps(dataset.crawler_stats)},
        )
        loaded = load_dataset(path)
        assert loaded.metrics == {}
        assert set(loaded.records) == set(dataset.records)

    def test_version_2_archive_loads(self, dataset, archive_path, tmp_path):
        """Version 2 had no publishers table or torrents indexes."""
        path = _rewrite_meta(
            archive_path, tmp_path / "v2.sqlite", put={"schema_version": "2"}
        )
        conn = sqlite3.connect(path)
        try:
            conn.executescript(
                "DROP TABLE publishers; DROP INDEX idx_torrents_username; "
                "DROP INDEX idx_torrents_category;"
            )
        finally:
            conn.close()
        loaded = load_dataset(path)
        assert set(loaded.records) == set(dataset.records)
        assert loaded.metrics == dataset.metrics

    def test_version_1_archive_without_late_columns_refused(
        self, archive_path, tmp_path
    ):
        """Archives from before the per-channel columns cannot be read."""
        path = _rewrite_meta(
            archive_path, tmp_path / "v1-narrow.sqlite", drop=("schema_version",)
        )
        conn = sqlite3.connect(path)
        try:
            for column in ("tracker_ips", "dht_ips", "via_magnet"):
                conn.execute(f"ALTER TABLE torrents DROP COLUMN {column}")
            conn.commit()
        finally:
            conn.close()
        with pytest.raises(
            ValueError, match="v1-narrow.sqlite.*tracker_ips, dht_ips, via_magnet"
        ):
            load_dataset(path)

    def test_version_2_archive_requires_metrics(self, archive_path, tmp_path):
        path = _rewrite_meta(
            archive_path, tmp_path / "v2-bad.sqlite", drop=("metrics",)
        )
        with pytest.raises(KeyError, match="metrics"):
            load_dataset(path)

    def test_unknown_version_refused(self, archive_path, tmp_path):
        path = _rewrite_meta(
            archive_path, tmp_path / "v99.sqlite", put={"schema_version": "99"}
        )
        with pytest.raises(ValueError, match="'99'"):
            load_dataset(path)

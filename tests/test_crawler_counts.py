"""The crawler's counts, read off the run's metrics registry.

``Dataset.crawler_stats`` keeps no copy of its own: every key is derived
from the metrics snapshot (or, for magnet resolutions, from the records).
These identities tie the derived counts to what the other layers saw, over
the three golden campaigns (one per discovery channel), so a count that
drifts from the records or from the tracker's own tally fails here.
"""

import pytest

KEYS = {
    "rss_polls",
    "announces",
    "announce_failures",
    "probes",
    "torrents_discovered",
    "dht_lookups",
    "magnet_resolutions",
}


def _total(snapshot, name):
    return sum(snapshot.get(name, {}).get("values", {}).values())


@pytest.fixture(scope="module", params=["tiny", "trackerless", "hybrid"])
def campaign(request, golden_run):
    dataset, _world = golden_run(request.param)
    return request.param, dataset


class TestDerivedCrawlerCounts:
    def test_every_key_is_an_int(self, campaign):
        _name, dataset = campaign
        stats = dataset.crawler_stats
        assert set(stats) == KEYS
        for key, value in stats.items():
            assert type(value) is int, key

    def test_one_record_per_discovered_torrent(self, campaign):
        _name, dataset = campaign
        assert dataset.crawler_stats["torrents_discovered"] == len(dataset.records)

    def test_every_answered_query_is_one_observation(self, campaign):
        """A served announce and a DHT lookup each append one query time;
        a failed announce appends none."""
        _name, dataset = campaign
        stats = dataset.crawler_stats
        observations = sum(len(r.query_times) for r in dataset.records.values())
        assert observations == (
            stats["announces"] - stats["announce_failures"] + stats["dht_lookups"]
        )

    def test_crawler_and_tracker_agree_on_announces(self, campaign):
        _name, dataset = campaign
        assert dataset.crawler_stats["announces"] == _total(
            dataset.metrics, "tracker.announces"
        )

    def test_channels_show_in_the_counts(self, campaign):
        name, dataset = campaign
        stats = dataset.crawler_stats
        assert stats["rss_polls"] > 0
        assert stats["probes"] > 0
        assert (stats["announces"] > 0) == (name != "trackerless")
        assert (stats["dht_lookups"] > 0) == (name != "tiny")
        assert (stats["magnet_resolutions"] > 0) == (name == "trackerless")

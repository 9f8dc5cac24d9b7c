"""Scenario configs + the mn08/pb09 measurement quirks on mini worlds."""

import dataclasses

import pytest

from repro.agents.population import PopulationConfig
from repro.core.analysis.contribution import analyze_contribution
from repro.core.analysis.groups import identify_groups
from repro.core.analysis.mapping import analyze_mapping
from repro.core.collector import run_measurement
from repro.simulation import (
    CrawlerSettings,
    build_scenario,
    mn08_scenario,
    pb09_scenario,
    pb10_scenario,
    tiny_scenario,
)
from repro.simulation.scenarios import ScenarioConfig, scaled


def mini_population():
    return PopulationConfig(
        num_regular=50,
        num_bt_portal=1,
        num_web_promoter=1,
        num_altruistic_top=2,
        num_fake_antipiracy=1,
        num_fake_malware=0,
    )


@pytest.fixture(scope="module")
def mn08_mini():
    config = dataclasses.replace(
        tiny_scenario("mn08-mini"),
        rss_includes_username=False,
        window_days=4.0,
        post_window_days=4.0,
        population=mini_population(),
    )
    return run_measurement(config, seed=31)


@pytest.fixture(scope="module")
def pb09_mini():
    config = dataclasses.replace(
        tiny_scenario("pb09-mini"),
        crawler=CrawlerSettings(monitor_swarms=False, rss_poll_interval=10.0,
                                vantage_count=1),
        window_days=4.0,
        post_window_days=1.0,
        population=mini_population(),
    )
    return run_measurement(config, seed=32)


class TestScenarioFactories:
    def test_factories_reproduce_table1_quirks(self):
        assert pb10_scenario().crawler.monitor_swarms
        assert pb10_scenario().rss_includes_username
        assert not pb09_scenario().crawler.monitor_swarms
        assert not mn08_scenario().rss_includes_username
        assert mn08_scenario().window_days > pb10_scenario().window_days

    def test_scaled_helper(self):
        config = scaled(pb10_scenario(), 0.5, 0.5)
        assert config.population.num_regular == 250
        assert config.popularity_scale == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                name="x", portal_name="p", rss_includes_username=True,
                window_days=0.0, post_window_days=1.0,
            )
        with pytest.raises(ValueError):
            CrawlerSettings(vantage_count=0)
        with pytest.raises(ValueError):
            CrawlerSettings(rss_poll_interval=0)

    @pytest.mark.parametrize("window_days,post_window_days", [
        (float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan")),
        (1.0, float("inf")),
    ])
    def test_non_finite_windows_rejected(self, window_days, post_window_days):
        with pytest.raises(ValueError, match="bad window configuration"):
            build_scenario("baseline", window_days=window_days,
                           post_window_days=post_window_days)

    def test_scenario_properties(self):
        config = tiny_scenario()
        assert config.horizon_minutes == (
            (config.window_days + config.post_window_days) * 1440.0
        )


class TestMn08Quirk:
    """Mininova's feed carries no username: analysis falls back to IPs."""

    def test_no_usernames_in_dataset(self, mn08_mini):
        assert not mn08_mini.has_usernames()
        assert mn08_mini.num_with_username == 0
        assert mn08_mini.num_with_publisher_ip > 0

    def test_mapping_refuses(self, mn08_mini):
        with pytest.raises(ValueError, match="no usernames"):
            analyze_mapping(mn08_mini)

    def test_contribution_keys_by_ip(self, mn08_mini):
        report = analyze_contribution(mn08_mini, top_k=10)
        assert report.keyed_by == "ip"
        assert report.num_publishers > 0

    def test_groups_have_no_fake(self, mn08_mini):
        groups = identify_groups(mn08_mini, top_k=10)
        assert groups.keyed_by == "ip"
        assert groups.fake == []
        assert "Fake" not in groups.group_names
        assert groups.top


class TestPb09Quirk:
    """pb09 queried the tracker exactly once per torrent."""

    def test_single_query_per_torrent(self, pb09_mini):
        for record in pb09_mini.torrents():
            assert record.num_queries <= 1
            assert record.done

    def test_far_fewer_ips_than_monitored_crawl(self, pb09_mini):
        """Table 1: pb09's 52.9K IPs vs pb10's 27.3M."""
        total_ips = pb09_mini.total_distinct_ips()
        total_downloads_possible = sum(
            r.num_downloaders for r in pb09_mini.torrents()
        )
        assert total_ips < 2000  # one sample of <= 200 per torrent
        assert total_ips == pytest.approx(total_downloads_possible,
                                          abs=pb09_mini.num_torrents * 2)

    def test_identification_still_works(self, pb09_mini):
        assert pb09_mini.num_with_publisher_ip > 0

"""Analysis-pipeline tests on the shared tiny dataset.

These assert the *paper's shape results* hold on the reduced-scale world:
skewed contribution, fake/top structure, hosting concentration, seeding
signatures, business classes and website economics.
"""

import pytest

from repro.core.analysis.contribution import analyze_contribution
from repro.core.analysis.content_type import (
    content_type_breakdown,
    fine_category_breakdown,
)
from repro.core.analysis.groups import group_shares
from repro.core.analysis.incentives import (
    check_regular_publishers,
    classify_top_publishers,
)
from repro.core.analysis.income import (
    consumers_at,
    hosting_provider_income,
    website_economics,
)
from repro.core.analysis.isps import (
    isp_ranking,
    ovh_vs_comcast,
    top_publishers_at_hosting,
)
from repro.core.analysis.mapping import analyze_mapping, detect_fake_publishers
from repro.core.analysis.popularity import popularity_by_group
from repro.core.analysis.seeding import derive_threshold, seeding_by_group
from repro.agents.profiles import PublisherClass
from repro.core.datasets import publisher_ips

from tests.conftest import TINY_TOP_K


class TestContribution:
    def test_curve_monotone_and_bounded(self, dataset):
        report = analyze_contribution(dataset, top_k=TINY_TOP_K)
        shares = [s for _, s in report.curve]
        assert shares == sorted(shares)
        assert shares[-1] == pytest.approx(100.0)

    def test_contribution_is_skewed(self, dataset):
        report = analyze_contribution(dataset, top_k=TINY_TOP_K)
        # Fig 1's shape: a few percent of publishers own a large share.
        curve = dict(report.curve)
        assert curve[10] > 25.0
        assert report.gini_coefficient > 0.3

    def test_top_k_dominates_downloads(self, dataset):
        report = analyze_contribution(dataset, top_k=TINY_TOP_K)
        assert report.top_k_content_share > 0.30
        assert report.top_k_download_share > report.top_k_content_share

    def test_top_publishers_consume_little(self, dataset):
        """Section 3.1's signal, at tiny scale: a solid fraction of top
        publisher IPs download nothing (the paper reports 40%/80% at full
        scale, where the top set is not diluted by regular users; the
        benchmark harness asserts the full-scale band)."""
        report = analyze_contribution(dataset, top_k=TINY_TOP_K)
        assert report.top_k_no_download_fraction >= 0.15
        assert report.top_k_under5_download_fraction >= 0.30
        assert (
            report.top_k_under5_download_fraction
            >= report.top_k_no_download_fraction
        )


class TestMapping:
    def test_fake_detection_matches_truth(self, dataset, world, groups):
        truth_fake_usernames = {
            t.username for t in world.truth.torrents if t.is_fake
        }
        detected = set(groups.fake)
        overlap = len(detected & truth_fake_usernames)
        # High recall and high precision against ground truth.
        assert overlap / len(truth_fake_usernames) > 0.85
        assert overlap / len(detected) > 0.85

    def test_grouped_publisher_ips_match_per_username_scan(self, dataset, groups):
        """The IP sets the analyses build from grouped records are the
        per-username scans, for every username."""
        by_username = dataset.records_by_username()
        assert by_username
        for username, records in by_username.items():
            ips = dataset.publisher_ips_of(username)
            assert publisher_ips(records) == ips
            assert groups.publisher_ips[username] == ips

    def test_fake_ips_are_truly_fake(self, dataset, world):
        fake_ips, _, _ = detect_fake_publishers(dataset)
        truth_fake_ips = set()
        for agent in world.population.fake_agents:
            truth_fake_ips.update(agent.ips)
        assert fake_ips
        assert fake_ips <= truth_fake_ips

    def test_mapping_shares(self, dataset):
        mapping = analyze_mapping(dataset, top_k=TINY_TOP_K)
        assert 0.10 < mapping.fake_content_share < 0.50
        assert 0.05 < mapping.fake_download_share < 0.45
        assert mapping.top_content_share > 0.15
        assert mapping.top_download_share > mapping.top_content_share

    def test_compromised_removed_from_top(self, dataset):
        mapping = analyze_mapping(dataset, top_k=TINY_TOP_K)
        assert len(mapping.top_usernames) + mapping.compromised_in_top == TINY_TOP_K
        assert not (set(mapping.top_usernames) & mapping.fake_usernames)

    def test_multi_username_ips_exist(self, dataset):
        mapping = analyze_mapping(dataset, top_k=TINY_TOP_K)
        assert mapping.ip_stats.multi_username_ips
        assert mapping.ip_stats.usernames_per_multi_ip_avg >= 2.0

    def test_mn08_style_raises(self, dataset, world):
        """Without usernames the Section 3.3 analysis must refuse."""
        import copy

        stripped = copy.copy(dataset)
        stripped.records = {
            tid: r for tid, r in dataset.records.items()
        }
        # Cheap way to emulate mn08: a dataset view without usernames.
        import dataclasses

        stripped.records = {
            tid: dataclasses.replace(r, username=None)
            if dataclasses.is_dataclass(r)
            else r
            for tid, r in dataset.records.items()
        }
        # TorrentRecord is a mutable dataclass; replace works.
        with pytest.raises(ValueError, match="no usernames"):
            analyze_mapping(stripped, top_k=TINY_TOP_K)


class TestGroups:
    def test_groups_disjoint_fake_top(self, groups):
        assert not (set(groups.fake) & set(groups.top))

    def test_top_split_partitions(self, groups):
        assert sorted(groups.top_hp + groups.top_ci) == sorted(groups.top)

    def test_shares_sum_sanely(self, dataset, groups):
        fake_content, fake_downloads = group_shares(dataset, groups, "Fake")
        top_content, top_downloads = group_shares(dataset, groups, "Top")
        assert fake_content + top_content < 1.0
        # Headline: fake + top carry the majority of content and downloads.
        assert fake_content + top_content > 0.40
        assert fake_downloads + top_downloads > 0.50

    def test_fake_ip_keys_present(self, groups):
        assert groups.fake_ip_keys
        for key in groups.fake_ip_keys:
            assert key.startswith("fakeip:")
            assert groups.publisher_ips[key]

    def test_all_sample_excludes_fakeip_keys(self, groups):
        assert not any(k.startswith("fakeip:") for k in groups.all_sample)

    def test_unknown_group_rejected(self, groups):
        with pytest.raises(KeyError):
            groups.group("Nonsense")


class TestContentType:
    def test_shares_sum_to_100(self, dataset, groups):
        breakdown = content_type_breakdown(dataset, groups)
        for name, entry in breakdown.items():
            if entry.num_torrents:
                assert sum(entry.shares.values()) == pytest.approx(100.0)

    def test_video_dominates_everywhere(self, dataset, groups):
        breakdown = content_type_breakdown(dataset, groups)
        for name in ("All", "Fake", "Top"):
            assert breakdown[name].video_share > 25.0

    def test_fake_concentrates_video_software(self, dataset, groups):
        breakdown = content_type_breakdown(dataset, groups)
        fake = breakdown["Fake"]
        assert fake.video_share + fake.share("Software") > 75.0

    def test_fine_breakdown(self, dataset, groups):
        rows = fine_category_breakdown(dataset, groups, "All")
        assert rows
        assert sum(share for _, share in rows) == pytest.approx(100.0)


class TestPopularity:
    def test_top_more_popular_than_all(self, dataset, groups):
        report = popularity_by_group(dataset, groups)
        ratio = report.median_ratio("Top", "All")
        assert ratio > 2.0  # paper: ~7x at full scale

    def test_fake_unpopular(self, dataset, groups):
        """Fake torrents are unpopular: far below Top, near All.  (At full
        scale the paper has Fake strictly lowest; the tiny world's compressed
        popularity keeps only the ordering vs Top sharp.)"""
        report = popularity_by_group(dataset, groups)
        assert (
            report.per_group["Fake"].median
            < report.per_group["Top"].median * 0.5
        )
        assert (
            report.per_group["Fake"].median
            <= report.per_group["All"].median * 4.0
        )

    def test_hp_at_least_ci(self, dataset, groups):
        report = popularity_by_group(dataset, groups)
        if "Top-HP" in report.per_group and "Top-CI" in report.per_group:
            assert (
                report.per_group["Top-HP"].median
                >= report.per_group["Top-CI"].median * 0.8
            )


class TestSeeding:
    def test_threshold_derivation(self, dataset):
        derivation = derive_threshold(dataset)
        assert derivation.threshold_minutes >= 3 * derivation.query_spacing_minutes
        assert derivation.sample_w == 50

    def test_fake_signature(self, dataset, groups):
        """Fig 4: fake publishers seed longest, most parallel, longest
        sessions."""
        report = seeding_by_group(dataset, groups)
        fake = report.per_group["Fake"]
        all_group = report.per_group["All"]
        assert fake["seeding_time"].median > 3 * all_group["seeding_time"].median
        assert fake["parallel"].median > all_group["parallel"].median
        assert fake["session_time"].median > 3 * all_group["session_time"].median

    def test_top_session_time_above_all(self, dataset, groups):
        report = seeding_by_group(dataset, groups)
        assert (
            report.per_group["Top"]["session_time"].median
            > report.per_group["All"]["session_time"].median
        )

    def test_all_parallel_about_one(self, dataset, groups):
        report = seeding_by_group(dataset, groups)
        assert report.per_group["All"]["parallel"].median < 2.0

    def test_custom_threshold_override(self, dataset, groups):
        report = seeding_by_group(dataset, groups, threshold_minutes=240.0)
        assert report.threshold.threshold_minutes == 240.0


class TestIncentives:
    def test_classes_partition_top(self, dataset, groups):
        report = classify_top_publishers(dataset, groups)
        classified = [u for members in report.class_members.values() for u in members]
        assert sorted(classified) == sorted(groups.top)

    def test_profit_driven_recovered(self, dataset, groups, world):
        """Promo-URL classification matches the agents' ground truth."""
        report = classify_top_publishers(dataset, groups)
        truth_class = {}
        for agent in world.population.agents:
            truth_class[agent.username] = agent.publisher_class
        for username in report.class_members["BT Portals"]:
            assert truth_class.get(username) is PublisherClass.TOP_BT_PORTAL
        for username in report.class_members["Other Web sites"]:
            assert truth_class.get(username) is PublisherClass.TOP_WEB_PROMOTER

    def test_altruistic_dont_promote(self, dataset, groups):
        report = classify_top_publishers(dataset, groups)
        for username in report.class_members["Altruistic Publishers"]:
            assert not report.publishers[username].evidence.any_promotion

    def test_textbox_most_common_placement(self, dataset, groups):
        report = classify_top_publishers(dataset, groups)
        promoting_classes = [
            cls for cls in ("BT Portals", "Other Web sites")
            if report.class_members[cls]
        ]
        assert promoting_classes
        for cls in promoting_classes:
            assert report.textbox_fraction[cls] >= 0.5

    def test_longitudinal_metrics_present(self, dataset, groups):
        report = classify_top_publishers(dataset, groups)
        for cls, members in report.class_members.items():
            if members:
                assert cls in report.lifetime_days_summary
                summary = report.lifetime_days_summary[cls]
                assert summary.minimum <= summary.mean <= summary.maximum

    def test_profit_driven_rate_above_altruistic(self, dataset, groups):
        report = classify_top_publishers(dataset, groups)
        bt = report.publishing_rate_summary.get("BT Portals")
        alt = report.publishing_rate_summary.get("Altruistic Publishers")
        if bt and alt:
            assert bt.mean > alt.mean

    def test_regular_publishers_show_no_promotion(self, dataset, groups):
        assert check_regular_publishers(dataset, groups, sample_size=50) == 0


class TestIncome:
    def test_website_economics_ranges(self, dataset, groups):
        incentives = classify_top_publishers(dataset, groups)
        income = website_economics(dataset, incentives)
        assert income.per_class  # at least one profit-driven class measured
        for econ in income.per_class.values():
            assert econ.value_usd.minimum <= econ.value_usd.median
            assert econ.value_usd.median <= econ.value_usd.maximum
            assert econ.daily_income_usd.median > 0
            assert econ.daily_visits.median > 0

    def test_ad_funded_majority(self, dataset, groups):
        incentives = classify_top_publishers(dataset, groups)
        income = website_economics(dataset, incentives)
        assert income.ad_funded_fraction > 0.5

    def test_ovh_income_estimate(self, dataset):
        estimate = hosting_provider_income(dataset)
        assert estimate.isp == "OVH"
        assert estimate.monthly_income_eur == estimate.num_publisher_ips * 300.0

    def test_no_hosting_consumers(self, dataset):
        """Paper: no OVH addresses among consuming peers."""
        assert consumers_at(dataset, "OVH") == 0


class TestIsps:
    def test_ranking_shares_sum_le_100(self, dataset):
        table = isp_ranking(dataset)
        assert table.rows
        assert sum(r.content_share_pct for r in table.rows) <= 100.0 + 1e-9

    def test_hosting_providers_prominent(self, dataset):
        table = isp_ranking(dataset)
        assert table.hosting_share_of_top_rows >= 0.3

    def test_ovh_vs_comcast_structure(self, dataset):
        ovh, comcast = ovh_vs_comcast(dataset)
        if ovh is None or comcast is None:
            pytest.skip("tiny world draw lacks one of the two ISPs")
        # Table 3's structural contrast.
        assert ovh.num_prefixes <= 7
        assert ovh.num_locations <= 4
        assert comcast.num_locations >= comcast.num_prefixes * 0.8
        assert ovh.fed_torrents / ovh.num_ips > comcast.fed_torrents / comcast.num_ips

    def test_top_hosting_fraction(self, dataset):
        hosting, ovh = top_publishers_at_hosting(dataset, top_k=TINY_TOP_K)
        assert 0.0 <= ovh <= hosting <= 1.0
        assert hosting > 0.2


class TestMultiIpClassification:
    """Section 3.3's three multi-IP username arrangements."""

    def test_fractions_partition(self, dataset):
        mapping = analyze_mapping(dataset, top_k=TINY_TOP_K)
        stats = mapping.username_stats
        total = (
            stats.multi_hosting_fraction
            + stats.dynamic_single_isp_fraction
            + stats.multiple_isps_fraction
        )
        if stats.multi_ip_usernames:
            assert total <= 1.0 + 1e-9
            assert total > 0.5  # most multi-IP users classified

    def test_hosting_class_matches_truth(self, dataset, world, groups):
        """Multi-IP usernames classified as hosting really are hosted."""
        from repro.agents.profiles import IpPolicy

        mapping = analyze_mapping(dataset, top_k=TINY_TOP_K)
        agents_by_username = {
            a.username: a for a in world.population.agents
        }
        stats = mapping.username_stats
        if stats.multi_ip_usernames == 0:
            pytest.skip("no multi-IP usernames at tiny scale")
        # Reconstruct the multi-IP set exactly as the analysis did and
        # cross-check the hosting-classified ones against truth.
        by_username = dataset.records_by_username()
        ranked = sorted(
            by_username, key=lambda u: len(by_username[u]), reverse=True
        )[:TINY_TOP_K]
        for username in ranked:
            if username in mapping.fake_usernames:
                continue  # hacked victims legitimately mix in fake-host IPs
            ips = dataset.publisher_ips_of(username)
            if len(ips) <= 1:
                continue
            agent = agents_by_username.get(username)
            if agent is None:
                continue
            kinds = {
                dataset.geoip.lookup(ip).kind
                for ip in ips
                if dataset.geoip.lookup(ip) is not None
            }
            from repro.geoip import IspKind

            if IspKind.HOSTING_PROVIDER in kinds:
                assert agent.ip_policy in (
                    IpPolicy.MULTI_HOSTING, IpPolicy.SINGLE_HOSTING,
                ) or agent.is_fake

"""End-to-end report: every table and figure of the paper in one call.

``build_report(dataset)`` runs the full pipeline; ``format_report`` renders
paper-style text tables.  ``PAPER_REFERENCE`` collects the numbers the paper
reports, so benchmarks and EXPERIMENTS.md can print paper-vs-measured side
by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.analysis.business_model import (
    BusinessModelGraph,
    build_business_model,
)
from repro.core.analysis.content_type import (
    ContentTypeBreakdown,
    content_type_breakdown,
)
from repro.core.analysis.contribution import ContributionReport, analyze_contribution
from repro.core.analysis.groups import PublisherGroups, group_shares, identify_groups
from repro.core.analysis.incentives import (
    IncentivesReport,
    classify_top_publishers,
)
from repro.core.analysis.income import (
    HostingIncomeEstimate,
    IncomeReport,
    hosting_provider_income,
    website_economics,
)
from repro.core.analysis.isps import (
    IspContrast,
    IspTable,
    isp_ranking,
    ovh_vs_comcast,
    top_publishers_at_hosting,
)
from repro.core.analysis.mapping import MappingReport
from repro.core.analysis.popularity import PopularityReport, popularity_by_group
from repro.core.analysis.seeding import SeedingReport, seeding_by_group
from repro.core.datasets import Dataset
from repro.stats.tables import format_number, format_table

# Headline numbers as the paper reports them (pb10 unless noted).
PAPER_REFERENCE: Dict[str, object] = {
    "fig1_top3pct_content_share": 0.40,
    "sec31_topk_no_download": 0.40,
    "sec31_topk_under5_download": 0.80,
    "table2_ovh_share_pct": {"mn08": 13.31, "pb09": 24.76, "pb10": 15.16},
    "table3_ovh": {"mn08": (2766, 164, 5, 2), "pb09": (2577, 78, 5, 2),
                   "pb10": (2213, 92, 7, 4)},
    "table3_comcast": {"mn08": (976, 675, 269, 400), "pb09": (382, 198, 143, 129),
                       "pb10": (408, 185, 139, 147)},
    "sec32_top100_hosting_fraction": {"pb10": 0.42, "pb09": 0.35, "mn08": 0.77},
    "sec32_top100_ovh_fraction": {"pb10": 0.22, "pb09": 0.20, "mn08": 0.45},
    "sec33_single_username_ip_fraction": 0.55,
    "sec33_single_ip_username_fraction": 0.25,
    "sec33_fake_username_share": 0.25,
    "sec33_fake_content_share": 0.30,
    "sec33_fake_download_share": 0.25,
    "sec33_top_content_share": 0.375,
    "sec33_top_download_share": 0.50,
    "fig3_top_over_all_median_ratio": 7.0,
    "fig3_tophp_over_topci_median_ratio": 1.5,
    "sec51_class_top_fraction": {
        "BT Portals": 0.26, "Other Web sites": 0.24,
        "Altruistic Publishers": 0.52,
    },
    "sec51_class_content_share": {
        "BT Portals": 0.18, "Other Web sites": 0.08,
        "Altruistic Publishers": 0.115,
    },
    "sec51_class_download_share": {
        "BT Portals": 0.29, "Other Web sites": 0.11,
        "Altruistic Publishers": 0.115,
    },
    "table4_lifetime_days_avg": {
        "BT Portals": 466, "Other Web sites": 459, "Altruistic Publishers": 376,
    },
    "table5_bt_portal_value_median_usd": 33_000.0,
    "table5_bt_portal_income_median_usd": 55.0,
    "table5_bt_portal_visits_median": 21_000.0,
    "sec6_ovh_income_range_eur": (23_400.0, 42_900.0),
    "appendix_m": 13,
    "appendix_threshold_minutes": 234.0,
}


@dataclass
class PaperReport:
    """All per-dataset analysis artifacts."""

    dataset: Dataset
    groups: PublisherGroups
    contribution: ContributionReport
    isp_table: IspTable
    ovh: Optional[IspContrast]
    comcast: Optional[IspContrast]
    top_hosting_fraction: float
    top_ovh_fraction: float
    mapping: Optional[MappingReport]
    content_types: Dict[str, ContentTypeBreakdown]
    popularity: PopularityReport
    seeding: SeedingReport
    incentives: Optional[IncentivesReport]
    income: Optional[IncomeReport]
    ovh_income: HostingIncomeEstimate
    business_model: Optional[BusinessModelGraph]
    group_shares: Dict[str, "tuple[float, float]"] = field(default_factory=dict)


def build_report(dataset: Dataset, top_k: int = 100) -> PaperReport:
    """Run the complete analysis pipeline on one dataset."""
    groups = identify_groups(dataset, top_k=top_k)
    incentives = classify_top_publishers(dataset, groups)
    income = website_economics(dataset, incentives) if incentives else None
    business_model = (
        build_business_model(dataset, incentives, income)
        if incentives is not None and income is not None
        else None
    )
    ovh, comcast = ovh_vs_comcast(dataset)
    hosting_fraction, ovh_fraction = top_publishers_at_hosting(dataset, top_k)
    report = PaperReport(
        dataset=dataset,
        groups=groups,
        contribution=analyze_contribution(dataset, top_k=top_k),
        isp_table=isp_ranking(dataset),
        ovh=ovh,
        comcast=comcast,
        top_hosting_fraction=hosting_fraction,
        top_ovh_fraction=ovh_fraction,
        mapping=groups.mapping,
        content_types=content_type_breakdown(dataset, groups),
        popularity=popularity_by_group(dataset, groups),
        seeding=seeding_by_group(dataset, groups),
        incentives=incentives,
        income=income,
        ovh_income=hosting_provider_income(dataset),
        business_model=business_model,
    )
    for name in groups.group_names:
        report.group_shares[name] = group_shares(dataset, groups, name)
    return report


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def format_report(report: PaperReport) -> str:
    """Render the whole report as paper-style text tables."""
    parts = []
    ds = report.dataset
    parts.append(
        format_table(
            ["dataset", "#torrents", "username", "publisher IP", "#IPs"],
            [[
                ds.name,
                ds.num_torrents,
                ds.num_with_username or "-",
                ds.num_with_publisher_ip,
                format_number(ds.total_distinct_ips()),
            ]],
            title="Table 1 analogue -- dataset description",
        )
    )

    curve = ", ".join(f"top {x:g}% -> {y:.1f}%" for x, y in report.contribution.curve[:5])
    parts.append(f"\nFigure 1 -- contribution curve: {curve}")
    parts.append(
        f"  top 3% of publishers contribute "
        f"{100 * report.contribution.top3pct_content_share:.1f}% of content "
        f"(paper: ~40%)"
    )

    parts.append(
        format_table(
            ["ISP", "type", "% content"],
            [
                [row.isp, row.kind.value, f"{row.content_share_pct:.2f}"]
                for row in report.isp_table.rows
            ],
            title="\nTable 2 analogue -- publisher distribution per ISP",
        )
    )

    rows = []
    for contrast in (report.ovh, report.comcast):
        if contrast is not None:
            rows.append(
                [
                    contrast.isp,
                    contrast.fed_torrents,
                    contrast.num_ips,
                    contrast.num_prefixes,
                    contrast.num_locations,
                ]
            )
    if rows:
        parts.append(
            format_table(
                ["ISP", "fed torrents", "IPs", "/16 prefixes", "geo locations"],
                rows,
                title="\nTable 3 analogue -- OVH vs Comcast",
            )
        )

    if report.mapping is not None:
        m = report.mapping
        parts.append(
            "\nSection 3.3 -- username<->IP mapping:\n"
            f"  top-IP single-username fraction: "
            f"{100 * m.ip_stats.single_username_fraction:.0f}% (paper: 55%)\n"
            f"  fake publishers: {len(m.fake_usernames)} usernames "
            f"({100 * m.fake_username_share:.0f}% of usernames; paper ~25%), "
            f"{100 * m.fake_content_share:.0f}% of content (paper 30%), "
            f"{100 * m.fake_download_share:.0f}% of downloads (paper 25%)\n"
            f"  Top set: {len(m.top_usernames)} usernames after removing "
            f"{m.compromised_in_top} compromised; "
            f"{100 * m.top_content_share:.0f}% of content (paper 37%), "
            f"{100 * m.top_download_share:.0f}% of downloads (paper 50%)"
        )

    header = ["group"] + sorted(
        next(iter(report.content_types.values())).shares
    )
    rows = [
        [name] + [f"{report.content_types[name].shares[c]:.1f}" for c in header[1:]]
        for name in report.content_types
    ]
    parts.append(
        format_table(header, rows, title="\nFigure 2 analogue -- content types (%)")
    )

    rows = [
        [name, f"{s.p25:.0f}", f"{s.median:.0f}", f"{s.p75:.0f}"]
        for name, s in report.popularity.per_group.items()
    ]
    parts.append(
        format_table(
            ["group", "p25", "median", "p75"],
            rows,
            title="\nFigure 3 analogue -- avg downloaders per torrent per publisher",
        )
    )

    t = report.seeding.threshold
    parts.append(
        f"\nAppendix A applied: N={t.population_n}, W={t.sample_w}, "
        f"spacing={t.query_spacing_minutes:.1f}min -> offline threshold "
        f"{t.threshold_minutes / 60.0:.1f}h (paper: 4h)"
    )
    rows = []
    for name, metrics in report.seeding.per_group.items():
        rows.append(
            [
                name,
                f"{metrics['seeding_time'].median:.1f}",
                f"{metrics['parallel'].median:.1f}",
                f"{metrics['session_time'].median:.1f}",
            ]
        )
    parts.append(
        format_table(
            ["group", "seed h/torrent", "parallel", "session h"],
            rows,
            title="\nFigure 4 analogue -- seeding behaviour (medians)",
        )
    )

    if report.incentives is not None:
        rows = [
            [
                cls,
                f"{100 * report.incentives.class_top_fraction[cls]:.0f}%",
                f"{100 * report.incentives.class_content_share[cls]:.1f}%",
                f"{100 * report.incentives.class_download_share[cls]:.1f}%",
            ]
            for cls in report.incentives.class_members
        ]
        parts.append(
            format_table(
                ["class", "% of top", "% content", "% downloads"],
                rows,
                title="\nSection 5.1 analogue -- publisher classes",
            )
        )
        if report.incentives.monetization_fraction:
            channels = ", ".join(
                f"{name}: {100 * fraction:.0f}%"
                for name, fraction in report.incentives.monetization_fraction.items()
            )
            parts.append(
                f"  BT-portal income channels -- {channels}; "
                f"{100 * report.incentives.seed_ratio_fraction:.0f}% enforce "
                f"a seeding ratio"
            )
        rows = []
        for cls, summary in report.incentives.lifetime_days_summary.items():
            rate = report.incentives.publishing_rate_summary.get(cls)
            rows.append(
                [
                    cls,
                    f"{summary.minimum:.0f}/{summary.mean:.0f}/{summary.maximum:.0f}",
                    (
                        f"{rate.minimum:.2f}/{rate.mean:.2f}/{rate.maximum:.2f}"
                        if rate
                        else "-"
                    ),
                ]
            )
        parts.append(
            format_table(
                ["class", "lifetime days (min/avg/max)", "rate/day (min/avg/max)"],
                rows,
                title="\nTable 4 analogue -- longitudinal view",
            )
        )

    if report.income is not None:
        rows = []
        for cls, econ in report.income.per_class.items():
            rows.append(
                [
                    cls,
                    "/".join(format_number(v) for v in econ.value_usd.as_tuple()),
                    "/".join(format_number(v) for v in econ.daily_income_usd.as_tuple()),
                    "/".join(format_number(v) for v in econ.daily_visits.as_tuple()),
                ]
            )
        parts.append(
            format_table(
                ["class", "site value $ (min/med/avg/max)",
                 "daily income $", "daily visits"],
                rows,
                title="\nTable 5 analogue -- website economics",
            )
        )

    parts.append(
        f"\nSection 6 analogue -- {report.ovh_income.isp}: "
        f"{report.ovh_income.num_publisher_ips} publisher servers -> "
        f"{format_number(report.ovh_income.monthly_income_eur)} EUR/month"
    )

    if report.business_model is not None:
        parts.append("")
        parts.append(report.business_model.to_text())
    return "\n".join(parts)

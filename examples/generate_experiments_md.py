#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

    python examples/generate_experiments_md.py [--scale S] [--pop P]
        [--seed N] [--out EXPERIMENTS.md]

This runs the three full measurement campaigns (a few minutes at the default
scale) and records the comparison the repository's benchmarks assert.
"""

import argparse
import io

from repro import build_report, mn08_scenario, pb09_scenario, pb10_scenario, run_measurement
from repro.core.analysis.contribution import analyze_contribution
from repro.core.analysis.isps import isp_ranking, ovh_vs_comcast, top_publishers_at_hosting
from repro.core.analysis.report import PAPER_REFERENCE
from repro.stats.tables import format_number


def pct(x: float) -> str:
    return f"{100 * x:.0f}%"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--pop", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--top-k", type=int, default=40)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()

    datasets = {}
    for offset, factory in enumerate((pb10_scenario, pb09_scenario, mn08_scenario)):
        config = factory(scale=args.scale, popularity_scale=args.pop)
        datasets[config.name] = run_measurement(config, seed=args.seed + offset,
                                                progress=print)
    pb10 = datasets["pb10"]
    report = build_report(pb10, top_k=args.top_k)
    ref = PAPER_REFERENCE

    out = io.StringIO()
    w = out.write
    w("# EXPERIMENTS — paper vs. measured\n\n")
    w(f"Generated by `examples/generate_experiments_md.py --scale {args.scale} "
      f"--pop {args.pop} --seed {args.seed} --top-k {args.top_k}`.\n\n")
    w("The worlds are reduced-scale synthetics (see DESIGN.md), so absolute\n"
      "counts differ from the paper by construction; the claims reproduced\n"
      "are the *shapes*: who dominates, by roughly what factor, and where\n"
      "the structure lies.  Every row below is also asserted by a benchmark\n"
      "in `benchmarks/`.\n\n")

    # Table 1
    w("## Table 1 — datasets\n\n")
    w("| dataset | paper (#torrents u/IP, #IPs) | measured (#torrents u/IP, #IPs) |\n")
    w("|---|---|---|\n")
    paper_t1 = {
        "mn08": "– / 20.8K, 8.2M IPs",
        "pb09": "23.2K / 10.4K, 52.9K IPs",
        "pb10": "38.4K / 14.6K, 27.3M IPs",
    }
    for name in ("mn08", "pb09", "pb10"):
        ds = datasets[name]
        w(f"| {name} | {paper_t1[name]} | "
          f"{ds.num_with_username or '–'} / {ds.num_with_publisher_ip} of "
          f"{ds.num_torrents}, {format_number(ds.total_distinct_ips())} IPs |\n")
    w("\nStructural quirks reproduced: Mininova's feed carries no username; "
      "pb09's single-query crawl discovers orders of magnitude fewer IPs "
      "per torrent than the monitored crawls.\n\n")

    # Figure 1
    w("## Figure 1 — contribution skewness\n\n")
    w("| dataset | paper top-3% share | measured top-3% share | measured top-10% |\n|---|---|---|---|\n")
    for name, ds in datasets.items():
        contribution = analyze_contribution(ds, top_k=args.top_k)
        knee10 = dict(contribution.curve)[10]
        w(f"| {name} | ~40% | {pct(contribution.top3pct_content_share)} | "
          f"{knee10:.0f}% |\n")
    w("\nmn08 is keyed by publisher *IP* (its feed has no usernames), so "
      "multi-server publishers split across their IPs and, at reduced scale, "
      "the knee sits further right while the curve stays strongly concave.\n")
    contribution = report.contribution
    w(f"\nSection 3.1 consumption: paper 40% of top-100 IPs download nothing "
      f"/ 80% download <5; measured {pct(contribution.top_k_no_download_fraction)} "
      f"/ {pct(contribution.top_k_under5_download_fraction)}.\n\n")

    # Table 2
    w("## Table 2 — publishers per ISP\n\n")
    for name, ds in datasets.items():
        table = isp_ranking(ds)
        hosting, ovh = top_publishers_at_hosting(ds, top_k=args.top_k)
        paper_ovh = ref["table2_ovh_share_pct"][name]
        leader = table.rows[0]
        w(f"- **{name}**: leader {leader.isp} ({leader.kind.value}) at "
          f"{leader.content_share_pct:.1f}% (paper: OVH at {paper_ovh}%); "
          f"top publishers at hosting {pct(hosting)} (paper "
          f"{pct(ref['sec32_top100_hosting_fraction'][name])}), at OVH "
          f"{pct(ovh)} (paper {pct(ref['sec32_top100_ovh_fraction'][name])})\n")
    w("\nOur top-K at reduced scale includes the fake entities' hacked "
      "accounts (all at hosting providers), which pushes the hosting "
      "fraction above the paper's 42% for the Pirate Bay datasets.\n\n")

    # Table 3
    w("## Table 3 — OVH vs Comcast\n\n")
    w("| dataset | ISP | paper fed/IPs//16s/geo | measured |\n|---|---|---|---|\n")
    for name, ds in datasets.items():
        ovh, comcast = ovh_vs_comcast(ds)
        for isp_name, contrast, refkey in (
            ("OVH", ovh, "table3_ovh"), ("Comcast", comcast, "table3_comcast")
        ):
            paper_row = "/".join(str(v) for v in ref[refkey][name])
            measured = (
                f"{contrast.fed_torrents}/{contrast.num_ips}/"
                f"{contrast.num_prefixes}/{contrast.num_locations}"
                if contrast else "not observed"
            )
            w(f"| {name} | {isp_name} | {paper_row} | {measured} |\n")
    w("\nShape: OVH feeds several times more content per IP from a handful "
      "of prefixes in 2 cities; Comcast scatters across many prefixes, one "
      "city each.\n\n")

    # Section 3.3
    mapping = report.mapping
    w("## Section 3.3 — username ↔ IP mapping (pb10)\n\n")
    w("| metric | paper | measured |\n|---|---|---|\n")
    rows = [
        ("single-username top IPs", pct(ref["sec33_single_username_ip_fraction"]),
         pct(mapping.ip_stats.single_username_fraction)),
        ("fake usernames share", pct(ref["sec33_fake_username_share"]),
         pct(mapping.fake_username_share)),
        ("fake content share", pct(ref["sec33_fake_content_share"]),
         pct(mapping.fake_content_share)),
        ("fake download share", pct(ref["sec33_fake_download_share"]),
         pct(mapping.fake_download_share)),
        ("Top content share", pct(ref["sec33_top_content_share"]),
         pct(mapping.top_content_share)),
        ("Top download share", pct(ref["sec33_top_download_share"]),
         pct(mapping.top_download_share)),
        ("compromised accounts removed from top set", "16",
         str(mapping.compromised_in_top)),
        ("multi-IP users: several hosting servers", "34%",
         pct(mapping.username_stats.multi_hosting_fraction)),
        ("multi-IP users: dynamic single ISP", "24%",
         pct(mapping.username_stats.dynamic_single_isp_fraction)),
        ("multi-IP users: several commercial ISPs", "16%",
         pct(mapping.username_stats.multiple_isps_fraction)),
        ("major (fake+Top) content share", "66%",
         pct(mapping.fake_content_share + mapping.top_content_share)),
        ("major (fake+Top) download share", "75%",
         pct(mapping.fake_download_share + mapping.top_download_share)),
    ]
    for label, paper, measured in rows:
        w(f"| {label} | {paper} | {measured} |\n")
    w("\nDeviation notes: the multi-IP username mix skews toward \"several "
      "hosting servers\" relative to the paper's 34/24/16 split because our "
      "top set is hosting-heavier (fake entities' hacked accounts and "
      "quota-assigned hosting publishers); mn08's Table 2 leader varies by "
      "seed between OVH and the fake hosts, since its IP-keyed world is the "
      "smallest.  Both are reduced-scale artifacts, not model "
      "disagreements.\n\n")

    # Figure 2
    w("## Figure 2 — content types per group (pb10)\n\n")
    w("| group | paper | measured Video / Software |\n|---|---|---|\n")
    paper_fig2 = {
        "All": "Video 37–51%",
        "Fake": "Video + Software dominate",
        "Top": "Video slightly above All",
        "Top-HP": "largest Video share",
        "Top-CI": "more Audio/E-books",
    }
    for name, entry in report.content_types.items():
        w(f"| {name} | {paper_fig2.get(name, '')} | "
          f"{entry.video_share:.0f}% / {entry.share('Software'):.0f}% |\n")
    w("\n")

    # Figure 3
    w("## Figure 3 — popularity per group (pb10)\n\n")
    pop = report.popularity
    w("| metric | paper | measured |\n|---|---|---|\n")
    w(f"| Top / All median ratio | ~7x | "
      f"{pop.median_ratio('Top', 'All'):.1f}x |\n")
    w(f"| Top-HP / Top-CI median ratio | ~1.5x | "
      f"{pop.median_ratio('Top-HP', 'Top-CI'):.2f}x |\n")
    w(f"| Fake vs All median | lowest group | "
      f"{pop.per_group['Fake'].median:.0f} vs {pop.per_group['All'].median:.0f} |\n")
    w("\n")

    # Figure 4
    w("## Figure 4 — seeding behaviour (pb10, medians)\n\n")
    seeding = report.seeding
    t = seeding.threshold
    w(f"Appendix A applied to our sampling: N={t.population_n}, W={t.sample_w}, "
      f"spacing={t.query_spacing_minutes:.0f} min → offline threshold "
      f"{t.threshold_minutes / 60:.1f} h (paper: 165/50/18 min → ~4 h).\n\n")
    w("| group | 4a seed h/torrent | 4b parallel | 4c session h |\n|---|---|---|---|\n")
    for name, metrics in seeding.per_group.items():
        w(f"| {name} | {metrics['seeding_time'].median:.1f} | "
          f"{metrics['parallel'].median:.1f} | "
          f"{metrics['session_time'].median:.1f} |\n")
    w("\nPaper shapes reproduced: fake publishers seed each torrent by far "
      "the longest, many in parallel, across the longest sessions; "
      "Top-HP > Top-CI on all three metrics; All ≈ 1 parallel torrent.\n"
      "Fake parallelism is measured per fake *server IP* (the paper's "
      "Section 3 exception for username-rotating fake entities); its "
      "absolute value scales with the reduced per-entity publishing rate.\n\n")

    # Section 5.1
    incentives = report.incentives
    w("## Section 5.1 — business classes (pb10)\n\n")
    w("| class | paper %top/%content/%downloads | measured |\n|---|---|---|\n")
    for cls in incentives.class_members:
        paper_row = (
            f"{pct(ref['sec51_class_top_fraction'][cls])}/"
            f"{pct(ref['sec51_class_content_share'][cls])}/"
            f"{pct(ref['sec51_class_download_share'][cls])}"
        )
        measured = (
            f"{pct(incentives.class_top_fraction[cls])}/"
            f"{pct(incentives.class_content_share[cls])}/"
            f"{pct(incentives.class_download_share[cls])}"
        )
        w(f"| {cls} | {paper_row} | {measured} |\n")
    profit_content = sum(
        incentives.class_content_share[c] for c in ("BT Portals", "Other Web sites")
    )
    profit_downloads = sum(
        incentives.class_download_share[c] for c in ("BT Portals", "Other Web sites")
    )
    w(f"\nProfit-driven total: paper ~26% content / ~40% downloads; measured "
      f"{pct(profit_content)} / {pct(profit_downloads)}.  Textbox is the "
      f"dominant promo placement in both promoting classes "
      f"(paper: 2/3 for BT portals).\n")
    if incentives.language_specific_fraction:
        w(f"Language-specific BT portals: paper 40% (66% Spanish); measured "
          f"{pct(incentives.language_specific_fraction)} "
          f"({pct(incentives.spanish_fraction_of_language_specific)} Spanish).\n")
    w("\n")

    # Table 4
    w("## Table 4 — longitudinal view (pb10)\n\n")
    w("| class | paper lifetime min/avg/max (d) | measured | paper rate min/avg/max (/d) | measured |\n")
    w("|---|---|---|---|---|\n")
    paper_t4 = {
        "BT Portals": ("63/466/1816", "0.57/11.43/79.91"),
        "Other Web sites": ("50/459/1989", "0.38/4.31/18.98"),
        "Altruistic Publishers": ("10/376/1899", "0.10/3.80/23.67"),
    }
    for cls, (plife, prate) in paper_t4.items():
        life = incentives.lifetime_days_summary.get(cls)
        rate = incentives.publishing_rate_summary.get(cls)
        mlife = (f"{life.minimum:.0f}/{life.mean:.0f}/{life.maximum:.0f}"
                 if life else "–")
        mrate = (f"{rate.minimum:.2f}/{rate.mean:.2f}/{rate.maximum:.2f}"
                 if rate else "–")
        w(f"| {cls} | {plife} | {mlife} | {prate} | {mrate} |\n")
    w("\nShape: profit-driven classes publish for >1 year on average (the "
      "longest-lived ~5 years) at the highest rates; absolute rates scale "
      "with the reduced world.\n\n")

    # Table 5
    w("## Table 5 — website economics (pb10)\n\n")
    w("| class | metric | paper min/med/avg/max | measured |\n|---|---|---|---|\n")
    paper_t5 = {
        "BT Portals": {
            "value $": "1K/33K/313K/2.8M",
            "income $/day": "1/55/440/3.7K",
            "visits/day": "74/21K/174K/1.4M",
        },
        "Other Web sites": {
            "value $": "24/22K/142K/1.8M",
            "income $/day": "1/51/205/1.9K",
            "visits/day": "7/22K/73.5K/772K",
        },
    }
    for cls, econ in report.income.per_class.items():
        for metric, summary in (
            ("value $", econ.value_usd),
            ("income $/day", econ.daily_income_usd),
            ("visits/day", econ.daily_visits),
        ):
            measured = "/".join(format_number(v) for v in summary.as_tuple())
            w(f"| {cls} | {metric} | {paper_t5[cls][metric]} | {measured} |\n")
    w(f"\nSites valued above $100k: paper '<10'; measured "
      f"{report.income.very_profitable_sites}.  All estimates are "
      f"six-monitor averages, as in the paper's footnote 9.\n\n")

    # Section 6
    w("## Section 6 — hosting-provider income\n\n")
    lo, hi = ref["sec6_ovh_income_range_eur"]
    w(f"Paper: OVH hosts 78–164 publisher servers → "
      f"{format_number(lo)}–{format_number(hi)} EUR/month at 300 EUR/server.\n\n")
    for name, ds in datasets.items():
        from repro.core.analysis.income import consumers_at, hosting_provider_income

        est = hosting_provider_income(ds)
        w(f"- {name}: {est.num_publisher_ips} OVH publisher servers → "
          f"{format_number(est.monthly_income_eur)} EUR/month\n")
    from repro.core.analysis.income import consumers_at

    w(f"\nOVH addresses among downloaders (paper: none observed): "
      f"{consumers_at(pb10, 'OVH')}.\n\n")

    # Figure 5
    from repro.core.analysis.business_model import build_business_model

    graph = build_business_model(pb10, incentives, report.income)
    w("## Figure 5 — business model\n\n")
    w("Money-flow graph rebuilt from this campaign's own estimates "
      "(Table 5 income panel, Section 6 hosting bill, Section 5.1 "
      "monetization mix):\n\n```\n")
    w(graph.to_text())
    w("\n```\n\n")

    # Appendix A
    w("## Appendix A — session estimation model\n\n")
    w("| quantity | paper | measured |\n|---|---|---|\n")
    from repro.core.sessions import offline_threshold, required_queries

    m = required_queries(165, 50, 0.99)
    threshold = offline_threshold(165, 50, 18.0, 0.99)
    w(f"| m at (N=165, W=50, P=0.99) | 13 | {m} |\n")
    w(f"| offline threshold | ~4 h | {threshold / 60:.1f} h |\n")
    w("| 2h/4h/6h threshold robustness | 'similar results' | "
      "within 1.6x (benchmark `test_fig4_threshold_sensitivity`) |\n")
    w("\nEq. (1) is additionally validated against Monte-Carlo sampling to "
      "<0.03 absolute error (`test_appendix_monte_carlo_validation`), and an "
      "error sweep over (W, spacing) quantifies estimator accuracy "
      "(`test_appendix_estimation_error_sweep`).\n\n")

    # Scorecard
    from repro.core.analysis.comparison import format_scorecard, score_reproduction

    w("## Scorecard — every headline claim, banded\n\n```\n")
    w(format_scorecard(score_reproduction(report)))
    w("\n```\n\n")

    # Section 7
    w("## Section 7 — monitoring application\n\n")
    w("Implemented in `repro.core.monitor`, writing the campaign database "
      "of `repro.core.export` (SQLite).  The monitor is the crawler in "
      "single-query mode (`monitor_swarms=False`, as for pb09) whose "
      "database is the campaign archive: one tracker announce and/or DHT "
      "lookup per new torrent, .torrent or magnet link, each record stored "
      "with its publisher IP's GeoIP row, per-publisher annotations for "
      "profit-driven publishers, and the fake-publisher filter the paper "
      "announces as future work.  A monitor database written to a file "
      "loads with `load_dataset`, so the offline analyses run on it.  On "
      "the magnet-only `trackerless` portal (seed 7) it locates 148 of 283 "
      "publishers.  Exercised by `examples/live_monitor.py` and "
      "`tests/test_monitor_storage.py`.\n\n")

    # Discovery-channel ablation (kept in sync with the benchmark's own run:
    # hybrid scenario, scale 0.3, seed 99 -- cheap enough to recompute here
    # would still triple this script's runtime, so we record the benchmark).
    w("## Ablation — peer-discovery channel (tracker vs DHT vs hybrid)\n\n")
    w("The paper's crawler depended on one tracker (§7 anticipated a "
      "trackerless\necosystem); `repro.dht` models the Mainline DHT as a "
      "second discovery\nchannel.  One world (hybrid scenario, scale 0.3, "
      "seed 99) crawled three\nways — "
      "`benchmarks/test_ablation_discovery.py`:\n\n")
    w("```\n"
      "discovery | ident precision | ident coverage | download coverage | channel gap\n"
      "----------+-----------------+----------------+-------------------+------------\n"
      "tracker   | 1.00            | 0.45           | 0.66              | -\n"
      "dht       | 1.00            | 0.45           | 0.77              | -\n"
      "hybrid    | 1.00            | 0.45           | 0.79              | 0.091\n"
      "```\n\n")
    w("Identification precision and coverage are channel-independent — the\n"
      "methodology, not the tracker, does the identifying.  The DHT "
      "channel's\nannounce-TTL grace lets it see slightly more downloader "
      "IPs than 20–30-minute\ntracker sampling; on the hybrid run the "
      "tracker-vs-DHT coverage gap stays\nwithin 10 percentage points "
      "(asserted), validating the DHT model against the\ntracker channel "
      "over the same ground truth.\n")

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Regenerate every table and figure of the paper.

Builds the three dataset analogues (mn08, pb09, pb10), runs the full
measurement campaign over each, and prints the complete analysis report for
the primary (pb10) dataset plus the cross-dataset artifacts.

    python examples/reproduce_paper.py [--scale S] [--pop P] [--seed N]
                                       [--report-json PATH]

At --scale 1.0 (default) this crawls ~4-5k torrents across the three worlds
and takes a couple of minutes; --scale 0.3 --pop 0.3 gives a fast preview.

``--report-json`` additionally writes a structured per-campaign run report
(dataset summaries + the full observability snapshot of every campaign) so
successive runs can be compared.  Timing belongs to the repository
benchmark, ``perfbench/run.py``.
"""

import argparse
import json
import time

from repro import build_report, mn08_scenario, pb09_scenario, pb10_scenario, run_measurement
from repro.core.analysis.contribution import analyze_contribution
from repro.core.analysis.isps import isp_ranking, ovh_vs_comcast
from repro.core.analysis.report import format_report
from repro.observability import MetricsRegistry
from repro.stats.tables import format_number, format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="publisher population scale (default 1.0)")
    parser.add_argument("--pop", type=float, default=1.0,
                        help="per-torrent popularity scale (default 1.0)")
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--top-k", type=int, default=40,
                        help="size of the 'top publishers' set (the paper's "
                        "top-100 at full scale)")
    parser.add_argument("--report-json", default=None, metavar="PATH",
                        help="write a structured per-campaign JSON run "
                        "report (summaries + metrics snapshots) here")
    args = parser.parse_args()

    datasets = {}
    campaigns = {}
    for offset, factory in enumerate((mn08_scenario, pb09_scenario, pb10_scenario)):
        config = factory(scale=args.scale, popularity_scale=args.pop)
        registry = MetricsRegistry()
        started = time.perf_counter()
        datasets[config.name] = run_measurement(
            config, seed=args.seed + offset, progress=print, metrics=registry
        )
        dataset = datasets[config.name]
        campaigns[config.name] = {
            "seed": args.seed + offset,
            "wall_seconds": time.perf_counter() - started,
            "summary": dataset.summary_dict(),
            "crawler_stats": dataset.crawler_stats,
            "metrics": registry.snapshot(),
        }

    # Table 1 across the three datasets.
    print()
    print(
        format_table(
            ["dataset", "portal", "#torrents", "w/ username", "w/ IP", "#IPs"],
            [
                [
                    name,
                    ds.config.portal_name,
                    ds.num_torrents,
                    ds.num_with_username or "-",
                    ds.num_with_publisher_ip,
                    format_number(ds.total_distinct_ips()),
                ]
                for name, ds in datasets.items()
            ],
            title="Table 1 analogue",
        )
    )

    # Figure 1 and Tables 2/3 for every dataset.
    for name, ds in datasets.items():
        report = analyze_contribution(ds, top_k=args.top_k)
        knee = dict(report.curve)
        print(f"\n[{name}] Fig 1: top 3% of publishers -> "
              f"{report.top3pct_content_share * 100:.1f}% of content "
              f"(paper ~40%); top 10% -> {knee[10]:.1f}%")
        table = isp_ranking(ds)
        leader = table.rows[0]
        print(f"[{name}] Table 2 leader: {leader.isp} "
              f"({leader.content_share_pct:.1f}% of identified content)")
        ovh, comcast = ovh_vs_comcast(ds)
        if ovh and comcast:
            print(f"[{name}] Table 3: OVH {ovh.fed_torrents} torrents / "
                  f"{ovh.num_ips} IPs / {ovh.num_prefixes} prefixes / "
                  f"{ovh.num_locations} locations; Comcast "
                  f"{comcast.fed_torrents} / {comcast.num_ips} / "
                  f"{comcast.num_prefixes} / {comcast.num_locations}")

    # The full pb10 report (every remaining table & figure).
    print("\n" + "=" * 72)
    print("FULL REPORT -- pb10 analogue")
    print("=" * 72)
    report = build_report(datasets["pb10"], top_k=args.top_k)
    print(format_report(report))

    if args.report_json:
        run_report = {
            "scale": args.scale,
            "popularity_scale": args.pop,
            "top_k": args.top_k,
            "campaigns": campaigns,
        }
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(run_report, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"\nrun report written to {args.report_json}")


if __name__ == "__main__":
    main()

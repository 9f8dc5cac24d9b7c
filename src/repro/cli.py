"""Command-line interface.

    python -m repro run pb10 --scale 0.4 --archive pb10.sqlite
    python -m repro report pb10 --scale 0.4 --top-k 40
    python -m repro metrics tiny --sim-only
    python -m repro sweep --scenario baseline --seeds 8 --jobs 4
    python -m repro monitor --days 6
    python -m repro appendix --n 165 --w 50 --spacing 18

Subcommands:

``run``
    Run one measurement campaign and print the Table-1-style summary;
    ``--archive`` additionally writes the SQLite archive.
``report``
    Run a campaign and print the complete analysis report (every table and
    figure of the paper).
``metrics``
    Run a campaign and emit the observability snapshot as JSON (counters,
    gauges, histogram summaries across engine/crawler/tracker/swarm/portal;
    ``--sim-only`` drops wall-clock timings so output is seed-deterministic).
``sweep``
    Replicate scenarios across a seed grid (optionally in parallel worker
    processes) and print cross-seed mean/stdev/CI bands for every headline
    statistic; ``--report-json`` writes the deterministic aggregate report.
``monitor``
    Run the Section 7 live monitoring application over a small world and
    print the database view.
``appendix``
    Evaluate the Appendix A model for given (N, W, spacing, confidence).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
from typing import List, Optional

from repro.campaign import SweepSpec, run_sweep
from repro.core.analysis.report import build_report, format_report
from repro.core.collector import run_measurement
from repro.core.export import save_dataset
from repro.core.monitor import ContentPublishingMonitor
from repro.core.sessions import offline_threshold, required_queries
from repro.observability import MetricsRegistry
from repro.simulation import (
    DISCOVERY_MODES,
    SCENARIO_FACTORIES,
    World,
    build_scenario,
    tiny_scenario,
)
from repro.simulation.engine import EventScheduler
from repro.stats.tables import format_number, format_table


def _scenario_name(value: str) -> str:
    """Argparse type for scenario names: exits 2 with the valid list."""
    if value not in SCENARIO_FACTORIES:
        raise argparse.ArgumentTypeError(
            f"unknown scenario {value!r}; valid scenarios: "
            f"{', '.join(sorted(SCENARIO_FACTORIES))}"
        )
    return value


def _seed_value(value: str) -> int:
    """Argparse type for --seed: a non-negative integer."""
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {value!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _positive_int(value: str) -> int:
    """Argparse type for an integer >= 1."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _number(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}")


def _positive_float(value: str) -> float:
    """Argparse type for a finite number > 0."""
    number = _number(value)
    if not (math.isfinite(number) and number > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {value!r}")
    return number


def _nonnegative_float(value: str) -> float:
    """Argparse type for a finite number >= 0."""
    number = _number(value)
    if not (math.isfinite(number) and number >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {value!r}")
    return number


def _fraction(value: str) -> float:
    """Argparse type for a fraction in [0, 1]."""
    number = _number(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value!r}")
    return number


def _open_fraction(value: str) -> float:
    """Argparse type for a fraction in the open interval (0, 1)."""
    number = _number(value)
    if not 0.0 < number < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value!r}")
    return number


def _scenario_from_args(args: argparse.Namespace):
    return build_scenario(
        args.scenario,
        scale=args.scale,
        popularity_scale=args.pop,
        discovery=getattr(args, "discovery", None),
    )


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario", type=_scenario_name,
        metavar="{" + ",".join(sorted(SCENARIO_FACTORIES)) + "}",
        help="which dataset analogue to build",
    )
    parser.add_argument("--scale", type=_positive_float, default=1.0,
                        help="publisher population scale (default 1.0)")
    parser.add_argument("--pop", type=_positive_float, default=1.0,
                        help="per-torrent popularity scale (default 1.0)")
    parser.add_argument("--seed", type=_seed_value, default=2010)
    parser.add_argument(
        "--discovery", choices=DISCOVERY_MODES, default=None,
        help="peer-discovery channel override: tracker announces, iterative "
        "DHT lookups, or both (default: the scenario's own setting)",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args)
    dataset = run_measurement(config, seed=args.seed, progress=print)
    print()
    print(
        format_table(
            ["dataset", "#torrents", "w/ username", "w/ publisher IP", "#IPs"],
            [[
                dataset.name,
                dataset.num_torrents,
                dataset.num_with_username or "-",
                dataset.num_with_publisher_ip,
                format_number(dataset.total_distinct_ips()),
            ]],
            title="Campaign summary (Table 1 analogue)",
        )
    )
    if args.archive:
        # Re-running the same command line should refresh the archive.
        save_dataset(dataset, args.archive, overwrite=True)
        print(f"archive written to {args.archive}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args)
    dataset = run_measurement(config, seed=args.seed, progress=print)
    report = build_report(dataset, top_k=args.top_k)
    print()
    print(format_report(report))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args)
    registry = MetricsRegistry()
    run_measurement(config, seed=args.seed, metrics=registry)
    payload = registry.snapshot(include_wall=not args.sim_only)
    if args.trace:
        payload["_trace"] = {
            "dropped": registry.trace.dropped,
            "events": registry.trace.to_dicts()[-args.trace:],
        }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"metrics written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    config = dataclasses.replace(
        tiny_scenario("cli-monitor"),
        window_days=args.days,
        post_window_days=1.0,
    )
    world = World.build(config, seed=args.seed, metrics=MetricsRegistry())
    monitor = ContentPublishingMonitor(
        world,
        EventScheduler(metrics=world.metrics),
        rng=random.Random(args.seed),
        verify_content_fraction=args.verify,
    )
    monitor.run_until(config.window_minutes)
    print(f"ingested {monitor.publications_seen} publications; located "
          f"{monitor.publishers_located} publisher IPs")
    if args.verify > 0:
        print(f"hash-verified {monitor.contents_verified} contents; caught "
              f"{monitor.fakes_caught} fakes")
    print()
    print(
        format_table(
            ["username", "publications"],
            monitor.store.top_publishers(limit=args.limit),
            title="Top publishers",
        )
    )
    print()
    print(
        format_table(
            ["ISP", "publications"],
            monitor.store.isp_breakdown()[: args.limit],
            title="Publisher ISPs",
        )
    )
    return 0


def _sweep_seeds(args: argparse.Namespace) -> List[int]:
    """The seed list: explicit ``--seed-list`` wins over ``--seeds N``."""
    if args.seed_list:
        try:
            seeds = [int(part) for part in args.seed_list.split(",") if part.strip()]
        except ValueError:
            raise SystemExit(
                f"--seed-list must be comma-separated integers, got "
                f"{args.seed_list!r}"
            )
        if not seeds:
            raise SystemExit("--seed-list produced no seeds")
        return seeds
    if args.seeds < 1:
        raise SystemExit(f"--seeds must be >= 1, got {args.seeds}")
    return list(range(args.seed_base, args.seed_base + args.seeds))


def _cmd_sweep(args: argparse.Namespace) -> int:
    seeds = _sweep_seeds(args)
    try:
        spec = SweepSpec(
            scenarios=tuple(args.scenario or ["baseline"]),
            seeds=tuple(seeds),
            scale=args.scale,
            popularity_scale=args.pop,
            discovery=args.discovery,
            top_k=args.top_k,
            window_days=args.window_days,
            post_window_days=args.post_window_days,
            wire_fidelity=args.wire_fidelity,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    result = run_sweep(spec, jobs=args.jobs, progress=print)

    for scenario, block in result.report["scenarios"].items():
        rows = []
        for name, band in block["aggregates"].items():
            rows.append(
                [
                    name,
                    f"{band['mean']:.4f}",
                    f"{band['stdev']:.4f}",
                    f"[{band['ci_low']:.4f}, {band['ci_high']:.4f}]",
                    band["seeds_reporting"],
                ]
            )
        print()
        print(
            format_table(
                ["metric", "mean", "stdev",
                 f"{100 * spec.confidence:.0f}% CI", "seeds"],
                rows,
                title=f"Sweep aggregates -- {scenario} "
                f"({len(block['seeds'])} seeds)",
            )
        )
    print()
    print(
        f"{result.report['num_cells']} cells in {result.wall_seconds:.1f}s "
        f"wall at --jobs {result.jobs} "
        f"(serial-equivalent compute {result.cell_wall_seconds:.1f}s, "
        f"speedup {result.cell_wall_seconds / max(result.wall_seconds, 1e-9):.2f}x)"
    )
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json(indent=2) + "\n")
        print(f"aggregate report written to {args.report_json}")
    return 0


def _cmd_appendix(args: argparse.Namespace) -> int:
    m = required_queries(args.n, args.w, args.confidence)
    threshold = offline_threshold(args.n, args.w, args.spacing, args.confidence)
    print(f"N={args.n} peers, W={args.w} sampled, P>={args.confidence}")
    print(f"queries needed: m={m}")
    print(f"offline threshold: {threshold:.0f} min ({threshold / 60:.2f} h)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Is Content Publishing in BitTorrent "
        "Altruistic or Profit-Driven?' (CoNEXT 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one measurement campaign")
    _add_scenario_options(run_parser)
    run_parser.add_argument("--archive", help="write a SQLite archive here")
    run_parser.set_defaults(func=_cmd_run)

    report_parser = sub.add_parser("report", help="run a campaign and print "
                                   "the full analysis report")
    _add_scenario_options(report_parser)
    report_parser.add_argument("--top-k", type=int, default=40)
    report_parser.set_defaults(func=_cmd_report)

    metrics_parser = sub.add_parser(
        "metrics",
        help="run a campaign and emit the observability snapshot as JSON",
    )
    _add_scenario_options(metrics_parser)
    metrics_parser.add_argument(
        "--sim-only", action="store_true",
        help="exclude wall-clock instruments (seed-deterministic output)",
    )
    metrics_parser.add_argument(
        "--trace", type=int, default=0, metavar="N",
        help="append the last N trace-ring events under '_trace'",
    )
    metrics_parser.add_argument("--output", help="write the JSON here")
    metrics_parser.set_defaults(func=_cmd_metrics)

    sweep_parser = sub.add_parser(
        "sweep",
        help="replicate scenarios across a seed grid and report "
        "cross-seed bands with bootstrap confidence intervals",
    )
    sweep_parser.add_argument(
        "--scenario", type=_scenario_name, action="append", default=None,
        metavar="{" + ",".join(sorted(SCENARIO_FACTORIES)) + "}",
        help="scenario to replicate (repeatable; default: baseline)",
    )
    sweep_parser.add_argument(
        "--seeds", type=int, default=8, metavar="N",
        help="number of consecutive seeds starting at --seed-base "
        "(default 8)",
    )
    sweep_parser.add_argument(
        "--seed-base", type=_seed_value, default=2010,
        help="first seed of the consecutive grid (default 2010)",
    )
    sweep_parser.add_argument(
        "--seed-list", default=None, metavar="S1,S2,...",
        help="explicit comma-separated seed list (overrides --seeds)",
    )
    sweep_parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes; 1 runs serially in-process (default 1)",
    )
    sweep_parser.add_argument("--scale", type=_positive_float, default=1.0,
                              help="publisher population scale (default 1.0)")
    sweep_parser.add_argument("--pop", type=_positive_float, default=1.0,
                              help="per-torrent popularity scale (default 1.0)")
    sweep_parser.add_argument(
        "--discovery", choices=DISCOVERY_MODES, default=None,
        help="peer-discovery channel override for every cell",
    )
    sweep_parser.add_argument("--top-k", type=int, default=20,
                              help="size of the Top publisher set (default 20)")
    sweep_parser.add_argument(
        "--window-days", type=_positive_float, default=None,
        help="override the scenario's measurement window length",
    )
    sweep_parser.add_argument(
        "--post-window-days", type=_nonnegative_float, default=None,
        help="override the scenario's post-window monitoring tail",
    )
    sweep_parser.add_argument(
        "--report-json", nargs="?", const="sweep_report.json", default=None,
        metavar="PATH",
        help="write the deterministic aggregate JSON report here "
        "(bare flag: sweep_report.json)",
    )
    sweep_parser.add_argument(
        "--wire-fidelity", choices=["full", "sampled"], default="sampled",
        help="tracker serialisation: 'full' encodes every announce, "
        "'sampled' round-trips 1-in-N with a lossless assertion "
        "(default sampled -- the policy outcome is identical)",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    monitor_parser = sub.add_parser("monitor", help="run the Section 7 live "
                                    "monitoring application")
    monitor_parser.add_argument("--days", type=_positive_float, default=4.0)
    monitor_parser.add_argument("--seed", type=_seed_value, default=2010)
    monitor_parser.add_argument("--limit", type=int, default=10)
    monitor_parser.add_argument(
        "--verify", type=_fraction, default=0.0,
        help="fraction of new torrents to hash-verify (fake filter)",
    )
    monitor_parser.set_defaults(func=_cmd_monitor)

    appendix_parser = sub.add_parser("appendix", help="evaluate the Appendix "
                                     "A session model")
    appendix_parser.add_argument("--n", type=_positive_int, default=165)
    appendix_parser.add_argument("--w", type=_positive_int, default=50)
    appendix_parser.add_argument("--spacing", type=_positive_float, default=18.0)
    appendix_parser.add_argument("--confidence", type=_open_fraction, default=0.99)
    appendix_parser.set_defaults(func=_cmd_appendix)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

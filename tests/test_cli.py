"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        args = parser.parse_args(["appendix"])
        assert args.command == "appendix"
        args = parser.parse_args(["run", "tiny"])
        assert args.command == "run" and args.scenario == "tiny"
        args = parser.parse_args(["report", "pb10", "--scale", "0.2"])
        assert args.scale == 0.2
        args = parser.parse_args(["monitor", "--days", "2"])
        assert args.days == 2.0

    def test_unknown_scenario_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "nonsense"])

    def test_command_required(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["monitor", "--seed", "-4"],
            ["monitor", "--days", "0"],
            ["monitor", "--days", "-1"],
            ["monitor", "--days", "nan"],
        ],
    )
    def test_monitor_rejects_bad_arguments(self, argv, capsys):
        """Bad monitor arguments exit 2 with a usage error, as for `run`."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            [command, *positional, flag, value]
            for command, positional in (
                ("run", ["tiny"]), ("report", ["tiny"]),
                ("metrics", ["tiny"]), ("sweep", []),
            )
            for flag, value in (
                ("--scale", "0"), ("--scale", "-1"), ("--scale", "nan"),
                ("--pop", "-1"),
            )
        ]
        + [
            ["monitor", "--verify", "2"],
            ["appendix", "--w", "0"],
            ["appendix", "--confidence", "1.5"],
            ["appendix", "--spacing", "nan"],
            ["appendix", "--n", "-3"],
            ["sweep", "--window-days", "nan"],
            ["sweep", "--window-days", "0"],
            ["sweep", "--window-days", "inf"],
            ["sweep", "--post-window-days", "nan"],
            ["sweep", "--post-window-days", "-1"],
            ["sweep", "--post-window-days", "inf"],
            ["sweep", "--jobs", "0"],
            ["sweep", "--jobs", "-2"],
            ["sweep", "--top-k", "0"],
            ["report", "tiny", "--top-k", "-1"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_numbers_rejected(self, argv, capsys):
        """Numbers outside a flag's range are usage errors, not tracebacks
        from deep inside a campaign (or silent nonsense from `appendix`)."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_accepts_edge_values(self):
        args = build_parser().parse_args(
            ["sweep", "--window-days", "0.5", "--post-window-days", "0",
             "--jobs", "1"])
        assert (args.window_days, args.post_window_days, args.jobs) == (0.5, 0.0, 1)


class TestCommands:
    def test_appendix_command(self, capsys):
        assert main(["appendix", "--n", "165", "--w", "50",
                     "--spacing", "18"]) == 0
        out = capsys.readouterr().out
        assert "m=13" in out
        assert "3.90 h" in out

    def test_monitor_command(self, capsys):
        assert main(["monitor", "--days", "1.5", "--seed", "3",
                     "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert "Top publishers" in out

    def test_run_command_with_archive(self, capsys, tmp_path):
        archive = str(tmp_path / "tiny.sqlite")
        assert main(["run", "tiny", "--seed", "5", "--archive", archive]) == 0
        out = capsys.readouterr().out
        assert "Campaign summary" in out
        assert "archive written" in out
        from repro.core.export import load_dataset

        loaded = load_dataset(archive)
        assert loaded.num_torrents > 50

    def test_report_command_tiny(self, capsys):
        assert main(["report", "tiny", "--seed", "9", "--top-k", "15"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 analogue" in out
        assert "Figure 4 analogue" in out
        assert "Section 5.1 analogue" in out
        assert "business model" in out


class TestMetricsCommand:
    def test_parser_accepts_metrics_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["metrics", "tiny", "--sim-only", "--trace", "5", "--output", "x.json"]
        )
        assert args.command == "metrics"
        assert args.sim_only is True
        assert args.trace == 5

    def test_metrics_command_emits_snapshot(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "metrics.json")
        assert main(["metrics", "tiny", "--seed", "5", "--sim-only",
                     "--trace", "5", "--output", out_path]) == 0
        assert "metrics written" in capsys.readouterr().out
        with open(out_path, encoding="utf-8") as handle:
            payload = json.load(handle)

        names = [name for name in payload if not name.startswith("_")]
        # The acceptance bar: >= 10 distinct instruments spanning the
        # engine, crawler, tracker and swarm layers.
        assert len(names) >= 10
        subsystems = {name.split(".")[0] for name in names}
        assert {"engine", "crawler", "tracker", "swarm", "portal"} <= subsystems
        # --sim-only: no wall-clock instruments in the snapshot.
        assert not any(
            entry.get("wall") for name, entry in payload.items()
            if not name.startswith("_")
        )
        assert len(payload["_trace"]["events"]) <= 5

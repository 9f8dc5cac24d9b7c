"""End-to-end tests of the DHT discovery channel (ISSUE 2).

The trackerless scenario must run the whole pipeline -- RSS, magnet
resolution, iterative lookups, identification, analysis -- with the tracker
switched off; the hybrid scenario must observe the same world equally well
through both channels; and every ``dht.*`` metric must be bit-identical
across same-seed runs.
"""

import dataclasses

import pytest

from repro.core.analysis.report import build_report
from repro.core.collector import run_measurement, run_measurement_with_world
from repro.core.export import load_dataset, save_dataset
from repro.core.validation import validate_campaign
from repro.observability import MetricsRegistry
from repro.simulation import hybrid_scenario, trackerless_scenario

_SCALE = 0.15
_SEED = 17


@pytest.fixture(scope="module")
def trackerless_run():
    config = trackerless_scenario(scale=_SCALE)
    return run_measurement_with_world(config, seed=_SEED)


@pytest.fixture(scope="module")
def hybrid_run():
    config = hybrid_scenario(scale=_SCALE)
    return run_measurement_with_world(config, seed=_SEED)


class TestTrackerlessEndToEnd:
    def test_campaign_produces_torrents_and_publishers(self, trackerless_run):
        dataset, world = trackerless_run
        assert world.tracker is None or not world.config.uses_tracker
        assert world.dht is not None
        assert dataset.num_torrents > 30
        assert dataset.num_with_publisher_ip > 0

    def test_all_metadata_came_from_magnets(self, trackerless_run):
        dataset, _world = trackerless_run
        assert all(r.via_magnet for r in dataset.records.values())
        assert all(not r.tracker_ips for r in dataset.records.values())
        assert any(r.dht_ips for r in dataset.records.values())

    def test_identification_stays_precise(self, trackerless_run):
        dataset, world = trackerless_run
        summary = validate_campaign(dataset, world)
        assert summary.identification.precision >= 0.9
        assert summary.identification.coverage > 0.2
        assert summary.coverage.coverage > 0.4

    def test_analysis_pipeline_runs_unchanged(self, trackerless_run):
        dataset, _world = trackerless_run
        report = build_report(dataset, top_k=10)
        assert report.mapping.top_usernames
        assert report.mapping.top_download_share > 0

    def test_archive_round_trips_channel_fields(self, trackerless_run, tmp_path):
        dataset, _world = trackerless_run
        path = str(tmp_path / "trackerless.sqlite")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        some = next(iter(dataset.records))
        assert loaded.records[some].via_magnet == dataset.records[some].via_magnet
        assert loaded.records[some].dht_ips == dataset.records[some].dht_ips
        assert loaded.records[some].tracker_ips == dataset.records[some].tracker_ips


class TestHybridParity:
    def test_both_channels_observe(self, hybrid_run):
        dataset, _world = hybrid_run
        assert any(r.tracker_ips for r in dataset.records.values())
        assert any(r.dht_ips for r in dataset.records.values())
        assert not any(r.via_magnet for r in dataset.records.values())

    def test_coverage_gap_within_ten_points(self, hybrid_run):
        dataset, world = hybrid_run
        discovery = validate_campaign(dataset, world).discovery
        assert discovery is not None
        assert discovery.tracker_coverage > 0.4
        assert discovery.dht_coverage > 0.4
        assert discovery.coverage_gap <= 0.10

    def test_tracker_only_campaign_has_no_discovery_score(self):
        config = dataclasses.replace(
            hybrid_scenario(scale=0.1), discovery="tracker"
        )
        dataset, world = run_measurement_with_world(config, seed=3)
        summary = validate_campaign(dataset, world)
        assert summary.discovery is None
        assert not any(r.dht_ips for r in dataset.records.values())


class TestDhtDeterminism:
    # Three campaigns in all: two independent seed-29 runs, the first shared
    # by both tests, and one seed-30 run.  A short window keeps them cheap;
    # determinism does not need a long horizon.
    @pytest.fixture(scope="class")
    def seed29_snapshot(self):
        return self._dht_snapshot(29)

    def _dht_snapshot(self, seed):
        config = dataclasses.replace(
            trackerless_scenario(scale=0.1),
            window_days=2.0,
            post_window_days=2.0,
        )
        registry = MetricsRegistry()
        run_measurement(config, seed=seed, metrics=registry)
        snapshot = registry.snapshot(include_wall=False)
        return {k: v for k, v in snapshot.items() if k.startswith("dht.")}

    def test_same_seed_identical_dht_metrics(self, seed29_snapshot):
        first = seed29_snapshot
        second = self._dht_snapshot(29)
        assert first  # the channel actually emitted telemetry
        assert first == second

    def test_different_seed_differs(self, seed29_snapshot):
        assert seed29_snapshot != self._dht_snapshot(30)


class TestCliDiscovery:
    def test_discovery_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "pb10", "--discovery", "dht"]
        )
        assert args.discovery == "dht"

    def test_discovery_override_reshapes_config(self):
        from repro.cli import _scenario_from_args, build_parser

        args = build_parser().parse_args(
            ["run", "pb10", "--discovery", "hybrid"]
        )
        config = _scenario_from_args(args)
        assert config.discovery == "hybrid"
        assert config.uses_tracker and config.uses_dht

        args = build_parser().parse_args(
            ["run", "trackerless", "--discovery", "hybrid"]
        )
        config = _scenario_from_args(args)
        # Trackerless has no tracker; moving to hybrid must re-enable it.
        assert config.tracker_enabled and config.uses_tracker

    def test_invalid_discovery_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "pb10", "--discovery", "carrier"])

    def test_unknown_scenario_exits_2_with_valid_names(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "nonsense"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "valid scenarios" in err
        for name in ("pb10", "trackerless", "hybrid", "tiny"):
            assert name in err

    def test_negative_seed_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "tiny", "--seed", "-3"])
        assert excinfo.value.code == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_non_integer_seed_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "tiny", "--seed", "lucky"])
        assert excinfo.value.code == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_run_command_discovery_dht(self, capsys):
        from repro.cli import main

        # The acceptance path: a DHT-only campaign end-to-end from argv.
        assert main(
            ["run", "hybrid", "--scale", "0.1", "--seed", "5",
             "--discovery", "dht"]
        ) == 0
        out = capsys.readouterr().out
        assert "Campaign summary" in out

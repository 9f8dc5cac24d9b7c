"""Tests for the parallel multi-seed sweep runner (repro.campaign).

The load-bearing guarantee is the determinism contract: the aggregate
report is a function of the grid alone, so ``jobs=1`` and ``jobs=2`` over
the same seed list must serialise byte-identically.  The sweeps here use
the baseline scenario with shortened windows so each cell runs in a couple
of seconds.
"""

import json

import pytest

from repro.campaign import (
    CellSpec,
    SweepSpec,
    aggregate_results,
    headline_stats,
    run_campaign_cell,
    run_sweep,
)
from repro.cli import main

# Short windows keep a cell ~2s instead of ~6s; the grid semantics under
# test do not depend on window length.
FAST = dict(window_days=2.0, post_window_days=2.0)


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(scenarios=("baseline",), seeds=(11, 12), **FAST)


@pytest.fixture(scope="module")
def serial_sweep(small_spec):
    return run_sweep(small_spec, jobs=1)


class TestSweepSpec:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            SweepSpec(scenarios=(), seeds=(1,))
        with pytest.raises(ValueError, match="at least one seed"):
            SweepSpec(scenarios=("tiny",), seeds=())

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            SweepSpec(scenarios=("tiny",), seeds=(1, 2, 1))

    def test_rejects_unknown_scenario_before_forking(self):
        with pytest.raises(ValueError, match="nonsense"):
            SweepSpec(scenarios=("nonsense",), seeds=(1,))

    def test_cells_enumerate_grid_in_order(self):
        spec = SweepSpec(scenarios=("tiny", "baseline"), seeds=(5, 6), **FAST)
        cells = spec.cells()
        assert [(c.scenario, c.seed) for c in cells] == [
            ("tiny", 5), ("tiny", 6), ("baseline", 5), ("baseline", 6),
        ]
        assert all(isinstance(c, CellSpec) and c.sweep is spec for c in cells)

    def test_grid_dict_is_json_ready(self, small_spec):
        grid = small_spec.grid_dict()
        assert json.loads(json.dumps(grid)) == grid
        assert grid["scenarios"] == ["baseline"]
        assert grid["seeds"] == [11, 12]


class TestHeadlineStats:
    def test_tiny_campaign_headline_shape(self, tiny_run):
        dataset, world = tiny_run
        stats = headline_stats(dataset, world, top_k=20)
        assert 0.0 < stats["identification.coverage"] <= 1.0
        assert 0.0 < stats["identification.precision"] <= 1.0
        assert 0.0 < stats["download.coverage"] <= 1.0
        assert stats["session.samples"] > 0
        # Class shares are fractions of the top-k: each bounded by 1.
        class_keys = [k for k in stats if k.startswith("classes.")]
        assert class_keys, "publisher-class stats missing"
        for key in class_keys:
            assert 0.0 <= stats[key] <= 1.0


class TestRunSweep:
    def test_report_shape(self, small_spec, serial_sweep):
        report = serial_sweep.report
        assert report["schema"] == "repro.sweep/1"
        assert report["num_cells"] == 2
        scenario = report["scenarios"]["baseline"]
        assert scenario["seeds"] == [11, 12]
        assert set(scenario["per_seed"]) == {"11", "12"}
        bands = scenario["aggregates"]
        band = bands["identification.coverage"]
        assert band["count"] == 2
        assert band["seeds_reporting"] == 2
        assert band["ci_low"] <= band["mean"] <= band["ci_high"]
        assert band["min"] <= band["median"] <= band["max"]
        # Table-1 counts aggregate under the summary. prefix.
        assert "summary.num_torrents" in bands
        # Pooled observability rides along (flat snapshot-shaped dict).
        assert scenario["observability"]
        assert all(
            "type" in entry for entry in scenario["observability"].values()
        )

    def test_results_in_grid_order(self, serial_sweep):
        assert [r.seed for r in serial_sweep.results] == [11, 12]

    def test_jobs_do_not_change_the_report(self, small_spec, serial_sweep):
        """Acceptance: --jobs 1 vs --jobs 2 byte-identical aggregate JSON."""
        parallel = run_sweep(small_spec, jobs=2)
        assert parallel.jobs == 2
        assert serial_sweep.to_json() == parallel.to_json()

    def test_progress_callback_sees_every_cell(self, small_spec):
        seen = []
        spec = SweepSpec(scenarios=("baseline",), seeds=(11,), **FAST)
        run_sweep(spec, jobs=1, progress=seen.append)
        assert len(seen) == 1
        assert "seed=11" in seen[0]

    def test_aggregate_rejects_empty_results(self, small_spec):
        with pytest.raises(ValueError, match="empty sweep"):
            aggregate_results(small_spec, [])

    def test_worker_payload_is_compact(self, small_spec):
        result = run_campaign_cell(small_spec.cells()[0])
        assert result.scenario == "baseline" and result.seed == 11
        assert result.summary["num_torrents"] > 0
        assert result.summary["num_true_swarms"] > 0
        # The snapshot is sim-only and sample-bearing so merges stay
        # deterministic across worker counts.
        assert not any(
            entry.get("wall") for entry in result.metrics.values()
        )
        assert any(
            "samples" in summary
            for entry in result.metrics.values()
            if entry["type"] == "histogram"
            for summary in entry["values"].values()
        )


class TestSweepCli:
    def test_sweep_command_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "sweep.json"
        code = main([
            "sweep", "--scenario", "baseline", "--seed-list", "11",
            "--jobs", "1", "--window-days", "2", "--post-window-days", "2",
            "--report-json", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "identification.coverage" in out
        assert "speedup" in out
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.sweep/1"
        assert report["grid"]["seeds"] == [11]

    def test_seed_list_wins_over_seed_range(self):
        from repro.cli import build_parser, _sweep_seeds

        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--seeds", "8", "--seed-list", "3,4,5"]
        )
        assert _sweep_seeds(args) == [3, 4, 5]
        args = parser.parse_args(["sweep", "--seeds", "3", "--seed-base", "10"])
        assert _sweep_seeds(args) == [10, 11, 12]

    def test_duplicate_seed_list_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--seed-list", "3,3"])

"""Tests for examples/record_bench.py on small hand-made perfbench reports."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "examples" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

LAYERS = ["tracker", "tracker.protocol", "peerwire", "simulation.engine"]
HOST = {"platform": "Linux-x86_64", "python": "3.11.7", "nproc": 2}


def report(workload, trace, metrics, *, commit="abc123", dirty=False,
           host=HOST, problems=((), ())):
    manifest = {"workload": workload, "seed": 7, "seconds": 30.0, "trace": trace,
                "git_commit": commit, "git_dirty": dirty, **host}
    if trace:
        manifest["traced_cells"] = len(problems)
    else:
        manifest["host_scale"] = 1.25
    cells = [{"cell_id": f"c{i}", "problems": list(p)} for i, p in enumerate(problems)]
    return {"manifest": manifest, "metrics": metrics, "cells": cells}


def untraced(crawl_s, cell_s=2.0, **kwargs):
    return report("tracker-crawl", 0, {"crawl_s": crawl_s, "cell_s": cell_s}, **kwargs)


TRACED = report("tracker-crawl", 1, {
    "tracker.announce.self_s": 0.25,
    "tracker.announce_object.self_s": 0.5,
    "tracker.protocol.decode_announce_response.self_s": 0.125,
    "peerwire.probe.self_s": 0.03125,
    "peerwire.probe.calls": 40.0,
    "bencode.bdecode.self_s": 0.0625,
    "trace.overhead_ratio": 1.1,
})


class TestLayerGrouping:
    def test_longest_layer_prefix_wins(self):
        assert record_bench.layer_of("tracker.protocol.decode", LAYERS) == "tracker.protocol"
        assert record_bench.layer_of("tracker.announce_object", LAYERS) == "tracker"
        assert record_bench.layer_of("peerwire.probe", LAYERS) == "peerwire"

    def test_prefix_must_end_at_a_dot(self):
        assert record_bench.layer_of("trackerless.probe", LAYERS) == "trackerless.probe"

    def test_self_time_summed_per_layer(self):
        assert record_bench.self_s_by_layer(TRACED["metrics"], LAYERS) == {
            "bencode.bdecode": 0.0625,
            "peerwire": 0.03125,
            "tracker": 0.75,
            "tracker.protocol": 0.125,
        }


class TestBuildRecord:
    def test_runs_medians_and_traced_layers(self):
        reports = [untraced(0.5), untraced(0.75, cell_s=3.0, problems=((), ("bad",))),
                   untraced(0.625), TRACED]
        record = record_bench.build_record(reports, LAYERS, tier1_seconds=200.0)
        assert record["schema_version"] == 2
        assert record["commit"] == "abc123"
        assert record["dirty"] is False
        assert record["host"] == HOST
        assert record["tier1_wall_s"] == 200.0
        entry = record["workloads"]["tracker-crawl"]
        assert [run["metrics"]["crawl_s"] for run in entry["runs"]] == [0.5, 0.75, 0.625]
        assert [run["failed"] for run in entry["runs"]] == [0, 1, 0]
        assert {run["host_scale"] for run in entry["runs"]} == {1.25}
        assert entry["median"] == {"cell_s": 2.0, "crawl_s": 0.625}
        (traced,) = entry["traced"]
        assert traced["traced_cells"] == 2
        assert traced["self_s_by_layer"]["tracker"] == 0.75

    def test_commit_option_names_archive_copies(self):
        reports = [untraced(0.5, commit=None, dirty=None)]
        with pytest.raises(record_bench.RecordError, match="--commit"):
            record_bench.build_record(reports, LAYERS)
        record = record_bench.build_record(reports, LAYERS, commit="77739d0")
        assert record["commit"] == "77739d0"
        assert record["dirty"] is False
        assert record["tier1_wall_s"] is None

    def test_dirty_tree_is_recorded(self):
        record = record_bench.build_record([untraced(0.5), untraced(0.5, dirty=True)], LAYERS)
        assert record["dirty"] is True

    def test_mixed_commits_or_hosts_refused(self):
        with pytest.raises(record_bench.RecordError, match="commit"):
            record_bench.build_record([untraced(0.5), untraced(0.5, commit="def")], LAYERS)
        other = dict(HOST, nproc=8)
        with pytest.raises(record_bench.RecordError, match="host"):
            record_bench.build_record([untraced(0.5), untraced(0.5, host=other)], LAYERS)


class TestMain:
    def test_writes_next_free_bench_file(self, tmp_path, capsys):
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_7.json.bak").write_text("{}")
        inputs = []
        for i, item in enumerate([untraced(0.5), TRACED]):
            path = tmp_path / f"run{i}.json"
            path.write_text(json.dumps(item))
            inputs.append(str(path))
        assert record_bench.main([*inputs, "--out-dir", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "BENCH_2.json").read_text())
        assert written["workloads"]["tracker-crawl"]["median"]["crawl_s"] == 0.5
        assert "BENCH_2.json" in capsys.readouterr().out
        assert record_bench.main([*inputs, "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "BENCH_3.json").is_file()

    def test_missing_commit_is_a_usage_error(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(untraced(0.5, commit=None)))
        with pytest.raises(SystemExit) as exc:
            record_bench.main([str(path), "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert not list(tmp_path.glob("BENCH_*.json"))

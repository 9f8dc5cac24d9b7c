"""The benchmark's own checks: contract, metric names, determinism, tracing.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

(about two minutes: every workload runs once untraced and once traced).
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LAYER_STATS = ("calls", "self_s", "p50_us", "p99_us")
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
LAYER_MAP = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())


@pytest.fixture(scope="module")
def results():
    """One shortest run (one cell or one sweep) per workload and trace mode."""
    return {
        (name, trace): run.run_one(name, seed=7, seconds=0, trace=trace)
        for name in workloads.WORKLOADS
        for trace in (0, 1)
    }


def _values(result):
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _owner(metric):
    """The longest layer of the layer map that prefixes ``metric``."""
    owners = [layer for layer in LAYER_MAP["layers"] if metric.startswith(layer + ".")]
    return max(owners, key=len, default=None)


class TestContract:
    def test_benchmark_json_keys_and_limits(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert SPEC["paths"] == ["perfbench"]
        assert SPEC["command"] == ["python3", "perfbench/run.py"]
        assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
        runs = 4 + 22 * len(SPEC["workloads"])
        assert runs * (SPEC["run_seconds"] + 15) < 3420
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
        for workload in SPEC["workloads"]:
            assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())
        assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024

    def test_metric_names_follow_the_grammar(self):
        names = END_TO_END + PER_LAYER + [w["name"] for w in SPEC["workloads"]]
        assert len(names) == len(set(names))
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert NAME.match(metric["name"]), metric["name"]
            assert UNIT.match(metric["unit"]), metric["unit"]
            assert metric["better"] in ("higher", "lower")
        assert set(m for m in SPEC["end_to_end"][0]) == {"name", "unit", "better", "bound"}
        assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])

    def test_per_layer_names_are_layer_call_stat(self):
        assert PER_LAYER == tracing.layer_metric_names()
        probes = {p.name for p in tracing.PROBES}
        layers = {name.split(".")[0] for name in probes} | {"trace"}
        for name in PER_LAYER:
            call, _, stat = name.rpartition(".")
            if stat in LAYER_STATS:
                assert call in probes, name
            else:
                assert name.split(".")[0] in layers, name
        for probe in probes:
            assert all(f"{probe}.{stat}" in PER_LAYER for stat in LAYER_STATS)

    def test_layer_map_covers_every_layer_metric_and_workload(self):
        assert all(_owner(name) for name in PER_LAYER)
        assert set(LAYER_MAP["workloads"]) == set(workloads.WORKLOADS)
        for claim in LAYER_MAP["layers"].values():
            assert claim["moves"] == "none" or any(m in claim["moves"] for m in END_TO_END)
            listed = claim.get("shows_on", []) + claim.get("zero_on", [])
            assert set(listed) <= set(workloads.WORKLOADS)


class TestReports:
    def test_every_metric_is_reported_for_every_workload(self, results):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for (name, trace), result in results.items():
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (name, trace)
            assert result["failed"] == 0 and result["attempted"] >= 1
            expected = PER_LAYER if trace else END_TO_END
            assert sorted(result["metrics"]) == sorted(expected), (name, trace)
            for metric, entry in result["metrics"].items():
                assert entry["unit"] == units[metric]
                assert math.isfinite(entry["value"])
                if not trace:
                    assert entry["value"] > 0, (name, metric)

    def test_layers_read_zero_where_the_map_says(self, results):
        for layer, claim in LAYER_MAP["layers"].items():
            for name in claim.get("zero_on", []):
                values = _values(results[(name, 1)])
                owned = [k for k in values if _owner(k) == layer]
                assert owned, layer
                assert all(values[k] == 0 for k in owned), (layer, name)
            for name in claim.get("shows_on", []):
                values = _values(results[(name, 1)])
                assert any(values[k] > 0 for k in values if _owner(k) == layer), (layer, name)

    def test_channel_specific_calls(self, results):
        tracker = _values(results[("tracker-crawl", 1)])
        dht = _values(results[("dht-crawl", 1)])
        sweep = _values(results[("sweep", 1)])
        assert tracker["tracker.announce.calls"] > 0
        assert tracker["tracker.protocol.decode_announce_response.calls"] > 0
        assert dht["core.dht_crawler.lookup.calls"] > 0
        assert dht["dht.network.build.calls"] == 1
        # The sweep runs the sampled wire mode: announces skip the byte path.
        assert sweep["tracker.announce.calls"] == 0
        assert sweep["tracker.announce_object.calls"] > 0
        assert sweep["campaign.aggregate_results.calls"] > 0
        assert 0 < sweep["campaign.pool_efficiency"] <= 1.05
        for values in (tracker, dht, sweep):
            assert values["trace.overhead_ratio"] > 0
            assert values["simulation.world.build.calls"] == 1


class TestDeterminism:
    @pytest.mark.parametrize("name", ["tracker-crawl", "dht-crawl"])
    def test_same_seed_repeats_and_another_seed_differs(self, name):
        workload = workloads.WORKLOADS[name]
        pins = checks.Pins({})
        first = workloads.run_cell(workload.cell(7000), pins, name)
        again = workloads.run_cell(workload.cell(7000), pins, name)
        other = workloads.run_cell(workload.cell(8000), pins, name)
        assert first.ok and again.ok and other.ok
        assert first.digest == again.digest
        assert first.counts == again.counts
        assert first.digest != other.digest
        assert first.counts != other.counts
        busy = ("announces",) if workload.channel == "tracker" else ("dht_rpcs", "lookups")
        assert all(first.counts[key] > 0 for key in ("events",) + busy)

    def test_traced_cell_matches_untraced(self):
        workload = workloads.WORKLOADS["dht-crawl"]
        pins = checks.Pins({})
        plain = workloads.run_cell(workload.cell(7001), pins, workload.name)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.cell("dht:7001"):
                traced = workloads.run_cell(workload.cell(7001), pins, workload.name)
        finally:
            tracer.uninstall()
        assert plain.ok and traced.ok
        assert traced.digest == plain.digest
        assert tracer.stats["dht.krpc.encode_query"].calls > 0
        spans = tracer.span_records()
        assert spans and all(span["cell"] == "dht:7001" for span in spans)
        roots = [span for span in spans if span["parent"] is None]
        assert [span["name"] for span in roots] == [tracing.CELL_SPAN]


class TestTracer:
    def test_install_patches_and_uninstall_restores(self):
        import repro.dht.krpc
        import repro.simulation.world
        import repro.tracker.protocol

        world_build = repro.simulation.world.World.__dict__["build"]
        protocol_bencode = repro.tracker.protocol.bencode
        krpc_bdecode = repro.dht.krpc.bdecode
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert repro.simulation.world.World.__dict__["build"] is not world_build
            assert repro.tracker.protocol.bencode is not protocol_bencode
            assert repro.dht.krpc.bdecode is not krpc_bdecode
            assert repro.tracker.protocol.bencode.__name__ == "bencode"
        finally:
            tracer.uninstall()
        assert repro.simulation.world.World.__dict__["build"] is world_build
        assert repro.tracker.protocol.bencode is protocol_bencode
        assert repro.dht.krpc.bdecode is krpc_bdecode

    def test_self_time_excludes_children(self):
        import repro.bencode.codec as codec

        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.cell("unit"):
                codec.bdecode(codec.bencode({b"a": [1, 2, b"x"]}))
        finally:
            tracer.uninstall()
        root = tracer.stats[tracing.CELL_SPAN]
        leaves = tracer.stats["bencode.bencode"].total_s + tracer.stats["bencode.bdecode"].total_s
        assert root.self_s == pytest.approx(root.total_s - leaves)
        assert tracer.stats["bencode.bencode"].work == tracer.stats["bencode.bdecode"].work


class TestHostScaling:
    def test_timings_scale_to_reference_speed(self):
        host = workloads.HostSpeed()
        host.samples = [workloads.REFERENCE_KERNEL_S * 2] * 3
        cells = [workloads.CellRecord("c", 1, setup_s=1.0, crawl_s=2.0, cell_s=4.0,
                                      peak_rss_mb=50.0)]
        outcome = workloads._scaled(host, cells, cells=6, wall=60.0, records=cells)
        assert outcome.metrics == {"setup_s": 0.5, "crawl_s": 1.0, "cell_s": 2.0,
                                   "cells_per_min": 12.0, "peak_rss_mb": 50.0}
        assert outcome.extra["unscaled"]["cells_per_min"] == 6.0

    def test_kernel_sample_takes_a_fixed_number_of_samples(self):
        host = workloads.HostSpeed()
        host.sample()
        assert len(host.samples) == host.REPEATS
        assert all(t > 0 for t in host.samples)


class TestOutputChecks:
    def test_golden_cell_matches_repo_golden(self):
        plan = workloads.CellPlan("tiny", 7, "tracker")
        assert plan.is_golden
        record = workloads.run_cell(plan, checks.Pins({}), "golden")
        assert record.problems == []

    def test_golden_check_flags_drift(self):
        golden = json.loads(checks.GOLDEN_PATH.read_text())
        headline = dict(golden["headline"])
        key = sorted(headline)[0]
        headline[key] += 1e-3
        assert checks.golden_problems(headline, golden["summary"])

    def test_pins_cover_every_namespace(self):
        pins = checks.Pins()
        assert set(pins.table) == {"tracker-crawl", "dht-crawl", "sweep/probe",
                                   "sweep/cell", "sweep/report"}
        assert pins.problem("tracker-crawl", "7000", "0" * 64)
        assert pins.problem("tracker-crawl", "no-such-cell", "0" * 64) is None

    def test_mismatch_counts_as_failed_and_run_reports(self):
        workload = workloads.WORKLOADS["tracker-crawl"]
        pins = checks.Pins({"tracker-crawl": {"7000": "0" * 64}})
        outcome = workloads.measure(workload, 7, 0, pins)
        assert outcome.failed == 1
        assert outcome.metrics["cell_s"] > 0

    def test_raising_cell_is_recorded_not_raised(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(workloads.collector, "run_measurement_with_world", broken)
        workload = workloads.WORKLOADS["tracker-crawl"]
        record = workloads.run_cell(workload.cell(7000), checks.Pins({}), workload.name)
        assert not record.ok and "boom" in record.problems[0]
        assert not record.completed


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tracker-crawl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Tests for the ``repro bench`` harness (repro.benchmarking).

The trajectory files only help if their schema and numbering are stable, so
those are pinned here; one end-to-end quick run exercises the real stages
on the tiny scenario.
"""

import json
import os

import pytest

from repro.benchmarking import (
    BENCH_SCHEMA_VERSION,
    REFERENCE_STAGES,
    format_bench,
    next_bench_path,
    run_bench,
    write_bench,
)


def _synthetic_payload():
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "scenario": "tiny",
        "seed": 7,
        "reps": 2,
        "quick": True,
        "host": {"python": "3.11.0", "platform": "test", "cpu_count": 1},
        "stages": {
            "world_build": {
                "reps_seconds": [2.0, 0.1],
                "cold_seconds": 2.0,
                "best_seconds": 0.1,
                "mean_seconds": 1.05,
            },
            "unreferenced_stage": {
                "reps_seconds": [1.0],
                "cold_seconds": 1.0,
                "best_seconds": 1.0,
                "mean_seconds": 1.0,
            },
        },
        "reference": {"description": "test", "stages": dict(REFERENCE_STAGES)},
        "speedup_vs_reference": {"world_build": REFERENCE_STAGES["world_build"] / 0.1},
    }


class TestBenchFiles:
    def test_numbering_starts_at_one(self, tmp_path):
        assert next_bench_path(str(tmp_path)) == str(tmp_path / "BENCH_1.json")

    def test_numbering_continues_past_gaps(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_7.json").write_text("{}")
        (tmp_path / "BENCH_03.json").write_text("{}")  # non-canonical name
        (tmp_path / "notes.txt").write_text("ignored")
        assert next_bench_path(str(tmp_path)) == str(tmp_path / "BENCH_8.json")

    def test_write_bench_round_trips(self, tmp_path):
        payload = _synthetic_payload()
        path = write_bench(payload, str(tmp_path))
        assert os.path.basename(path) == "BENCH_1.json"
        text = (tmp_path / "BENCH_1.json").read_text()
        assert text.endswith("\n")
        assert json.loads(text) == payload
        # A second write lands next to the first, not on top of it.
        assert os.path.basename(write_bench(payload, str(tmp_path))) == (
            "BENCH_2.json"
        )

    def test_format_bench_renders_all_stages(self):
        table = format_bench(_synthetic_payload())
        assert "world_build" in table
        assert "unreferenced_stage" in table  # no reference -> dashes, no crash
        assert f"{REFERENCE_STAGES['world_build'] / 0.1:.2f}x" in table
        # No crawl pair in this payload, so no ratio line.
        assert "full/sampled" not in table

    def test_format_bench_prints_full_over_sampled_crawl(self):
        payload = _synthetic_payload()
        for name, best in (("crawl", 0.9), ("crawl_sampled", 0.6)):
            payload["stages"][name] = {
                "reps_seconds": [best],
                "cold_seconds": best,
                "best_seconds": best,
                "mean_seconds": best,
            }
        assert "crawl full/sampled (best): 1.50x" in format_bench(payload)


class TestRunBench:
    def test_reps_validated(self):
        with pytest.raises(ValueError, match="reps"):
            run_bench(reps=0)

    def test_quick_run_schema(self, tmp_path):
        messages = []
        payload = run_bench(
            scenario="tiny", seed=7, reps=1, quick=True, progress=messages.append
        )
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["scenario"] == "tiny"
        assert payload["seed"] == 7
        assert payload["quick"] is True
        # quick skips the sweep stage entirely.
        assert sorted(payload["stages"]) == [
            "analysis",
            "campaign_cell",
            "crawl",
            "crawl_sampled",
            "world_build",
        ]
        for entry in payload["stages"].values():
            assert entry["reps_seconds"]
            assert entry["cold_seconds"] == entry["reps_seconds"][0]
            assert entry["best_seconds"] == min(entry["reps_seconds"])
            assert entry["best_seconds"] > 0
        # The pre-optimisation reference predates the sampled wire mode.
        assert set(payload["speedup_vs_reference"]) == (
            set(payload["stages"]) - {"crawl_sampled"}
        )
        assert "crawl full/sampled (best): " in format_bench(payload)
        assert payload["host"]["python"]
        assert any("world_build" in m for m in messages)
        # And the payload is exactly what lands on disk.
        path = write_bench(payload, str(tmp_path))
        assert json.loads(open(path).read()) == payload

"""Tests for examples/compare_bench.py on small hand-made BENCH files."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "examples" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)

END_TO_END = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "cells_per_min", "better": "higher", "bound": 0.24},
]


HOST = {"nproc": 2, "platform": "Linux-x86_64", "python": "3.11.7"}


def schema2(commit, setup_s, cells_per_min, layers=None, tier1=None, cells=(),
            host=HOST):
    entry = {"median": {"setup_s": setup_s, "cells_per_min": cells_per_min},
             "runs": [{"cells": n, "failed": 0} for n in cells], "traced": []}
    if layers is not None:
        entry["traced"].append({"traced_cells": 4, "self_s_by_layer": layers})
    return {"schema_version": 2, "commit": commit, "dirty": False, "host": host,
            "tier1_wall_s": tier1, "workloads": {"tracker-crawl": entry}}


SCHEMA1 = {
    "schema_version": 1,
    "scenario": "tiny",
    "stages": {
        "world_build": {"cold_seconds": 2.0, "best_seconds": 0.1},
        "crawl": {"cold_seconds": 1.5, "best_seconds": 1.4},
        "campaign_cell": {"cold_seconds": 4.0, "best_seconds": 1.7},
        "sweep": {"cold_seconds": 4.4},
    },
}


class TestLoad:
    def test_schema1_reads_as_one_workload_of_cold_stages(self):
        assert compare_bench.load_bench(SCHEMA1) == {
            "tiny": {"median": {"setup_s": 2.0, "crawl_s": 1.5, "cell_s": 4.0},
                     "layers": {}, "cells": None},
        }

    def test_schema2_cells_is_the_median_over_untraced_runs(self):
        loaded = compare_bench.load_bench(schema2("a", 2.0, 20.0, cells=(14, 16, 15, 13)))
        assert loaded["tracker-crawl"]["cells"] == 14.5
        assert compare_bench.load_bench(schema2("a", 2.0, 20.0))["tracker-crawl"][
            "cells"] is None

    def test_schema2_layers_are_the_median_over_traced_runs(self):
        data = schema2("a", 2.0, 20.0, layers={"torrent": 1.0, "tracker": 0.5})
        traced = data["workloads"]["tracker-crawl"]["traced"]
        traced += [{"traced_cells": 6, "self_s_by_layer": {"torrent": 0.5}},
                   {"traced_cells": 5, "self_s_by_layer": {"torrent": 0.75}}]
        loaded = compare_bench.load_bench(data)
        assert loaded["tracker-crawl"]["layers"] == {"torrent": 0.75, "tracker": 0.5}
        assert loaded["tracker-crawl"]["median"]["setup_s"] == 2.0

    def test_unknown_schema_is_refused(self):
        with pytest.raises(ValueError, match="schema_version 3"):
            compare_bench.load_bench({"schema_version": 3})


class TestJudge:
    @pytest.mark.parametrize("a,b,better,verdict", [
        (2.0, 2.4, "lower", "within"),
        (2.0, 2.6, "lower", "worse"),
        (2.0, 1.4, "lower", "better"),
        (20.0, 14.0, "higher", "worse"),
        (20.0, 26.0, "higher", "better"),
    ])
    def test_against_bound(self, a, b, better, verdict):
        assert compare_bench.judge(a, b, better, 0.25) == verdict


class TestRender:
    def test_rows_layers_and_tier1(self):
        a = schema2("aaa", 2.0, 20.0, layers={"torrent": 1.0, "tracker": 0.4,
                                              "dht": 0.0}, tier1=200.0)
        b = schema2("bbb", 1.2, 26.0, layers={"torrent": 0.6, "tracker": 0.4,
                                              "dht": 0.0}, tier1=180.0)
        lines, worse = compare_bench.render(a, b, END_TO_END)
        assert not worse
        text = "\n".join(lines)
        assert "tracker-crawl  setup_s" in text and "-40.0%" in text
        assert "+30.0%" in text and text.count("better") == 2
        layer_lines = lines[lines.index("self_s per cell by layer:") + 1:]
        assert layer_lines[0].split()[1] == "torrent"
        assert not any(" dht " in line for line in layer_lines)
        assert lines[-1] == "tier-1 wall 200 -> 180 s  -10.0%"

    def test_schema1_against_schema2_shares_no_workload(self):
        lines, worse = compare_bench.render(SCHEMA1, schema2("b", 1.0, 20.0), END_TO_END)
        assert not worse
        assert "tiny: only in A" in lines and "tracker-crawl: only in B" in lines

    def test_exit_status_flags_a_metric_worse_past_its_bound(self, tmp_path, capsys,
                                                           monkeypatch):
        bench = tmp_path / "BENCHMARK.json"
        bench.write_text(json.dumps({"end_to_end": END_TO_END}))
        monkeypatch.setattr(compare_bench, "BENCHMARK", bench)
        paths = []
        for name, setup_s in (("A.json", 2.0), ("B.json", 3.0)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(schema2(name, setup_s, 20.0)))
        assert compare_bench.main([str(p) for p in paths]) == 1
        assert "worse" in capsys.readouterr().out
        assert compare_bench.main([str(p) for p in reversed(paths)]) == 0


class TestLikeForLike:
    def _cells_lines(self, lines):
        start = lines.index("cells per run (median over untraced runs):")
        return [line for line in lines[start + 1:] if line.startswith("tracker-crawl")]

    def test_differing_cells_are_marked(self):
        a = schema2("aaa", 2.0, 20.0, cells=(14, 15, 15))
        b = schema2("bbb", 1.6, 25.0, cells=(18, 19, 19))
        lines, worse = compare_bench.render(a, b, END_TO_END)
        assert not worse
        (row,) = self._cells_lines(lines)
        assert row.split() == ["tracker-crawl", "15", "->", "19", "differs"]

    def test_equal_cells_are_not_marked(self):
        a = schema2("aaa", 2.0, 20.0, cells=(16, 16))
        b = schema2("bbb", 2.0, 20.0, cells=(15, 17))
        lines, _ = compare_bench.render(a, b, END_TO_END)
        (row,) = self._cells_lines(lines)
        assert row.split() == ["tracker-crawl", "16", "->", "16"]

    def test_no_cells_rows_without_untraced_runs(self):
        lines, _ = compare_bench.render(schema2("a", 2.0, 20.0),
                                        schema2("b", 2.0, 20.0, cells=(3,)), END_TO_END)
        assert "cells per run (median over untraced runs):" not in lines

    def test_one_warning_when_hosts_differ(self):
        other = dict(HOST, nproc=4)
        lines, worse = compare_bench.render(schema2("a", 2.0, 20.0),
                                            schema2("b", 2.0, 20.0, host=other),
                                            END_TO_END)
        assert not worse
        warnings = [line for line in lines if line.startswith("warning:")]
        assert len(warnings) == 1 and '"nproc": 4' in warnings[0]

    def test_no_warning_for_the_same_host(self):
        lines, _ = compare_bench.render(schema2("a", 2.0, 20.0),
                                        schema2("b", 2.0, 20.0), END_TO_END)
        assert not any(line.startswith("warning:") for line in lines)

    def test_notes_leave_the_exit_status_alone(self, tmp_path, monkeypatch):
        bench = tmp_path / "BENCHMARK.json"
        bench.write_text(json.dumps({"end_to_end": END_TO_END}))
        monkeypatch.setattr(compare_bench, "BENCHMARK", bench)
        a, b = tmp_path / "A.json", tmp_path / "B.json"
        a.write_text(json.dumps(schema2("a", 2.0, 20.0, cells=(10,))))
        b.write_text(json.dumps(schema2("b", 2.0, 20.0, cells=(20,),
                                        host=dict(HOST, python="3.12.0"))))
        assert compare_bench.main([str(a), str(b)]) == 0

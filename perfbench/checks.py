"""Output checks for benchmark cells: digests, pins, golden, invariants.

Every cell's output is reduced to one digest over its dataset summary, its
headline statistics and its sim-domain metrics snapshot.  Digests of the
default seed's cells are pinned in ``digests.json``; any seed's cells must
also pass the invariants below, which hold for every correct campaign.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

PINS_PATH = Path(__file__).with_name("digests.json")
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "tiny_seed7.json"
# The golden's tolerance (tests/test_golden_campaign.py).
GOLDEN_REL_TOL = 1e-9
GOLDEN_ABS_TOL = 1e-12

# Headline keys that are shares of something, so lie in [0, 1].
_UNIT_SUFFIXES = ("coverage", "precision", "_share", "top_fraction")


def digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 of a JSON-ready payload, keys sorted."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_digest(summary: Mapping[str, Any], headline: Mapping[str, float],
                snapshot: Mapping[str, Any]) -> str:
    return digest({"summary": summary, "headline": headline, "metrics": snapshot})


def counter_total(snapshot: Mapping[str, Any], name: str) -> float:
    """Sum of a counter or gauge over all its labels (0 when absent)."""
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    return float(sum(v for v in entry["values"].values() if isinstance(v, (int, float))))


def deterministic_counts(snapshot: Mapping[str, Any]) -> Dict[str, int]:
    """Sim-domain work counts that a fixed cell must repeat exactly."""
    return {
        "events": int(counter_total(snapshot, "engine.events_run")),
        "announces": int(counter_total(snapshot, "tracker.announces")),
        "dht_rpcs": int(counter_total(snapshot, "dht.lookup_queries")),
        "lookups": int(counter_total(snapshot, "dht.lookups")),
    }


def invariant_problems(channel: str, headline: Mapping[str, float],
                       summary: Mapping[str, Any],
                       snapshot: Mapping[str, Any]) -> List[str]:
    """Properties every correct campaign on ``channel`` has."""
    problems: List[str] = []
    for key, value in headline.items():
        if not math.isfinite(value):
            problems.append(f"headline {key} is not finite: {value!r}")
        elif key.endswith(_UNIT_SUFFIXES) and not 0.0 <= value <= 1.0:
            problems.append(f"headline {key} outside [0, 1]: {value!r}")
    if summary.get("num_torrents", 0) <= 0:
        problems.append("dataset has no torrents")
    counts = deterministic_counts(snapshot)
    if counts["events"] <= 0:
        problems.append("scheduler ran no events")
    if channel == "tracker":
        if counts["announces"] <= 0:
            problems.append("tracker channel made no announces")
        if counts["lookups"] or counts["dht_rpcs"]:
            problems.append("tracker-only campaign touched the DHT")
    elif channel == "dht":
        if counts["lookups"] <= 0:
            problems.append("DHT channel made no lookups")
        if counts["announces"]:
            problems.append("DHT-only campaign announced to the tracker")
    else:
        raise ValueError(f"unknown channel {channel!r}")
    return problems


def sweep_report_problems(report: Mapping[str, Any], results: List[Any]) -> List[str]:
    """The aggregate must carry exactly the per-cell payloads it was fed."""
    problems: List[str] = []
    if report.get("num_cells") != len(results):
        problems.append(
            f"report counts {report.get('num_cells')} cells, sweep ran {len(results)}"
        )
    for result in results:
        per_seed = report["scenarios"].get(result.scenario, {}).get("per_seed", {})
        entry = per_seed.get(str(result.seed))
        if entry is None:
            problems.append(f"report lacks seed {result.seed}")
        elif entry["headline"] != result.headline or entry["summary"] != result.summary:
            problems.append(f"report disagrees with the payload of seed {result.seed}")
    return problems


class Pins:
    """Digests pinned for the default seed, keyed by namespace and id."""

    def __init__(self, table: Optional[Dict[str, Dict[str, str]]] = None) -> None:
        if table is None:
            table = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
        self.table = table

    def problem(self, namespace: str, key: str, value: str) -> Optional[str]:
        """A mismatch message, or None when the digest matches or is unpinned."""
        pinned = self.table.get(namespace, {}).get(key)
        if pinned is None or pinned == value:
            return None
        return f"{namespace}/{key}: digest {value[:12]} != pinned {pinned[:12]}"


def golden_problems(headline: Mapping[str, float],
                    summary: Mapping[str, Any]) -> List[str]:
    """Compare a default-window ``tiny`` seed-7 cell with the repo golden."""
    golden = json.loads(GOLDEN_PATH.read_text())
    problems: List[str] = []
    for section, actual in (("headline", headline), ("summary", summary)):
        expected = golden[section]
        for key in sorted(set(expected) | set(actual)):
            if key == "num_true_swarms":
                continue
            if key not in actual or key not in expected:
                problems.append(f"golden {section}.{key} missing on one side")
            elif not math.isclose(expected[key], actual[key],
                                  rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_ABS_TOL):
                problems.append(
                    f"golden {section}.{key}: {expected[key]!r} != {actual[key]!r}"
                )
    return problems

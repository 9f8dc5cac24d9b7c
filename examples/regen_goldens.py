#!/usr/bin/env python3
"""Regenerate the golden-dataset regression fixtures in tests/golden/.

Run this ONLY when a change intentionally alters campaign results (a new
world-generation feature, a crawler behaviour change, a fixed analysis bug).
Commit the regenerated JSON together with the change so reviewers see the
numeric drift explicitly.

    PYTHONPATH=src python examples/regen_goldens.py

Each golden pins one small campaign: the scenario name, seed, top-k and any
window override, plus every headline statistic (identification
coverage/precision, coverage, session error, mapping and publisher-class
shares) and the Table-1 counts.  DHT campaigns also pin their ``dht.*``
sim-domain instruments.  The campaigns and payloads are defined in
``tests/golden_campaigns.py``; ``tests/test_golden_campaign.py`` recomputes
them and fails with a readable per-metric diff on any drift.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from tests.golden_campaigns import (  # noqa: E402
    GOLDENS,
    golden_payload,
    run_golden_campaign,
)


def main() -> None:
    for spec in GOLDENS.values():
        spec.path.parent.mkdir(parents=True, exist_ok=True)
        dataset, world = run_golden_campaign(spec)
        payload = golden_payload(spec, dataset, world)
        with open(spec.path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {spec.path} ({len(payload['headline'])} headline metrics)")


if __name__ == "__main__":
    main()

"""The golden campaigns and the payload each golden file pins.

Shared by ``tests/test_golden_campaign.py``, which recomputes each payload,
and ``examples/regen_goldens.py``, which writes them to ``tests/golden/``.

Every golden pins the headline statistics and the dataset summary of one
small campaign.  Campaigns that crawl the DHT also pin the ``dht.*``
sim-domain instruments of the run's metrics snapshot (counter and gauge
values, histogram counts and sums).  Those count every KRPC message,
lookup hop and returned peer, so a change to the DHT wire path that moves
one rng draw or drops one message shows up by name.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.campaign import headline_stats
from repro.core.collector import run_measurement_with_world
from repro.simulation import build_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"


@dataclass(frozen=True)
class GoldenSpec:
    scenario: str
    seed: int = 7
    top_k: int = 20
    # None keeps the scenario's own scale (and the golden file omits it).
    scale: Optional[float] = None
    # None keeps the scenario's own window (and the golden file omits it).
    window_days: Optional[float] = None
    post_window_days: Optional[float] = None

    @property
    def path(self) -> Path:
        return GOLDEN_DIR / f"{self.scenario}_seed{self.seed}.json"


GOLDENS: Dict[str, GoldenSpec] = {
    # The session-scoped ``tiny_run`` fixture in tests/conftest.py builds
    # the same campaign, so the tiny golden costs no extra crawl.
    "tiny": GoldenSpec("tiny"),
    # Magnet + DHT only, over a short window (~7 s on one core).
    "trackerless": GoldenSpec(
        "trackerless", window_days=0.25, post_window_days=0.25
    ),
    # Tracker and DHT together: the two-channel crawler's merge path.
    "hybrid": GoldenSpec("hybrid", window_days=0.25, post_window_days=0.25),
    # The paper's portal modes, at reduced scale.  pb09 queries each torrent
    # once (the single-query path the Section 7 monitor runs on); mn08's
    # RSS feed carries no username, so publishers are keyed by IP.
    "pb09": GoldenSpec(
        "pb09", scale=0.05, window_days=1.0, post_window_days=0.5
    ),
    "mn08": GoldenSpec(
        "mn08", scale=0.05, window_days=1.0, post_window_days=0.5
    ),
}


def run_golden_campaign(spec: GoldenSpec) -> Tuple[Any, Any]:
    """(dataset, world) of the golden campaign ``spec``."""
    config = build_scenario(
        spec.scenario,
        scale=spec.scale if spec.scale is not None else 1.0,
        window_days=spec.window_days,
        post_window_days=spec.post_window_days,
    )
    return run_measurement_with_world(config, seed=spec.seed)


def dht_instruments(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Flatten the sim-domain ``dht.*`` instruments of a metrics snapshot."""
    flat: Dict[str, float] = {}
    for name, instrument in sorted(snapshot.items()):
        if not name.startswith("dht.") or instrument.get("wall"):
            continue
        for label, value in instrument["values"].items():
            key = f"{name}[{label}]" if label else name
            if instrument["type"] == "histogram":
                flat[f"{key}.count"] = value["count"]
                flat[f"{key}.sum"] = value["sum"]
            else:
                flat[key] = value
    return flat


def golden_payload(spec: GoldenSpec, dataset: Any, world: Any) -> Dict[str, Any]:
    """Everything the golden file for ``spec`` pins."""
    payload: Dict[str, Any] = {
        "scenario": spec.scenario,
        "seed": spec.seed,
        "top_k": spec.top_k,
        "headline": headline_stats(dataset, world, top_k=spec.top_k),
        "summary": dataset.summary_dict(),
    }
    if spec.scale is not None:
        payload["scale"] = spec.scale
    if spec.window_days is not None:
        payload["window_days"] = spec.window_days
    if spec.post_window_days is not None:
        payload["post_window_days"] = spec.post_window_days
    dht = dht_instruments(dataset.metrics)
    if dht:
        payload["dht"] = dht
    return payload

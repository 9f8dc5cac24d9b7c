"""repro -- reproduction of "Is Content Publishing in BitTorrent Altruistic
or Profit-Driven?" (Cuevas et al., ACM CoNEXT 2010).

The package splits into the paper's *contribution* (:mod:`repro.core`: the
measurement crawler, the Appendix A session estimator, and the analysis
pipeline that regenerates every table and figure) and the *substrates* the
original study measured, rebuilt as faithful simulators: BitTorrent portals
(:mod:`repro.portal`), the tracker (:mod:`repro.tracker`), swarm dynamics
(:mod:`repro.swarm`), the peer wire protocol (:mod:`repro.peerwire`),
bencoding and .torrent metainfo (:mod:`repro.bencode`, :mod:`repro.torrent`),
GeoIP (:mod:`repro.geoip`), publisher agents (:mod:`repro.agents`) and
website economics (:mod:`repro.websites`).

Quickstart::

    from repro import run_measurement, build_report, pb10_scenario

    dataset = run_measurement(pb10_scenario(scale=0.3), seed=2010)
    report = build_report(dataset, top_k=30)
"""

from repro.campaign import SweepSpec, run_sweep
from repro.core import Dataset, IdentificationOutcome, TorrentRecord, run_measurement
from repro.core.analysis import PaperReport, build_report, identify_groups
from repro.observability import MetricsRegistry
from repro.simulation import (
    ScenarioConfig,
    World,
    baseline_scenario,
    build_scenario,
    hybrid_scenario,
    mn08_scenario,
    pb09_scenario,
    pb10_scenario,
    tiny_scenario,
    trackerless_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "Dataset",
    "IdentificationOutcome",
    "TorrentRecord",
    "run_measurement",
    "MetricsRegistry",
    "PaperReport",
    "build_report",
    "identify_groups",
    "ScenarioConfig",
    "SweepSpec",
    "run_sweep",
    "World",
    "baseline_scenario",
    "build_scenario",
    "hybrid_scenario",
    "mn08_scenario",
    "pb09_scenario",
    "pb10_scenario",
    "tiny_scenario",
    "trackerless_scenario",
    "__version__",
]

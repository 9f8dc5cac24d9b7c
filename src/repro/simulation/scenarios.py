"""Scenario configurations: the three datasets' analogues.

The paper's Table 1 describes three crawls:

=====  ==========  ========================  =========================
name   portal      quirk                     window
=====  ==========  ========================  =========================
mn08   Mininova    RSS has no username       09-Dec-08..16-Jan-09 (38d)
pb09   Pirate Bay  tracker queried only once 28-Nov-09..18-Dec-09 (20d)
pb10   Pirate Bay  full monitoring           06-Apr-10..05-May-10 (29d)
=====  ==========  ========================  =========================

Each factory reproduces the corresponding quirk.  ``scale`` multiplies the
publisher population; ``popularity_scale`` multiplies per-torrent audience
sizes.  All shape results are scale-free, so reduced-scale runs reproduce
the paper's structure at a fraction of the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.agents.population import PopulationConfig
from repro.dht.network import DhtConfig
from repro.tracker import TrackerConfig

# Discovery channels a campaign can use to find peers (ISSUE 2).
DISCOVERY_MODES = ("tracker", "dht", "hybrid")


@dataclass(frozen=True)
class CrawlerSettings:
    """Knobs of the measurement apparatus itself (Section 2)."""

    rss_poll_interval: float = 5.0  # minutes between RSS polls
    vantage_count: int = 2  # geographically-distributed query machines
    max_probe_peers: int = 20  # bitfield-probe only when swarm smaller
    monitor_swarms: bool = True  # False reproduces pb09's single query
    # Minutes between iterative DHT lookups while monitoring a swarm over
    # the DHT channel (lookups are costlier than tracker announces, so the
    # cadence is slower than the tracker interval).
    dht_poll_interval: float = 15.0

    def __post_init__(self) -> None:
        if self.rss_poll_interval <= 0:
            raise ValueError("rss_poll_interval must be > 0")
        if self.vantage_count < 1:
            raise ValueError("vantage_count must be >= 1")
        if self.dht_poll_interval <= 0:
            raise ValueError("dht_poll_interval must be > 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build a world and crawl it."""

    name: str
    portal_name: str
    rss_includes_username: bool
    window_days: float
    post_window_days: float
    population: PopulationConfig = field(default_factory=PopulationConfig)
    popularity_scale: float = 1.0
    crawler: CrawlerSettings = field(default_factory=CrawlerSettings)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    # World irregularities (footnote 2 of the paper).
    prepublished_fraction: float = 0.06  # swarms already big at RSS time
    fake_detection_mean_days: float = 1.5  # portal moderation latency
    # Peer-discovery channel (ISSUE 2): "tracker" is the paper's setup,
    # "dht" models a trackerless ecosystem, "hybrid" runs both.
    discovery: str = "tracker"
    # Portal serves magnet links only (no .torrent download) -- the
    # trackerless-portal quirk; requires a DHT discovery channel.
    magnet_only: bool = False
    # False removes the tracker from the world (swarms never register), the
    # "tracker down" degradation scenario.
    tracker_enabled: bool = True
    dht: DhtConfig = field(default_factory=DhtConfig)
    # The config holds scientific parameters only.  Telemetry goes to the
    # registry passed to World.build / run_measurement, never to the config.

    def __post_init__(self) -> None:
        if not (0 < self.window_days < math.inf and 0 <= self.post_window_days < math.inf):
            raise ValueError("bad window configuration")
        if not 0 <= self.prepublished_fraction <= 1:
            raise ValueError("prepublished_fraction must be in [0, 1]")
        if self.popularity_scale <= 0:
            raise ValueError("popularity_scale must be > 0")
        if self.fake_detection_mean_days <= 0:
            raise ValueError("fake_detection_mean_days must be > 0")
        if self.discovery not in DISCOVERY_MODES:
            raise ValueError(
                f"discovery must be one of {DISCOVERY_MODES}, got {self.discovery!r}"
            )
        if self.magnet_only and self.discovery == "tracker":
            raise ValueError(
                "magnet_only portals need a DHT discovery channel "
                "(discovery='dht' or 'hybrid')"
            )
        if not self.tracker_enabled and self.discovery != "dht":
            raise ValueError(
                "tracker_enabled=False requires discovery='dht' "
                "(nothing else could find peers)"
            )

    @property
    def uses_dht(self) -> bool:
        return self.discovery in ("dht", "hybrid")

    @property
    def uses_tracker(self) -> bool:
        return self.discovery in ("tracker", "hybrid") and self.tracker_enabled

    @property
    def window_minutes(self) -> float:
        return self.window_days * 1440.0

    @property
    def horizon_minutes(self) -> float:
        return (self.window_days + self.post_window_days) * 1440.0


def pb10_scenario(scale: float = 1.0, popularity_scale: float = 1.0) -> ScenarioConfig:
    """The primary dataset: The Pirate Bay, April 2010, full monitoring."""
    return ScenarioConfig(
        name="pb10",
        portal_name="The Pirate Bay",
        rss_includes_username=True,
        window_days=28.0,
        post_window_days=14.0,
        population=PopulationConfig().scaled(scale),
        popularity_scale=popularity_scale,
    )


def pb09_scenario(scale: float = 1.0, popularity_scale: float = 1.0) -> ScenarioConfig:
    """The Pirate Bay, Nov-Dec 2009: tracker queried once per torrent.

    Same portal population as pb10; the smaller torrent count in the
    paper's Table 1 comes from the shorter window.
    """
    return ScenarioConfig(
        name="pb09",
        portal_name="The Pirate Bay",
        rss_includes_username=True,
        window_days=20.0,
        post_window_days=2.0,
        population=PopulationConfig().scaled(scale),
        popularity_scale=popularity_scale,
        crawler=CrawlerSettings(monitor_swarms=False),
    )


def mn08_scenario(scale: float = 1.0, popularity_scale: float = 1.0) -> ScenarioConfig:
    """Mininova, Dec 2008: the RSS feed carries no usable username."""
    return ScenarioConfig(
        name="mn08",
        portal_name="Mininova",
        rss_includes_username=False,
        window_days=38.0,
        post_window_days=10.0,
        population=PopulationConfig().scaled(scale * 0.6),
        popularity_scale=popularity_scale,
        # Mininova-era crawl queried less aggressively (18-minute spacing).
        tracker=TrackerConfig(min_interval=12.0, max_interval=18.0),
    )


# The minutes-scale species mix of tiny, baseline and the discovery
# scenarios (which stay small so the ablation benchmark can sweep all three
# channels).
_SMALL_POPULATION = PopulationConfig(
    num_regular=120,
    num_bt_portal=2,
    num_web_promoter=2,
    num_altruistic_top=3,
    num_fake_antipiracy=1,
    num_fake_malware=1,
)


def baseline_scenario(
    scale: float = 1.0, popularity_scale: float = 1.0
) -> ScenarioConfig:
    """The default sweep grid cell: :func:`tiny_scenario` under its own name,
    with the uniform ``(scale, popularity_scale)`` knobs ``repro sweep``
    replicates across a seed grid in seconds per cell."""
    return scaled(tiny_scenario("baseline"), scale, popularity_scale)


def tiny_scenario(seed_name: str = "tiny") -> ScenarioConfig:
    """A minutes-scale world for tests: every species present, tiny swarms."""
    return ScenarioConfig(
        name=seed_name,
        portal_name="The Pirate Bay",
        rss_includes_username=True,
        window_days=6.0,
        post_window_days=6.0,
        population=_SMALL_POPULATION,
        popularity_scale=0.15,
        crawler=CrawlerSettings(
            rss_poll_interval=10.0,
            vantage_count=1,
        ),
        tracker=TrackerConfig(min_interval=20.0, max_interval=30.0),
    )


def trackerless_scenario(
    scale: float = 1.0, popularity_scale: float = 1.0
) -> ScenarioConfig:
    """A portal that publishes magnet links only; peers live in the DHT.

    Models the ecosystem the paper anticipated: no tracker at all, so the
    crawler's only way from an RSS entry to peers is an iterative
    ``get_peers`` lookup.  Identification and analysis run unchanged on the
    DHT-observed peers.
    """
    return ScenarioConfig(
        name="trackerless",
        portal_name="The Pirate Bay",
        rss_includes_username=True,
        window_days=6.0,
        post_window_days=6.0,
        population=_SMALL_POPULATION.scaled(scale),
        popularity_scale=0.15 * popularity_scale,
        crawler=CrawlerSettings(
            rss_poll_interval=10.0,
            vantage_count=1,
            # Half the tracker-channel cadence: iterative lookups cost tens
            # of KRPC round trips each, and 30-minute sampling still sits
            # well inside the Appendix A session-reconstruction threshold.
            dht_poll_interval=30.0,
        ),
        tracker=TrackerConfig(min_interval=20.0, max_interval=30.0),
        discovery="dht",
        magnet_only=True,
        tracker_enabled=False,
    )


def hybrid_scenario(
    scale: float = 1.0, popularity_scale: float = 1.0
) -> ScenarioConfig:
    """Both channels live: .torrent + tracker and magnet + DHT.

    The validation scenario for tracker-vs-DHT coverage parity: the same
    world is observed through both channels under one seed.
    """
    return ScenarioConfig(
        name="hybrid",
        portal_name="The Pirate Bay",
        rss_includes_username=True,
        window_days=6.0,
        post_window_days=6.0,
        population=_SMALL_POPULATION.scaled(scale),
        popularity_scale=0.15 * popularity_scale,
        crawler=CrawlerSettings(
            rss_poll_interval=10.0,
            vantage_count=1,
            # Matched to the 20-30-minute tracker interval: a faster DHT
            # cadence (or a longer announce TTL) over-observes the swarm
            # relative to the tracker and opens a coverage gap.
            dht_poll_interval=30.0,
        ),
        tracker=TrackerConfig(min_interval=20.0, max_interval=30.0),
        discovery="hybrid",
        dht=DhtConfig(announce_ttl_minutes=10.0),
    )


def scaled(config: ScenarioConfig, scale: float, popularity_scale: float) -> ScenarioConfig:
    """Rescale an existing scenario (used by the benchmark harness)."""
    return replace(
        config,
        population=config.population.scaled(scale),
        popularity_scale=config.popularity_scale * popularity_scale,
    )


def _tiny_factory(scale: float = 1.0, popularity_scale: float = 1.0) -> ScenarioConfig:
    """Uniform-signature wrapper so ``tiny`` lives in the registry too."""
    return scaled(tiny_scenario(), scale, popularity_scale)


# Canonical name -> factory registry.  Every factory takes
# ``(scale, popularity_scale)``; the CLI and the campaign sweep runner both
# resolve scenarios here (workers rebuild configs by name, never by pickling).
SCENARIO_FACTORIES = {
    "baseline": baseline_scenario,
    "hybrid": hybrid_scenario,
    "mn08": mn08_scenario,
    "pb09": pb09_scenario,
    "pb10": pb10_scenario,
    "tiny": _tiny_factory,
    "trackerless": trackerless_scenario,
}


def build_scenario(
    name: str,
    scale: float = 1.0,
    popularity_scale: float = 1.0,
    discovery: Optional[str] = None,
    window_days: Optional[float] = None,
    post_window_days: Optional[float] = None,
    wire_fidelity: Optional[str] = None,
) -> ScenarioConfig:
    """Resolve a scenario by name and apply the standard overrides.

    ``discovery`` switches the peer-discovery channel; moving *to* a
    tracker-involving mode turns the tracker back on, moving to dht-only
    works for any scenario.  ``window_days``/``post_window_days`` shrink or
    stretch the measurement window (sweep grids use short windows to trade
    statistical power for wall-clock time).  ``wire_fidelity`` overrides the
    tracker's serialisation mode ("full" encodes every announce, "sampled"
    round-trips 1-in-N and asserts losslessness); the policy outcome is
    identical either way.
    """
    try:
        factory = SCENARIO_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; valid scenarios: "
            f"{', '.join(sorted(SCENARIO_FACTORIES))}"
        ) from None
    config = factory(scale=scale, popularity_scale=popularity_scale)
    if discovery is not None and discovery != config.discovery:
        config = replace(
            config,
            discovery=discovery,
            tracker_enabled=config.tracker_enabled or discovery != "dht",
            magnet_only=config.magnet_only and discovery != "tracker",
        )
    if window_days is not None or post_window_days is not None:
        config = replace(
            config,
            window_days=(
                window_days if window_days is not None else config.window_days
            ),
            post_window_days=(
                post_window_days
                if post_window_days is not None
                else config.post_window_days
            ),
        )
    if wire_fidelity is not None and wire_fidelity != config.tracker.wire_fidelity:
        config = replace(
            config, tracker=replace(config.tracker, wire_fidelity=wire_fidelity)
        )
    return config

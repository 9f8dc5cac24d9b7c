"""Behaviour profiles: the parameters behind each publisher species.

The numbers here are calibrated so the *shape* of every paper result emerges
from the simulation (see DESIGN.md section 3 for the target shapes).  Where
the paper reports a distributional fact, the profile encodes it directly:

- fake publishers (anti-piracy agencies / malware spreaders) publish many
  catchy Video+Software torrents from a few hosting IPs, remain the sole
  seeder, and therefore seed dozens of torrents in parallel across very long
  sessions (Section 4.3);
- profit-driven tops (private BT portals, promo web sites) publish popular
  content at high rate, guarantee a few hours of seeding per torrent, and
  embed their URL (Section 5.1);
- altruistic tops publish lighter content (music/e-books) at lower rates,
  ask others to help seeding;
- regular users publish one or two torrents from home, behind NAT more often
  than not, and also *consume*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.portal.categories import Category


class PublisherClass(enum.Enum):
    """Ground-truth species (what the analysis tries to recover)."""

    FAKE_ANTIPIRACY = "fake publisher (anti-piracy agency)"
    FAKE_MALWARE = "fake publisher (malware spreader)"
    TOP_BT_PORTAL = "top publisher (private BitTorrent portal)"
    TOP_WEB_PROMOTER = "top publisher (other web site)"
    TOP_ALTRUISTIC = "top publisher (altruistic)"
    REGULAR = "regular publisher"

    @property
    def is_fake(self) -> bool:
        return self in (PublisherClass.FAKE_ANTIPIRACY, PublisherClass.FAKE_MALWARE)

    @property
    def is_top(self) -> bool:
        return self in (
            PublisherClass.TOP_BT_PORTAL,
            PublisherClass.TOP_WEB_PROMOTER,
            PublisherClass.TOP_ALTRUISTIC,
        )


class IpPolicy(enum.Enum):
    """How a publisher maps to IP addresses (Section 3.3's taxonomy)."""

    SINGLE_HOSTING = "one rented server"
    MULTI_HOSTING = "several rented servers (avg 5.7 in the paper)"
    SINGLE_CI_STATIC = "one commercial-ISP address"
    SINGLE_CI_DYNAMIC = "one commercial ISP, periodically re-assigned address"
    MULTI_CI = "several commercial ISPs (home + work)"


class PromoPlacement(enum.Enum):
    """Where a profit-driven publisher plants its URL (Section 5)."""

    TEXTBOX = "textbox on the content web page"
    FILENAME = "name of the published file"
    BUNDLED_FILE = "name of a bundled text file"


@dataclass(frozen=True)
class BehaviorProfile:
    """Distributional parameters for one publisher species.

    Rates are per-day; durations in hours; popularity in expected distinct
    downloaders per torrent, parameterised as (median, lognormal sigma).
    """

    publisher_class: PublisherClass
    # Publishing
    publish_rate_per_day: Tuple[float, float]  # (low, high) uniform per agent
    category_weights: Dict[Category, float] = field(default_factory=dict)
    # Popularity of published torrents
    popularity_median: float = 30.0
    popularity_sigma: float = 1.8
    arrival_tau_days: float = 2.5
    # Seeding
    seed_hours_median: float = 6.0
    seed_hours_sigma: float = 0.8
    seeding_sittings: Tuple[int, int] = (1, 2)  # sessions per torrent
    keepalive_seeding: bool = False  # fake publishers: seed until abandoned
    abandon_after_days: Tuple[float, float] = (4.0, 9.0)
    online_block_hours: float = 40.0  # keepalive publishers' online blocks
    offline_gap_hours: float = 2.5
    # Network situation
    nat_probability: float = 0.0
    # Fraction of torrents where the publisher announces as a leecher (fake
    # decoy seeders never report a complete file, so the tracker shows no
    # seeder -- footnote 2's "did not report a seeder at all" case).
    stealth_leecher_fraction: float = 0.0
    # Account behaviour
    uses_throwaway_usernames: bool = False
    hacked_username_probability: float = 0.0
    # Consumption of other publishers' content during the window
    consumption_mean: float = 0.0
    # Account ages, in days before the measurement window (longitudinal view)
    lifetime_days: Tuple[float, float] = (60.0, 700.0)

    def __post_init__(self) -> None:
        low, high = self.publish_rate_per_day
        if not 0 < low <= high:
            raise ValueError(f"bad publish rate range ({low}, {high})")
        if self.popularity_median <= 0 or self.popularity_sigma < 0:
            raise ValueError("bad popularity parameters")
        if not self.category_weights:
            raise ValueError("category_weights must be non-empty")


def default_profiles() -> Dict[PublisherClass, BehaviorProfile]:
    """Calibrated profiles (targets in DESIGN.md / EXPERIMENTS.md)."""
    C = Category
    return {
        PublisherClass.FAKE_ANTIPIRACY: BehaviorProfile(
            publisher_class=PublisherClass.FAKE_ANTIPIRACY,
            publish_rate_per_day=(5.5, 9.0),
            category_weights={
                C.MOVIES: 0.48, C.TV_SHOWS: 0.18, C.APPLICATIONS: 0.22,
                C.MUSIC: 0.06, C.GAMES: 0.06,
            },
            popularity_median=6.0,
            popularity_sigma=2.7,
            arrival_tau_days=1.0,  # catchy titles: fast, short-lived interest
            keepalive_seeding=True,
            abandon_after_days=(2.5, 6.0),
            online_block_hours=60.0,
            offline_gap_hours=2.0,
            nat_probability=0.0,  # rented servers
            stealth_leecher_fraction=0.6,
            uses_throwaway_usernames=True,
            hacked_username_probability=0.3,
            lifetime_days=(30.0, 400.0),
        ),
        PublisherClass.FAKE_MALWARE: BehaviorProfile(
            publisher_class=PublisherClass.FAKE_MALWARE,
            publish_rate_per_day=(5.0, 8.5),
            category_weights={
                C.MOVIES: 0.35, C.TV_SHOWS: 0.10, C.APPLICATIONS: 0.38,
                C.GAMES: 0.12, C.PORN: 0.05,
            },
            popularity_median=6.0,
            popularity_sigma=2.7,
            arrival_tau_days=1.0,
            keepalive_seeding=True,
            abandon_after_days=(2.5, 6.0),
            online_block_hours=60.0,
            offline_gap_hours=2.0,
            nat_probability=0.0,
            stealth_leecher_fraction=0.6,
            uses_throwaway_usernames=True,
            hacked_username_probability=0.3,
            lifetime_days=(30.0, 400.0),
        ),
        PublisherClass.TOP_BT_PORTAL: BehaviorProfile(
            publisher_class=PublisherClass.TOP_BT_PORTAL,
            publish_rate_per_day=(1.5, 4.5),
            category_weights={
                C.MOVIES: 0.32, C.TV_SHOWS: 0.28, C.MUSIC: 0.12,
                C.APPLICATIONS: 0.12, C.GAMES: 0.10, C.EBOOKS: 0.06,
            },
            popularity_median=200.0,
            popularity_sigma=0.9,
            arrival_tau_days=2.5,
            seed_hours_median=16.0,
            seed_hours_sigma=0.7,
            seeding_sittings=(1, 3),
            nat_probability=0.05,
            consumption_mean=1.0,
            lifetime_days=(63.0, 1816.0),
        ),
        PublisherClass.TOP_WEB_PROMOTER: BehaviorProfile(
            publisher_class=PublisherClass.TOP_WEB_PROMOTER,
            publish_rate_per_day=(0.8, 2.5),
            category_weights={
                C.PORN: 0.70, C.MOVIES: 0.10, C.PICTURES: 0.12, C.OTHER: 0.08,
            },
            popularity_median=150.0,
            popularity_sigma=0.9,
            arrival_tau_days=2.5,
            seed_hours_median=12.0,
            seed_hours_sigma=0.7,
            seeding_sittings=(1, 3),
            nat_probability=0.1,
            consumption_mean=1.5,
            lifetime_days=(50.0, 1989.0),
        ),
        PublisherClass.TOP_ALTRUISTIC: BehaviorProfile(
            publisher_class=PublisherClass.TOP_ALTRUISTIC,
            publish_rate_per_day=(0.5, 1.6),
            category_weights={
                C.MUSIC: 0.33, C.EBOOKS: 0.28, C.MOVIES: 0.10,
                C.TV_SHOWS: 0.10, C.AUDIO_BOOKS: 0.08, C.APPLICATIONS: 0.05,
                C.OTHER: 0.06,
            },
            popularity_median=130.0,
            popularity_sigma=1.0,
            arrival_tau_days=3.0,
            seed_hours_median=8.0,
            seed_hours_sigma=0.8,
            seeding_sittings=(1, 2),
            nat_probability=0.35,
            consumption_mean=5.0,
            lifetime_days=(10.0, 1899.0),
        ),
        PublisherClass.REGULAR: BehaviorProfile(
            publisher_class=PublisherClass.REGULAR,
            # Expected torrents per day; the whole-window total is drawn
            # Poisson (floored at 1), so most regulars publish a single item.
            publish_rate_per_day=(0.01, 0.06),
            category_weights={
                C.MOVIES: 0.24, C.TV_SHOWS: 0.15, C.PORN: 0.09,
                C.MUSIC: 0.20, C.APPLICATIONS: 0.08, C.GAMES: 0.07,
                C.EBOOKS: 0.09, C.PICTURES: 0.03, C.OTHER: 0.05,
            },
            popularity_median=30.0,
            popularity_sigma=1.85,
            arrival_tau_days=1.2,
            seed_hours_median=4.0,
            seed_hours_sigma=0.9,
            seeding_sittings=(1, 2),
            nat_probability=0.55,
            consumption_mean=8.0,
            lifetime_days=(5.0, 900.0),
        ),
    }

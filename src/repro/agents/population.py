"""Concrete publisher population generation.

Turns :mod:`repro.agents.profiles` species into concrete agents with
usernames, IP addresses at specific ISPs (via the address plan), promoted
websites, and account ages.  The ISP arrangements follow Section 3.2/3.3 of
the paper:

- most profit-driven tops rent servers at hosting providers, with a strong
  OVH concentration;
- fake publishers operate out of tzulo / FDCservers / 4RWEB;
- commercial-ISP publishers appear with one static IP, one dynamic
  (periodically re-assigned) IP, or a couple of IPs at different ISPs
  (home + work);
- fake entities additionally hijack ("hack") a few regular users' accounts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.agents.naming import NameForge
from repro.agents.profiles import (
    BehaviorProfile,
    IpPolicy,
    PromoPlacement,
    PublisherClass,
    default_profiles,
)
from repro.geoip import AddressPlan, default_isp_profiles
from repro.websites.model import (
    BusinessType,
    WebDirectory,
    Website,
    generate_website,
)

# Where profit-driven hosting publishers rent servers (paper: OVH dominant).
_HOSTING_WEIGHTS = [
    ("OVH", 0.62),
    ("SoftLayer Tech.", 0.09),
    ("Keyweb", 0.07),
    ("Leaseweb", 0.07),
    ("Hetzner", 0.07),
    ("NetDirect", 0.06),
    ("NetWork Operations Center", 0.05),
    ("tzulo", 0.04),
]

# Where the fake publishers sit (Section 3.3).
_FAKE_HOSTING = ["tzulo", "FDCservers", "4RWEB"]

# Commercial-ISP popularity among publishers (drives Table 2's CI rows).
# The named ISPs get paper-motivated weights; the long tail of generic
# consumer ISPs (filler profiles) carries most of the mass, as in reality.
_NAMED_COMMERCIAL_WEIGHTS = [
    ("Comcast", 9.0), ("Road Runner", 6.5), ("SBC", 5.0), ("Verizon", 4.5),
    ("Virgin Media", 4.0), ("Telefonica", 3.5), ("Telecom Italia", 4.0),
    ("Open Computer Network", 4.0), ("Jazz Telecom.", 2.5),
    ("Romania DS", 2.5), ("MTT Network", 2.0), ("Comcor-TV", 2.5),
    ("Cosema", 2.0), ("NIB", 2.0),
]
_COMMERCIAL_WEIGHTS = _NAMED_COMMERCIAL_WEIGHTS + [
    (profile.name, 4.5)
    for profile in default_isp_profiles()
    if profile.filler
]


@dataclass(frozen=True)
class PopulationConfig:
    """How many agents of each species to create."""

    num_regular: int = 500
    num_bt_portal: int = 5
    num_web_promoter: int = 4
    num_altruistic_top: int = 9
    num_fake_antipiracy: int = 2
    num_fake_malware: int = 1

    def __post_init__(self) -> None:
        for name in (
            "num_regular",
            "num_bt_portal",
            "num_web_promoter",
            "num_altruistic_top",
            "num_fake_antipiracy",
            "num_fake_malware",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.num_regular < 10 and self.total_fake > 0:
            raise ValueError("need >= 10 regular agents to supply hacked accounts")

    @property
    def total_fake(self) -> int:
        return self.num_fake_antipiracy + self.num_fake_malware

    def scaled(self, factor: float) -> "PopulationConfig":
        """Scale agent counts (keeping every species represented).

        Caveat: per-agent publishing *rates* do not scale, and every species
        is floored at one agent, so below roughly factor 0.75 the fake
        entities (few agents, high rates) take an outsized share of the
        world's content.  Shape results stay directionally right; class
        *shares* are only calibrated near factor 1.0.
        """
        if factor <= 0:
            raise ValueError("scale factor must be > 0")

        def scale(n: int) -> int:
            return max(1, round(n * factor)) if n > 0 else 0

        return PopulationConfig(
            num_regular=scale(self.num_regular),
            num_bt_portal=scale(self.num_bt_portal),
            num_web_promoter=scale(self.num_web_promoter),
            num_altruistic_top=scale(self.num_altruistic_top),
            num_fake_antipiracy=scale(self.num_fake_antipiracy),
            num_fake_malware=scale(self.num_fake_malware),
        )


@dataclass
class PublisherAgent:
    """One concrete publisher (ground truth; invisible to the analysis)."""

    agent_id: int
    publisher_class: PublisherClass
    profile: BehaviorProfile
    username: str
    ip_policy: IpPolicy
    isps: Tuple[str, ...]
    ips: Tuple[int, ...]
    natted: bool
    rate_per_day: float
    account_age_days: float
    website: Optional[Website] = None
    promo_placements: Tuple[PromoPlacement, ...] = ()
    content_language: str = "en"
    hacked_usernames: Tuple[str, ...] = ()  # fake entities only
    consumption_mean: float = 0.0

    @property
    def is_fake(self) -> bool:
        return self.publisher_class.is_fake

    @property
    def is_top(self) -> bool:
        return self.publisher_class.is_top

    def pick_ip(self, rng: random.Random) -> int:
        """The address this agent publishes/seeds from right now."""
        if len(self.ips) == 1:
            return self.ips[0]
        return rng.choice(self.ips)


@dataclass
class Population:
    """Everything the world generator needs about who exists."""

    agents: List[PublisherAgent]
    web_directory: WebDirectory
    forge: NameForge
    config: PopulationConfig


def _weighted(rng: random.Random, pairs: List[Tuple[str, float]]) -> str:
    total = sum(w for _, w in pairs)
    u = rng.random() * total
    acc = 0.0
    for name, weight in pairs:
        acc += weight
        if u <= acc:
            return name
    return pairs[-1][0]


class _QuotaChooser:
    """Low-discrepancy weighted sampling (largest remainder).

    With only a handful of hosted top publishers per world, i.i.d. sampling
    would frequently miss OVH's dominant share entirely; quota sampling
    keeps realised provider counts within one unit of their expectation, so
    the paper's "large concentration at OVH" holds at every scale.
    """

    def __init__(self, pairs: List[Tuple[str, float]]) -> None:
        total = sum(w for _, w in pairs)
        self._weights = [(name, w / total) for name, w in pairs]
        self._counts = {name: 0 for name, _ in pairs}
        self._drawn = 0

    def pick(self) -> str:
        name = max(
            self._weights,
            key=lambda pair: pair[1] * (self._drawn + 1) - self._counts[pair[0]],
        )[0]
        self._counts[name] += 1
        self._drawn += 1
        return name


def _mint_many(
    plan: AddressPlan, rng: random.Random, isp: str, count: int, same_prefix: bool
) -> Tuple[int, ...]:
    """Mint ``count`` addresses at one ISP.

    ``same_prefix`` keeps a dynamic-IP user's addresses inside one /16 (a
    DSL pool), while hosting servers spread over the provider's prefixes.
    """
    if same_prefix:
        prefix = rng.choice(plan.prefixes(isp))
        return tuple(plan.mint_address(rng, isp, prefix) for _ in range(count))
    return tuple(plan.mint_address(rng, isp) for _ in range(count))


def _assign_network(
    rng: random.Random,
    plan: AddressPlan,
    cls: PublisherClass,
    hosting_chooser: _QuotaChooser,
) -> Tuple[IpPolicy, Tuple[str, ...], Tuple[int, ...]]:
    """IP arrangement per species (Section 3.3 mixture)."""
    if cls.is_fake:
        isp = rng.choice(_FAKE_HOSTING)
        count = rng.randrange(8, 17)
        return IpPolicy.MULTI_HOSTING, (isp,), _mint_many(plan, rng, isp, count, False)

    hosting_share = {
        PublisherClass.TOP_BT_PORTAL: 0.70,
        PublisherClass.TOP_WEB_PROMOTER: 0.50,
        PublisherClass.TOP_ALTRUISTIC: 0.15,
        PublisherClass.REGULAR: 0.0,
    }[cls]
    if rng.random() < hosting_share:
        isp = hosting_chooser.pick()
        count = max(1, round(rng.gauss(5.7, 2.0)))
        policy = IpPolicy.MULTI_HOSTING if count > 1 else IpPolicy.SINGLE_HOSTING
        return policy, (isp,), _mint_many(plan, rng, isp, count, False)

    if cls is PublisherClass.REGULAR:
        split = rng.random()
        if split < 0.80:
            isp = _weighted(rng, _COMMERCIAL_WEIGHTS)
            return (
                IpPolicy.SINGLE_CI_STATIC,
                (isp,),
                _mint_many(plan, rng, isp, 1, True),
            )
        if split < 0.95:
            isp = _weighted(rng, _COMMERCIAL_WEIGHTS)
            count = rng.randrange(2, 5)
            return (
                IpPolicy.SINGLE_CI_DYNAMIC,
                (isp,),
                _mint_many(plan, rng, isp, count, True),
            )
        # Dedupe in draw order: a set literal here would make the tuple's
        # order (and thus the address-minting order) hash-seed-dependent.
        isps = tuple(
            dict.fromkeys(_weighted(rng, _COMMERCIAL_WEIGHTS) for _ in range(2))
        )
        ips = tuple(
            ip for isp in isps for ip in _mint_many(plan, rng, isp, 1, True)
        )
        return IpPolicy.MULTI_CI, isps, ips

    # Top publishers on commercial ISPs (Section 3.3's 24% dynamic /
    # 16% multi-ISP / remainder static single-IP mixture).  Heavy publishers
    # sit at the major named ISPs, which is what puts Comcast and friends in
    # the paper's Table 2.
    split = rng.random()
    if split < 0.45:
        isp = _weighted(rng, _NAMED_COMMERCIAL_WEIGHTS)
        count = max(2, round(rng.gauss(13.8, 4.0)))
        return (
            IpPolicy.SINGLE_CI_DYNAMIC,
            (isp,),
            _mint_many(plan, rng, isp, count, True),
        )
    if split < 0.75:
        num_isps = rng.randrange(2, 4)
        isps = tuple(
            dict.fromkeys(
                _weighted(rng, _NAMED_COMMERCIAL_WEIGHTS) for _ in range(num_isps)
            )
        )
        per = max(1, round(7.7 / max(1, len(isps))))
        ips = tuple(
            ip for isp in isps for ip in _mint_many(plan, rng, isp, per, True)
        )
        return IpPolicy.MULTI_CI, isps, ips
    isp = _weighted(rng, _NAMED_COMMERCIAL_WEIGHTS)
    return IpPolicy.SINGLE_CI_STATIC, (isp,), _mint_many(plan, rng, isp, 1, True)


def _promo_placements(
    rng: random.Random, cls: PublisherClass
) -> Tuple[PromoPlacement, ...]:
    """Which of Section 5's three techniques this publisher uses."""
    placements = set()
    if cls is PublisherClass.TOP_BT_PORTAL:
        if rng.random() < 0.67:
            placements.add(PromoPlacement.TEXTBOX)
        if rng.random() < 0.25:
            placements.add(PromoPlacement.FILENAME)
        if rng.random() < 0.20:
            placements.add(PromoPlacement.BUNDLED_FILE)
        if not placements:
            placements.add(PromoPlacement.TEXTBOX)
    elif cls is PublisherClass.TOP_WEB_PROMOTER:
        placements.add(PromoPlacement.TEXTBOX)
        if rng.random() < 0.15:
            placements.add(
                rng.choice([PromoPlacement.FILENAME, PromoPlacement.BUNDLED_FILE])
            )
    return tuple(sorted(placements, key=lambda p: p.name))


def _language_for(rng: random.Random, cls: PublisherClass) -> str:
    """40% of BT-portal publishers are language-specific; 2/3 of those Spanish."""
    if cls is PublisherClass.TOP_BT_PORTAL and rng.random() < 0.40:
        if rng.random() < 0.66:
            return "es"
        return rng.choice(["it", "nl", "sv"])
    return "en"


def build_population(
    rng: random.Random,
    plan: AddressPlan,
    config: PopulationConfig,
    profiles: Optional[Dict[PublisherClass, BehaviorProfile]] = None,
) -> Population:
    """Create the full agent population for one world."""
    profiles = profiles if profiles is not None else default_profiles()
    forge = NameForge(rng)
    directory = WebDirectory()
    agents: List[PublisherAgent] = []
    agent_id = 0
    hosting_chooser = _QuotaChooser(_HOSTING_WEIGHTS)

    def make_agent(cls: PublisherClass, username: str) -> PublisherAgent:
        nonlocal agent_id
        profile = profiles[cls]
        policy, isps, ips = _assign_network(rng, plan, cls, hosting_chooser)
        natted = (
            policy in (IpPolicy.SINGLE_CI_STATIC, IpPolicy.SINGLE_CI_DYNAMIC,
                       IpPolicy.MULTI_CI)
            and rng.random() < profile.nat_probability
        )
        low, high = profile.publish_rate_per_day
        agent = PublisherAgent(
            agent_id=agent_id,
            publisher_class=cls,
            profile=profile,
            username=username,
            ip_policy=policy,
            isps=isps,
            ips=ips,
            natted=natted,
            rate_per_day=rng.uniform(low, high),
            account_age_days=rng.uniform(*profile.lifetime_days),
            content_language=_language_for(rng, cls),
            consumption_mean=profile.consumption_mean,
        )
        agent_id += 1
        return agent

    # Regular users first (the hacked-account victim pool comes from them).
    for _ in range(config.num_regular):
        agents.append(make_agent(PublisherClass.REGULAR, forge.casual_username()))

    # Profit-driven tops, each with a promoted website.
    for cls, count, visits_median in (
        (PublisherClass.TOP_BT_PORTAL, config.num_bt_portal, 21_000.0),
        (PublisherClass.TOP_WEB_PROMOTER, config.num_web_promoter, 22_000.0),
    ):
        for _ in range(count):
            domain = forge.domain()
            if rng.random() < 0.30:
                username = forge.username_from_domain(domain)
            else:
                username = forge.scene_username()
            agent = make_agent(cls, username)
            if cls is PublisherClass.TOP_BT_PORTAL:
                business = BusinessType.BT_PORTAL
            else:
                business = _weighted(
                    rng,
                    [
                        (BusinessType.IMAGE_HOSTING.name, 0.5),
                        (BusinessType.FORUM.name, 0.25),
                        (BusinessType.BLOG.name, 0.15),
                        (BusinessType.RELIGIOUS.name, 0.10),
                    ],
                )
                business = BusinessType[business]
            site = generate_website(
                rng,
                url=domain,
                business_type=business,
                visits_median=visits_median,
                visits_sigma=1.6,
                language=agent.content_language,
            )
            directory.register(site)
            agent.website = site
            agent.promo_placements = _promo_placements(rng, cls)
            agents.append(agent)

    # Altruistic tops (no website, no promo).
    for _ in range(config.num_altruistic_top):
        agents.append(
            make_agent(PublisherClass.TOP_ALTRUISTIC, forge.scene_username())
        )

    # Fake entities, with hacked regular accounts.
    regular_usernames = [
        a.username for a in agents if a.publisher_class is PublisherClass.REGULAR
    ]
    fake_specs = [(PublisherClass.FAKE_ANTIPIRACY, config.num_fake_antipiracy),
                  (PublisherClass.FAKE_MALWARE, config.num_fake_malware)]
    hijacked_already: set = set()
    for cls, count in fake_specs:
        for index in range(count):
            agent = make_agent(cls, f"<fake-entity-{cls.name}-{index}>")
            available = [u for u in regular_usernames if u not in hijacked_already]
            num_victims = min(len(available), rng.randrange(2, 5))
            victims = tuple(rng.sample(available, num_victims)) if num_victims else ()
            hijacked_already.update(victims)
            agent.hacked_usernames = victims
            agents.append(agent)

    return Population(
        agents=agents, web_directory=directory, forge=forge, config=config
    )

"""World assembly: population -> portal entries, swarms, tracker state.

``World.build`` deterministically generates, from one seed:

1. the address plan and GeoIP database;
2. the publisher population (agents, websites);
3. every publication in the measurement window -- portal page + RSS entry +
   .torrent bytes + a swarm holding the publisher's seeding sessions and all
   downloader sessions;
4. consumption: regular (and some top) publishers also appear as downloaders
   in other torrents, from their own IPs -- the signal behind the paper's
   "40% of top-100 IPs do not download any content" observation;
5. moderation: each fake torrent gets a detection/removal time; arrivals
   stop there and the publishing account is banned.

Ground truth is kept in ``world.truth`` for tests and validation only; the
measurement pipeline must never read it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.agents.behavior import (
    content_size_bytes,
    online_schedule,
    pick_category,
    publication_times,
    seeding_sessions,
)
from repro.agents.naming import NameForge
from repro.agents.population import (
    Population,
    PublisherAgent,
    build_population,
)
from repro.agents.profiles import IpPolicy, PromoPlacement, PublisherClass
from repro.dht import DhtNetwork
from repro.geoip import AddressPlan, GeoIpDatabase, default_isp_profiles
from repro.geoip.isps import IspKind
from repro.observability import MetricsRegistry
from repro.portal import Portal, PortalConfig
from repro.portal.categories import Category
from repro.simulation.clock import DAY, HOUR
from repro.simulation.scenarios import ScenarioConfig
from repro.stats.distributions import poisson
from repro.swarm import (
    DownloaderBehavior,
    PeerSession,
    PopularityModel,
    Swarm,
    generate_downloader_sessions,
)
from repro.torrent import TorrentFile, build_magnet, build_torrent, parse_torrent
from repro.tracker import Tracker, peer_port_for_ip
from repro.websites.model import WebDirectory

ANNOUNCE_URL = "http://tracker.openbittorrent.sim/announce"
# World irregularity (footnote 2 of the paper): the share of publications
# whose publisher shows up late or never.
NO_SEEDER_FRACTION = 0.03
# Mean download rate for peers, KB/s (2010-era home downlink).
PEER_DOWNLOAD_RATE_KBS = 150.0


@dataclass(frozen=True)
class TorrentTruth:
    """Ground truth about one published torrent (tests only)."""

    torrent_id: int
    infohash: bytes
    agent_id: int
    publisher_class: PublisherClass
    username: str
    category: Category
    is_fake: bool
    publish_time: float
    removal_time: Optional[float]
    publisher_ips: Tuple[int, ...]
    generated_downloads: int
    prepublished: bool
    seederless_at_birth: bool


@dataclass
class WorldTruth:
    """All ground truth (tests only)."""

    torrents: List[TorrentTruth] = field(default_factory=list)
    username_to_agent: Dict[str, int] = field(default_factory=dict)
    agent_class: Dict[int, PublisherClass] = field(default_factory=dict)


@dataclass
class _PlannedPublication:
    time: float
    agent: PublisherAgent
    username: str


class World:
    """A fully-generated synthetic BitTorrent ecosystem."""

    def __init__(
        self,
        config: ScenarioConfig,
        seed: int,
        plan: AddressPlan,
        geoip: GeoIpDatabase,
        tracker: Tracker,
        portal: Portal,
        population: Population,
        *,
        metrics: MetricsRegistry,
        dht: Optional[DhtNetwork] = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.plan = plan
        self.geoip = geoip
        self.tracker = tracker
        self.portal = portal
        self.population = population
        self.dht = dht
        self.metrics = metrics
        self.truth = WorldTruth()
        self._swarms_by_torrent_id: Dict[int, Swarm] = {}
        self._keepalive_cache: Dict[int, List[Tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: ScenarioConfig,
        seed: int,
        *,
        metrics: MetricsRegistry,
    ) -> "World":
        master = random.Random(seed)
        plan_rng = random.Random(master.getrandbits(64))
        pop_rng = random.Random(master.getrandbits(64))
        workload_rng = random.Random(master.getrandbits(64))
        tracker_rng = random.Random(master.getrandbits(64))
        # Drawn even when no DHT is built so the base world (plan,
        # population, workload) is bit-identical across discovery modes --
        # the ablation compares channels over the *same* world.
        dht_rng = random.Random(master.getrandbits(64))

        plan = AddressPlan(default_isp_profiles(), plan_rng)
        geoip = plan.build_database()
        tracker = Tracker(ANNOUNCE_URL, tracker_rng, config.tracker, metrics=metrics)
        dht: Optional[DhtNetwork] = None
        if config.uses_dht:
            dht = DhtNetwork.build(config.dht, seed, dht_rng, metrics=metrics)
        portal = Portal(
            PortalConfig(
                name=config.portal_name,
                rss_includes_username=config.rss_includes_username,
            ),
            metrics=metrics,
        )
        population = build_population(pop_rng, plan, config.population)
        world = cls(
            config,
            seed,
            plan,
            geoip,
            tracker,
            portal,
            population,
            metrics=metrics,
            dht=dht,
        )
        metrics.gauge("world.agents").set(len(population.agents))
        world._generate(workload_rng)
        metrics.gauge("world.torrents").set(portal.num_items)
        return world

    @property
    def web_directory(self) -> WebDirectory:
        return self.population.web_directory

    def swarm_for(self, torrent_id: int) -> Swarm:
        return self._swarms_by_torrent_id[torrent_id]

    @property
    def num_swarms(self) -> int:
        """Ground-truth swarm count (sweep payloads report it next to the
        measured torrent count)."""
        return len(self._swarms_by_torrent_id)

    # ------------------------------------------------------------------
    # Consumer address pool
    # ------------------------------------------------------------------
    def _consumer_isp_weights(self) -> List[Tuple[str, float]]:
        weights: List[Tuple[str, float]] = []
        for profile in default_isp_profiles():
            if profile.kind is not IspKind.COMMERCIAL_ISP:
                continue
            # Weight consumer traffic by network size (prefix count).
            weights.append((profile.name, float(profile.num_prefixes)))
        return weights

    def _make_consumer_minter(self, rng: random.Random):
        weights = self._consumer_isp_weights()
        names = [name for name, _ in weights]
        cumulative: List[float] = []
        acc = 0.0
        for _, w in weights:
            acc += w
            cumulative.append(acc)
        total = acc

        def mint() -> int:
            u = rng.random() * total
            lo, hi = 0, len(cumulative) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cumulative[mid] < u:
                    lo = mid + 1
                else:
                    hi = mid
            return self.plan.mint_address(rng, names[lo])

        return mint

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _generate(self, rng: random.Random) -> None:
        config = self.config
        window_start, window_end = 0.0, config.window_minutes
        mint_consumer = self._make_consumer_minter(rng)
        forge = self.population.forge

        for agent in self.population.agents:
            self.truth.agent_class[agent.agent_id] = agent.publisher_class

        # Pass 1: plan every publication (so portal inserts are time-ordered).
        planned: List[_PlannedPublication] = []
        schedules: Dict[int, List[Tuple[float, float]]] = {}
        throwaway_state: Dict[int, Tuple[str, int]] = {}
        for agent in self.population.agents:
            times = publication_times(rng, agent, window_start, window_end)
            if agent.profile.keepalive_seeding:
                schedules[agent.agent_id] = online_schedule(
                    rng, agent, window_start, config.horizon_minutes
                )
            for t in times:
                planned.append(_PlannedPublication(time=t, agent=agent, username=""))
        planned.sort(key=lambda p: p.time)

        # Pass 2: realise each publication against the portal/tracker.
        pending_consumption: List[Tuple[PublisherAgent, int]] = []
        swarm_records: List[Tuple[int, Swarm]] = []
        for item in planned:
            agent = item.agent
            username = self._username_for(
                rng, agent, item.time, forge, throwaway_state
            )
            if username is None:
                continue  # every candidate account banned; publication lost
            self._publish_one(
                rng, agent, username, item.time, mint_consumer, swarm_records
            )

        # Pass 3: consumption -- publishers downloading others' content.
        all_torrent_ids = [tid for tid, _ in swarm_records]
        if all_torrent_ids:
            for agent in self.population.agents:
                if agent.consumption_mean <= 0:
                    continue
                if agent.ip_policy in (
                    IpPolicy.SINGLE_HOSTING,
                    IpPolicy.MULTI_HOSTING,
                ):
                    # Rented servers publish, they do not consume -- the
                    # paper saw no hosting-provider IPs among downloaders.
                    continue
                count = poisson(rng, agent.consumption_mean)
                for _ in range(count):
                    tid = rng.choice(all_torrent_ids)
                    pending_consumption.append((agent, tid))
        own_torrents: Dict[int, set] = {}
        truth_by_tid = {t.torrent_id: t for t in self.truth.torrents}
        for t in self.truth.torrents:
            own_torrents.setdefault(t.agent_id, set()).add(t.torrent_id)
        for agent, tid in pending_consumption:
            if tid in own_torrents.get(agent.agent_id, ()):
                continue  # nobody downloads their own upload
            self._inject_consumption(rng, agent, truth_by_tid[tid])

        # Pass 4: freeze every swarm, register with the tracker and install
        # each session's announce interval on the DHT's responsible nodes.
        for _tid, swarm in swarm_records:
            swarm.freeze()
            if config.tracker_enabled:
                self.tracker.register_swarm(swarm)
            if self.dht is not None:
                self._announce_swarm_to_dht(swarm)

    def _announce_swarm_to_dht(self, swarm: Swarm) -> None:
        """Mirror swarm churn into the DHT: every peer session announces at
        join and re-announces until it leaves (modelled as one interval
        extended by the nodes' announce TTL, as real stores age out)."""
        assert self.dht is not None
        ttl = self.dht.config.announce_ttl_minutes
        for session in swarm.all_sessions:
            self.dht.announce_session(
                swarm.infohash,
                ip=session.ip,
                port=peer_port_for_ip(session.ip),
                start=session.join_time,
                end=session.leave_time + ttl,
                seed_from=session.complete_time,
            )

    def _username_for(
        self,
        rng: random.Random,
        agent: PublisherAgent,
        time: float,
        forge: NameForge,
        throwaway_state: Dict[int, Tuple[str, int]],
    ) -> Optional[str]:
        """Pick the account this publication appears under.

        Fake entities rotate hacked and throwaway accounts (Section 3.3);
        everyone else uses their own account.  Returns None when the chosen
        account was banned and no replacement is possible.
        """
        if not agent.profile.uses_throwaway_usernames:
            account = self.portal.accounts.get(agent.username)
            if account is not None and account.banned and account.ban_time is not None \
                    and time >= account.ban_time:
                return None  # hacked victim: account gone
            return agent.username

        # Hacked account, if any is still alive.
        if agent.hacked_usernames and rng.random() < agent.profile.hacked_username_probability:
            candidates = list(agent.hacked_usernames)
            rng.shuffle(candidates)
            for username in candidates:
                account = self.portal.accounts.get(username)
                if account is None:
                    continue  # victim has not published yet; skip
                if account.banned and account.ban_time is not None and time >= account.ban_time:
                    continue
                return username

        # Throwaway account, reused a couple of times then rotated.
        current = throwaway_state.get(agent.agent_id)
        if current is not None:
            username, remaining = current
            account = self.portal.accounts.get(username)
            alive = not (
                account is not None
                and account.banned
                and account.ban_time is not None
                and time >= account.ban_time
            )
            if remaining > 0 and alive:
                throwaway_state[agent.agent_id] = (username, remaining - 1)
                return username
        username = forge.throwaway_username()
        throwaway_state[agent.agent_id] = (username, rng.randrange(1, 6))
        return username

    def _publish_one(
        self,
        rng: random.Random,
        agent: PublisherAgent,
        username: str,
        publish_time: float,
        mint_consumer,
        swarm_records: List[Tuple[int, Swarm]],
    ) -> None:
        config = self.config
        profile = agent.profile
        is_fake = agent.is_fake
        category = pick_category(rng, agent)
        size = content_size_bytes(rng, category)
        title = self.population.forge.title(category, catchy=is_fake)

        # Promo placements (profit-driven publishers only).
        bundled: Tuple[str, ...] = ()
        description = self.population.forge.plain_textbox(
            extensive=agent.publisher_class is PublisherClass.TOP_ALTRUISTIC
        )
        if agent.website is not None:
            domain = agent.website.url
            if PromoPlacement.FILENAME in agent.promo_placements:
                title = NameForge.title_with_promo(title, domain)
            if PromoPlacement.TEXTBOX in agent.promo_placements:
                description = NameForge.textbox_with_promo(description, domain)
            if PromoPlacement.BUNDLED_FILE in agent.promo_placements:
                bundled = (NameForge.bundled_promo_filename(domain),)
        if agent.publisher_class is PublisherClass.TOP_ALTRUISTIC:
            description += "\nPlease help seeding after you finish!"

        extra_files = [TorrentFile(path=name, length=1_000) for name in bundled]
        torrent_bytes = build_torrent(
            announce=ANNOUNCE_URL,
            name=title,
            total_length=size,
            extra_files=extra_files or None,
        )
        meta = parse_torrent(torrent_bytes)

        payload_kind = "content"
        if is_fake:
            payload_kind = (
                "antipiracy-decoy"
                if agent.publisher_class is PublisherClass.FAKE_ANTIPIRACY
                else "malware-pointer"
            )

        # DHT-era portals carry magnet links next to (or instead of) the
        # .torrent download; trackerless magnets advertise no tracker URL.
        magnet_uri: Optional[str] = None
        if config.uses_dht or config.magnet_only:
            magnet_uri = build_magnet(
                meta.infohash,
                name=title,
                trackers=(ANNOUNCE_URL,) if config.tracker_enabled else (),
                length=size,
            )

        torrent_id = self.portal.publish(
            time=publish_time,
            title=title,
            category=category,
            size_bytes=size,
            username=username,
            description=description,
            torrent_bytes=torrent_bytes,
            is_fake=is_fake,
            payload_kind=payload_kind,
            bundled_file_names=bundled,
            account_created_time=self._account_created_time(agent),
            magnet_uri=magnet_uri,
            magnet_only=config.magnet_only,
        )
        self._seed_account_history(agent, username)

        # Moderation: fake content is detected and removed after a delay.
        removal_time: Optional[float] = None
        if is_fake:
            delay = rng.expovariate(1.0 / (config.fake_detection_mean_days * DAY))
            removal_time = publish_time + max(delay, 0.5 * HOUR)
            self.portal.schedule_removal(torrent_id, removal_time)
            self.portal.ban_account(username, removal_time)

        # Swarm birth: pre-published torrents already lived elsewhere.
        prepublished = (not is_fake) and rng.random() < config.prepublished_fraction
        birth = publish_time
        if prepublished:
            birth = publish_time - rng.uniform(3 * HOUR, 2 * DAY)

        swarm = Swarm(infohash=meta.infohash, birth_time=birth, metrics=self.metrics)

        # Publisher seeding sessions.
        seederless = rng.random() < NO_SEEDER_FRACTION
        publisher_ips: List[int] = []
        if not seederless:
            if profile.keepalive_seeding:
                schedule = self._keepalive_schedule(agent)
            else:
                schedule = []
            sessions = seeding_sessions(rng, agent, birth, schedule)
            stealth = rng.random() < profile.stealth_leecher_fraction
            for ip, start, end in sessions:
                publisher_ips.append(ip)
                swarm.add_session(
                    PeerSession(
                        ip=ip,
                        join_time=start,
                        leave_time=end,
                        # A stealth decoy announces as a leecher forever, so
                        # the tracker never reports a seeder for the swarm.
                        complete_time=None if stealth else start,
                        natted=agent.natted,
                        is_publisher=True,
                        # Decoys/malware wrappers do not contain the real
                        # content: the bytes they serve fail the hash check.
                        serves_garbage=is_fake,
                    )
                )

        # Downloaders.
        popularity_median = profile.popularity_median * config.popularity_scale
        total = int(
            rng.lognormvariate(0.0, profile.popularity_sigma) * popularity_median
        )
        behavior = DownloaderBehavior(
            mean_download_minutes=self._download_minutes(size),
            fake_content=is_fake,
        )
        downloader_sessions = generate_downloader_sessions(
            rng,
            birth_time=birth,
            popularity=PopularityModel(
                total_downloads=total,
                decay_tau=profile.arrival_tau_days * DAY,
                cutoff=removal_time,
            ),
            behavior=behavior,
            mint_ip=mint_consumer,
            metrics=self.metrics,
        )
        swarm.add_sessions(downloader_sessions)

        self._swarms_by_torrent_id[torrent_id] = swarm
        swarm_records.append((torrent_id, swarm))
        self.truth.torrents.append(
            TorrentTruth(
                torrent_id=torrent_id,
                infohash=meta.infohash,
                agent_id=agent.agent_id,
                publisher_class=agent.publisher_class,
                username=username,
                category=category,
                is_fake=is_fake,
                publish_time=publish_time,
                removal_time=removal_time,
                publisher_ips=tuple(publisher_ips),
                generated_downloads=len(downloader_sessions),
                prepublished=prepublished,
                seederless_at_birth=seederless,
            )
        )
        self.truth.username_to_agent.setdefault(username, agent.agent_id)

    def _download_minutes(self, size_bytes: int) -> float:
        """Expected download duration from content size and 2010-era rates."""
        rate_bytes_per_minute = PEER_DOWNLOAD_RATE_KBS * 1000.0 * 60.0
        return min(max(size_bytes / rate_bytes_per_minute, 10.0), 3000.0)

    def _account_created_time(self, agent: PublisherAgent) -> float:
        return -agent.account_age_days * DAY

    def _seed_account_history(self, agent: PublisherAgent, username: str) -> None:
        """Give long-lived accounts their pre-window publication history."""
        if username != agent.username:
            return  # throwaway / hacked accounts carry no synthetic history
        account = self.portal.accounts.get(username)
        if account is None or account.historical_count:
            return
        first = self._account_created_time(agent)
        historical = int(agent.rate_per_day * agent.account_age_days)
        if agent.publisher_class is PublisherClass.REGULAR:
            historical = min(historical, 5)
        account.seed_history(first_time=first, count=historical)

    def _keepalive_schedule(self, agent: PublisherAgent) -> List[Tuple[float, float]]:
        schedule = self._keepalive_cache.get(agent.agent_id)
        if schedule is None:
            schedule_rng = random.Random(
                int.from_bytes(
                    hashlib.sha256(
                        f"keepalive|{self.seed}|{agent.agent_id}".encode()
                    ).digest()[:8],
                    "big",
                )
            )
            schedule = online_schedule(
                schedule_rng, agent, -DAY, self.config.horizon_minutes + DAY
            )
            self._keepalive_cache[agent.agent_id] = schedule
        return schedule

    def _inject_consumption(
        self, rng: random.Random, agent: PublisherAgent, truth: TorrentTruth
    ) -> None:
        """Add a downloader session from one of the agent's own IPs."""
        swarm = self._swarms_by_torrent_id[truth.torrent_id]
        join = truth.publish_time + rng.expovariate(1.0 / (2.0 * DAY))
        if truth.removal_time is not None and join > truth.removal_time:
            return  # content was gone before this user looked for it
        page = self.portal.content_page(truth.torrent_id, truth.publish_time)
        size = page.size_bytes if page else 500_000_000
        duration = max(rng.expovariate(1.0 / self._download_minutes(size)), 2.0)
        complete: Optional[float] = join + duration
        leave = complete + rng.uniform(1.0, 240.0)
        if truth.is_fake:
            complete = None
            leave = join + rng.uniform(5.0, 60.0)
        swarm.add_session(
            PeerSession(
                ip=agent.pick_ip(rng),
                join_time=join,
                leave_time=leave,
                complete_time=complete,
                natted=agent.natted,
            )
        )

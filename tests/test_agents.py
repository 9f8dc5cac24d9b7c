"""Unit tests for naming, profiles, population and behaviour."""

import random

import pytest

from repro.agents import (
    IpPolicy,
    NameForge,
    PopulationConfig,
    PublisherClass,
    build_population,
    default_profiles,
)
from repro.agents.behavior import (
    content_size_bytes,
    online_schedule,
    pick_category,
    publication_times,
    seeding_sessions,
)
from repro.agents.naming import extract_urls, looks_random_username
from repro.geoip import AddressPlan, default_isp_profiles
from repro.portal.categories import Category
from repro.simulation.clock import DAY


def agents_of_class(population, cls):
    return [a for a in population.agents if a.publisher_class is cls]


def fake_agents(population):
    return [a for a in population.agents if a.is_fake]


def top_agents(population):
    return [a for a in population.agents if a.is_top]


@pytest.fixture(scope="module")
def plan():
    return AddressPlan(default_isp_profiles(), random.Random(11))


@pytest.fixture(scope="module")
def population(plan):
    return build_population(
        random.Random(12),
        plan,
        PopulationConfig(
            num_regular=60,
            num_bt_portal=3,
            num_web_promoter=3,
            num_altruistic_top=3,
            num_fake_antipiracy=1,
            num_fake_malware=1,
        ),
    )


class TestNameForge:
    def test_usernames_unique(self):
        forge = NameForge(random.Random(1))
        names = [forge.scene_username() for _ in range(200)]
        names += [forge.throwaway_username() for _ in range(200)]
        names += [forge.casual_username() for _ in range(200)]
        assert len(set(names)) == len(names)

    def test_domains_unique(self):
        forge = NameForge(random.Random(2))
        domains = [forge.domain() for _ in range(100)]
        assert len(set(domains)) == len(domains)
        assert all("." in d for d in domains)

    def test_username_from_domain(self):
        forge = NameForge(random.Random(3))
        assert forge.username_from_domain("ultratorrents.com") == "Ultratorrents"

    def test_titles_unique_and_nonempty(self):
        forge = NameForge(random.Random(4))
        titles = [forge.title(c) for c in Category for _ in range(20)]
        assert len(set(titles)) == len(titles)
        assert all(titles)

    def test_looks_random_username(self):
        forge = NameForge(random.Random(5))
        throwaways = [forge.throwaway_username() for _ in range(100)]
        hits = sum(1 for u in throwaways if looks_random_username(u))
        assert hits > 30  # heuristic catches a decent share
        assert not looks_random_username("UltraTorrents")
        assert not looks_random_username("maria1985")


class TestUrlExtraction:
    def test_textbox_url(self):
        urls = extract_urls("great stuff\nVisit http://www.divxatope.com now!")
        assert "divxatope.com" in urls[0]

    def test_filename_bracket_pattern(self):
        assert extract_urls("Movie.2010.DVDRip[divxatope.com]") == ["divxatope.com"]

    def test_bundled_file_pattern(self):
        assert extract_urls("Downloaded_From_megabay.net.txt") == ["megabay.net"]

    def test_promo_helpers_are_extractable(self):
        title = NameForge.title_with_promo("A.Release", "promo.org")
        assert extract_urls(title) == ["promo.org"]
        box = NameForge.textbox_with_promo("hello", "promo.org")
        assert any("promo.org" in u for u in extract_urls(box))
        bundled = NameForge.bundled_promo_filename("promo.org")
        assert extract_urls(bundled) == ["promo.org"]

    def test_no_false_positive_on_plain_text(self):
        assert extract_urls("Just a plain release [2010] (READNFO)") == []


class TestProfiles:
    def test_all_classes_present(self):
        profiles = default_profiles()
        assert set(profiles) == set(PublisherClass)

    def test_fake_profiles_are_keepalive_stealthy(self):
        profiles = default_profiles()
        for cls in (PublisherClass.FAKE_ANTIPIRACY, PublisherClass.FAKE_MALWARE):
            assert profiles[cls].keepalive_seeding
            assert profiles[cls].uses_throwaway_usernames
            assert profiles[cls].stealth_leecher_fraction > 0

    def test_top_more_popular_than_regular(self):
        profiles = default_profiles()
        assert (
            profiles[PublisherClass.TOP_BT_PORTAL].popularity_median
            > profiles[PublisherClass.REGULAR].popularity_median
        )

    def test_validation(self):
        from repro.agents.profiles import BehaviorProfile

        with pytest.raises(ValueError):
            BehaviorProfile(
                publisher_class=PublisherClass.REGULAR,
                publish_rate_per_day=(0.0, 0.0),
                category_weights={Category.MOVIES: 1.0},
            )
        with pytest.raises(ValueError):
            BehaviorProfile(
                publisher_class=PublisherClass.REGULAR,
                publish_rate_per_day=(0.1, 0.2),
                category_weights={},
            )


class TestPopulation:
    def test_counts(self, population):
        config = population.config
        assert len(agents_of_class(population, PublisherClass.REGULAR)) == config.num_regular
        assert len(fake_agents(population)) == config.total_fake
        assert len(top_agents(population)) == (
            config.num_bt_portal + config.num_web_promoter + config.num_altruistic_top
        )

    def test_usernames_unique(self, population):
        names = [a.username for a in population.agents]
        assert len(set(names)) == len(names)

    def test_fake_agents_at_fake_hosting(self, population):
        from repro.geoip.isps import FAKE_PUBLISHER_HOSTS

        for agent in fake_agents(population):
            assert agent.isps[0] in FAKE_PUBLISHER_HOSTS
            assert len(agent.ips) >= 8
            assert not agent.natted

    def test_fake_agents_have_hacked_usernames(self, population):
        regular_names = {
            a.username for a in agents_of_class(population, PublisherClass.REGULAR)
        }
        for agent in fake_agents(population):
            assert agent.hacked_usernames
            assert set(agent.hacked_usernames) <= regular_names

    def test_hacked_pools_disjoint(self, population):
        seen = set()
        for agent in fake_agents(population):
            assert not (seen & set(agent.hacked_usernames))
            seen |= set(agent.hacked_usernames)

    def test_profit_driven_have_websites_and_promos(self, population):
        for cls in (PublisherClass.TOP_BT_PORTAL, PublisherClass.TOP_WEB_PROMOTER):
            for agent in agents_of_class(population, cls):
                assert agent.website is not None
                assert agent.promo_placements
                assert population.web_directory.lookup(agent.website.url)

    def test_altruistic_have_no_website(self, population):
        for agent in agents_of_class(population, PublisherClass.TOP_ALTRUISTIC):
            assert agent.website is None
            assert not agent.promo_placements

    def test_regulars_on_commercial_isps(self, population, plan):
        from repro.geoip import IspKind

        db = plan.build_database()
        for agent in agents_of_class(population, PublisherClass.REGULAR):
            for ip in agent.ips:
                assert db.lookup(ip).kind is IspKind.COMMERCIAL_ISP

    def test_scaled_config(self):
        config = PopulationConfig().scaled(0.5)
        assert config.num_regular == 250
        assert config.num_bt_portal >= 1
        with pytest.raises(ValueError):
            PopulationConfig().scaled(0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PopulationConfig(num_regular=-1)
        with pytest.raises(ValueError):
            PopulationConfig(num_regular=5, num_fake_antipiracy=1)


class TestBehavior:
    def _agent(self, population, cls):
        return agents_of_class(population, cls)[0]

    def test_publication_times_within_window(self, population):
        rng = random.Random(20)
        for agent in population.agents[:30]:
            times = publication_times(rng, agent, 0.0, 10 * DAY)
            assert all(0.0 <= t < 10 * DAY for t in times)
            assert times == sorted(times)

    def test_regular_publishes_at_least_once(self, population):
        rng = random.Random(21)
        agent = self._agent(population, PublisherClass.REGULAR)
        assert len(publication_times(rng, agent, 0.0, 5 * DAY)) >= 1

    def test_fake_publishes_much_more(self, population):
        rng = random.Random(22)
        fake = fake_agents(population)[0]
        regular = self._agent(population, PublisherClass.REGULAR)
        fake_count = len(publication_times(rng, fake, 0.0, 10 * DAY))
        regular_count = len(publication_times(rng, regular, 0.0, 10 * DAY))
        assert fake_count > 10 * regular_count

    def test_online_schedule_covers_range(self, population):
        rng = random.Random(23)
        fake = fake_agents(population)[0]
        blocks = online_schedule(rng, fake, 0.0, 20 * DAY)
        assert blocks[0][0] == 0.0
        assert all(end > start for start, end in blocks)
        online = sum(end - start for start, end in blocks)
        # Fake publishers are online most of the time (60h blocks, 2h gaps).
        assert online / (20 * DAY) > 0.8

    def test_keepalive_seeding_spans_abandon_window(self, population):
        rng = random.Random(24)
        fake = fake_agents(population)[0]
        schedule = online_schedule(rng, fake, 0.0, 30 * DAY)
        sessions = seeding_sessions(rng, fake, 5 * DAY, schedule)
        assert sessions
        lo, hi = fake.profile.abandon_after_days
        last_end = max(end for _, _, end in sessions)
        assert 5 * DAY + lo * DAY * 0.5 <= last_end <= 5 * DAY + hi * DAY + DAY

    def test_budgeted_seeding_starts_at_publish(self, population):
        rng = random.Random(25)
        agent = self._agent(population, PublisherClass.TOP_BT_PORTAL)
        sessions = seeding_sessions(rng, agent, 100.0, [])
        assert sessions[0][1] == 100.0
        assert all(end > start for _, start, end in sessions)
        assert all(ip in agent.ips for ip, _, _ in sessions)

    def test_hosting_seeds_longer_than_commercial(self, population):
        rng = random.Random(26)
        hosted = [
            a for a in top_agents(population)
            if a.ip_policy in (IpPolicy.SINGLE_HOSTING, IpPolicy.MULTI_HOSTING)
        ]
        commercial = [
            a for a in top_agents(population)
            if a.ip_policy not in (IpPolicy.SINGLE_HOSTING, IpPolicy.MULTI_HOSTING)
        ]
        if not hosted or not commercial:
            pytest.skip("population draw lacks one side")

        def total(agent):
            return sum(
                end - start
                for _, start, end in seeding_sessions(rng, agent, 0.0, [])
            )

        hosted_avg = sum(total(a) for a in hosted for _ in range(5)) / (5 * len(hosted))
        commercial_avg = sum(
            total(a) for a in commercial for _ in range(5)
        ) / (5 * len(commercial))
        assert hosted_avg > commercial_avg

    def test_content_sizes_plausible(self):
        rng = random.Random(27)
        for category in Category:
            for _ in range(10):
                size = content_size_bytes(rng, category)
                assert size >= 1_000_000

    def test_pick_category_respects_weights(self, population):
        rng = random.Random(28)
        agent = self._agent(population, PublisherClass.TOP_WEB_PROMOTER)
        draws = [pick_category(rng, agent) for _ in range(300)]
        # Web promoters publish mostly porn (profile weight 0.70).
        assert draws.count(Category.PORN) > 150


class TestQuotaChooser:
    def test_tracks_weights(self):
        from repro.agents.population import _QuotaChooser

        chooser = _QuotaChooser([("a", 0.6), ("b", 0.3), ("c", 0.1)])
        draws = [chooser.pick() for _ in range(100)]
        assert abs(draws.count("a") - 60) <= 1
        assert abs(draws.count("b") - 30) <= 1
        assert abs(draws.count("c") - 10) <= 1

    def test_dominant_choice_first(self):
        from repro.agents.population import _QuotaChooser

        chooser = _QuotaChooser([("ovh", 0.55), ("x", 0.45)])
        assert chooser.pick() == "ovh"

    def test_small_samples_respect_majority(self):
        """Even 3 draws give the majority provider at least one slot."""
        from repro.agents.population import _QuotaChooser

        chooser = _QuotaChooser([("ovh", 0.5), ("a", 0.2), ("b", 0.2), ("c", 0.1)])
        draws = [chooser.pick() for _ in range(3)]
        assert "ovh" in draws


class TestDownloadCurve:
    def test_download_curve_present(self):
        """The downloads dimension of Fig 1 is monotone and ends at 100%."""
        # Uses the shared tiny dataset via a local import to avoid fixture
        # plumbing in this module.
        from repro.core.analysis.contribution import analyze_contribution
        from repro.core.collector import run_measurement
        from repro.simulation import tiny_scenario

        dataset = run_measurement(tiny_scenario("curvecheck"), seed=3)
        report = analyze_contribution(dataset, top_k=20)
        shares = [s for _, s in report.download_curve]
        assert shares == sorted(shares)
        assert shares[-1] == pytest.approx(100.0)
        # Downloads concentrate at least as hard as content at the top end.
        content_at_10 = dict(report.curve)[10]
        downloads_at_10 = dict(report.download_curve)[10]
        assert downloads_at_10 > content_at_10 * 0.8

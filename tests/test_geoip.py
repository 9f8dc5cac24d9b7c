"""Unit tests for the synthetic GeoIP substrate."""

import random

import pytest

from repro.geoip import (
    AddressPlan,
    IspKind,
    IspProfile,
    default_isp_profiles,
    format_ip,
    parse_ip,
    prefix_of,
)
from repro.geoip.isps import FAKE_PUBLISHER_HOSTS


class TestIpFormatting:
    def test_roundtrip(self):
        for text in ("0.0.0.0", "192.168.1.1", "255.255.255.255", "8.8.8.8"):
            assert format_ip(parse_ip(text)) == text

    def test_parse_invalid(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", ""):
            with pytest.raises(ValueError):
                parse_ip(bad)

    def test_format_out_of_range(self):
        with pytest.raises(ValueError):
            format_ip(-1)
        with pytest.raises(ValueError):
            format_ip(2**32)

    def test_prefix_of(self):
        assert prefix_of(parse_ip("10.20.30.40")) == (10 << 8) | 20


class TestProfiles:
    def test_default_registry_sane(self):
        profiles = default_isp_profiles()
        names = [p.name for p in profiles]
        assert len(set(names)) == len(names)
        for host in ("OVH", "Comcast") + FAKE_PUBLISHER_HOSTS:
            assert host in names

    def test_structure_hosting_vs_commercial(self):
        """The Table 3 discriminator: hosting = few prefixes & locations."""
        profiles = {p.name: p for p in default_isp_profiles()}
        ovh = profiles["OVH"]
        comcast = profiles["Comcast"]
        assert ovh.kind is IspKind.HOSTING_PROVIDER
        assert comcast.kind is IspKind.COMMERCIAL_ISP
        assert ovh.num_prefixes < 10
        assert len(set(ovh.cities)) <= 3
        assert comcast.num_prefixes > 100
        assert len(set(comcast.cities)) > 25

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            IspProfile("x", IspKind.COMMERCIAL_ISP, "US", 0, ("a",))
        with pytest.raises(ValueError):
            IspProfile("x", IspKind.COMMERCIAL_ISP, "US", 1, ())


class TestAddressPlan:
    def _plan(self, seed=1):
        return AddressPlan(default_isp_profiles(), random.Random(seed))

    def test_minted_addresses_unique(self):
        plan = self._plan()
        rng = random.Random(2)
        addresses = [plan.mint_address(rng, "OVH") for _ in range(5000)]
        assert len(set(addresses)) == len(addresses)

    def test_minted_addresses_resolve_to_isp(self):
        plan = self._plan()
        db = plan.build_database()
        rng = random.Random(3)
        for isp in ("OVH", "Comcast", "tzulo"):
            ip = plan.mint_address(rng, isp)
            record = db.lookup(ip)
            assert record is not None
            assert record.isp == isp

    def test_hosting_flag(self):
        plan = self._plan()
        db = plan.build_database()
        rng = random.Random(4)
        hosting = IspKind.HOSTING_PROVIDER
        assert db.lookup(plan.mint_address(rng, "OVH")).kind is hosting
        assert db.lookup(plan.mint_address(rng, "Comcast")).kind is not hosting

    def test_prefix_pinned_mint(self):
        plan = self._plan()
        rng = random.Random(5)
        prefix = plan.prefixes("Comcast")[0]
        ips = [plan.mint_address(rng, "Comcast", prefix) for _ in range(10)]
        assert all(prefix_of(ip) == prefix for ip in ips)

    def test_unknown_isp_rejected(self):
        plan = self._plan()
        rng = random.Random(6)
        with pytest.raises(KeyError):
            plan.mint_address(rng, "No Such ISP")
        with pytest.raises(KeyError):
            plan.prefixes("No Such ISP")

    def test_foreign_prefix_rejected(self):
        plan = self._plan()
        rng = random.Random(7)
        comcast_prefix = plan.prefixes("Comcast")[0]
        with pytest.raises(ValueError, match="not owned"):
            plan.mint_address(rng, "OVH", comcast_prefix)

    def test_lookup_unknown_space_returns_none(self):
        db = self._plan().build_database()
        assert db.lookup(parse_ip("10.66.0.1")) is None
        assert db.isp_of(parse_ip("10.66.0.1")) is None

    def test_plans_differ_by_seed_but_not_structure(self):
        plan_a = AddressPlan(default_isp_profiles(), random.Random(1))
        plan_b = AddressPlan(default_isp_profiles(), random.Random(2))
        assert set(plan_a.prefixes("OVH")) != set(plan_b.prefixes("OVH"))
        assert len(plan_a.prefixes("OVH")) == len(plan_b.prefixes("OVH"))

    def test_duplicate_profiles_rejected(self):
        profile = default_isp_profiles()[0]
        with pytest.raises(ValueError, match="duplicate"):
            AddressPlan([profile, profile], random.Random(1))

    def test_geo_location_tied_to_prefix(self):
        """All addresses in one /16 share a city (what Table 3 counts)."""
        plan = self._plan()
        db = plan.build_database()
        rng = random.Random(8)
        prefix = plan.prefixes("OVH")[0]
        cities = {
            db.lookup(plan.mint_address(rng, "OVH", prefix)).city
            for _ in range(20)
        }
        assert len(cities) == 1

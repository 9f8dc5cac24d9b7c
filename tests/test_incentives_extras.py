"""Extra incentives-analysis facets: monetization channels, seed-ratio
policies, and feeding the analysis back into the live monitor."""

import random

import pytest

from repro.core.analysis.incentives import classify_top_publishers
from repro.core.analysis.mapping import detect_fake_publishers
from repro.core.monitor import ContentPublishingMonitor
from repro.observability import MetricsRegistry
from repro.simulation import World, tiny_scenario
from repro.simulation.engine import EventScheduler
from repro.websites.model import MonetizationMethod


class TestMonetization:
    def test_channels_reported_for_bt_portals(self, dataset, groups):
        report = classify_top_publishers(dataset, groups)
        if not report.class_members["BT Portals"]:
            pytest.skip("tiny draw produced no classified BT portal")
        fractions = report.monetization_fraction
        # Ads are near-universal; donations and VIP fees common (Section 5.1).
        assert fractions[MonetizationMethod.ADS.value] >= 0.5
        for method in MonetizationMethod:
            assert 0.0 <= fractions[method.value] <= 1.0

    def test_seed_ratio_fraction_bounded(self, dataset, groups):
        report = classify_top_publishers(dataset, groups)
        assert 0.0 <= report.seed_ratio_fraction <= 1.0


class TestAnalysisToMonitorLoop:
    def test_ingest_analysis(self, dataset, groups):
        """Offline analysis results populate the live monitor's database."""
        incentives = classify_top_publishers(dataset, groups)
        _fake_ips, fake_usernames, _ = detect_fake_publishers(dataset)
        world = World.build(tiny_scenario("ingest"), seed=1, metrics=MetricsRegistry())
        monitor = ContentPublishingMonitor(
            world, EventScheduler(metrics=world.metrics), rng=random.Random(0xB17)
        )
        written = monitor.ingest_analysis(incentives, fake_usernames)
        assert written == len(incentives.profit_driven()) + len(fake_usernames)
        for key in incentives.profit_driven():
            row = monitor.store.publisher(key)
            assert row is not None and row.profit_driven
        assert set(monitor.store.fake_usernames()) == set(fake_usernames)

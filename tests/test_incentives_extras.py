"""Extra incentives-analysis facets: monetization channels and seed-ratio
policies."""

import pytest

from repro.core.analysis.incentives import classify_top_publishers
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

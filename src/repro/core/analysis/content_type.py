"""Figure 2: what each publisher group publishes.

The paper plots the break-down of published content by type for the
All/Fake/Top/Top-HP/Top-CI groups of mn08 and pb10: Video dominates
everywhere; fake publishers concentrate on Video + Software; web promoters
on porn; altruistic tops on music/e-books.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.analysis.groups import PublisherGroups
from repro.core.datasets import Dataset
from repro.portal.categories import ALL_COARSE_GROUPS, coarse_group


@dataclass(frozen=True)
class ContentTypeBreakdown:
    """Per-group content-type shares (percentages summing to ~100)."""

    group: str
    num_torrents: int
    shares: Dict[str, float]  # coarse type -> percent

    def share(self, coarse: str) -> float:
        return self.shares.get(coarse, 0.0)

    @property
    def video_share(self) -> float:
        return self.share("Video")


def content_type_breakdown(
    dataset: Dataset, groups: PublisherGroups
) -> Dict[str, ContentTypeBreakdown]:
    """Fig. 2: one breakdown per target group."""
    out: Dict[str, ContentTypeBreakdown] = {}
    for name in groups.group_names:
        counts: Dict[str, int] = {g: 0 for g in ALL_COARSE_GROUPS}
        total = 0
        for key in groups.group(name):
            for record in groups.records_of.get(key, ()):
                counts[coarse_group(record.category)] += 1
                total += 1
        shares = {
            coarse: (100.0 * count / total if total else 0.0)
            for coarse, count in counts.items()
        }
        out[name] = ContentTypeBreakdown(
            group=name, num_torrents=total, shares=shares
        )
    return out

"""Figure 1 + Section 3.1: skewness of publisher contribution.

"Figure 1 depicts the percentage of files that are published by the top x%
of publishers.  We observe that the top 3% of BitTorrent publishers
contribute roughly 40% of published content."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.datasets import Dataset
from repro.stats.summaries import gini, top_share_curve

CURVE_POINTS = (1, 2, 3, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


@dataclass(frozen=True)
class ContributionReport:
    """Fig. 1's curve and the headline skewness numbers for one dataset."""

    dataset_name: str
    keyed_by: str
    num_publishers: int
    curve: Tuple[Tuple[float, float], ...]  # (top x%, % content)
    # Same publishers ranked by content, but weighted by the downloads their
    # torrents attracted (Section 3.1's "downloads" dimension of Fig. 1).
    download_curve: Tuple[Tuple[float, float], ...]
    top3pct_content_share: float
    top_k_content_share: float
    top_k_download_share: float
    top_k: int
    gini_coefficient: float
    top_k_no_download_fraction: float
    top_k_under5_download_fraction: float


def _publisher_contributions(dataset: Dataset) -> Tuple[str, Dict[str, list]]:
    """Prefer usernames; fall back to publisher IPs (mn08)."""
    if dataset.has_usernames():
        return "username", dataset.records_by_username()
    return "ip", {
        f"ip:{ip}": records
        for ip, records in dataset.records_by_publisher_ip().items()
    }


def analyze_contribution(
    dataset: Dataset,
    top_k: int = 100,
) -> ContributionReport:
    keyed_by, by_key = _publisher_contributions(dataset)
    if not by_key:
        raise ValueError(f"dataset {dataset.name!r} has no identified publishers")
    counts = {key: len(records) for key, records in by_key.items()}
    values = list(counts.values())
    curve = tuple(top_share_curve(values, CURVE_POINTS))
    download_weights = [
        sum(r.num_downloaders for r in records) for records in by_key.values()
    ]
    if sum(download_weights) > 0:
        download_curve = tuple(top_share_curve(download_weights, CURVE_POINTS))
    else:
        download_curve = tuple((x, 0.0) for x in CURVE_POINTS)
    total_content = sum(values)
    total_downloads = sum(r.num_downloaders for r in dataset.records.values())

    ranked = sorted(by_key, key=lambda k: counts[k], reverse=True)
    top_keys = ranked[:top_k]
    top_content = sum(counts[k] for k in top_keys)
    top_downloads = sum(
        r.num_downloaders for k in top_keys for r in by_key[k]
    )

    # Share of the top 3% of publishers (at least one publisher).
    k3 = max(1, round(len(ranked) * 0.03))
    top3_content = sum(counts[k] for k in ranked[:k3])

    # Consumption of the top-K publishers: how many *other* torrents do
    # their identified IPs appear in as downloaders?  (Section 3.1's "40%
    # of top publishers do not download any content".)
    top_ips = set()
    for key in top_keys:
        for record in by_key[key]:
            if record.publisher_ip is not None:
                top_ips.add(record.publisher_ip)
    consumed: Dict[int, int] = {ip: 0 for ip in top_ips}
    if top_ips:
        for record in dataset.records.values():
            overlap = top_ips & record.downloader_ips
            for ip in overlap:
                consumed[ip] += 1
    no_download = (
        sum(1 for ip in top_ips if consumed[ip] == 0) / len(top_ips)
        if top_ips
        else 0.0
    )
    under5 = (
        sum(1 for ip in top_ips if consumed[ip] < 5) / len(top_ips)
        if top_ips
        else 0.0
    )

    return ContributionReport(
        dataset_name=dataset.name,
        keyed_by=keyed_by,
        num_publishers=len(by_key),
        curve=curve,
        download_curve=download_curve,
        top3pct_content_share=top3_content / total_content,
        top_k_content_share=top_content / total_content,
        top_k_download_share=(
            top_downloads / total_downloads if total_downloads else 0.0
        ),
        top_k=len(top_keys),
        gini_coefficient=gini(values),
        top_k_no_download_fraction=no_download,
        top_k_under5_download_fraction=under5,
    )

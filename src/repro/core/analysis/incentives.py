"""Section 5: why do major publishers publish?  Business classification.

For each Top publisher, emulate the authors' investigation:

1. **Promoting URL** -- inspect a few of its torrents for the three
   placements: release-name suffix, content-page textbox, bundled file name.
2. **Username** -- check for username/domain similarity (``UltraTorrents``
   vs ``ultratorrents.com``).
3. **Business profile** -- resolve the URL in the web directory: a private
   BitTorrent portal, or some other site (image hosting, forum, ...), and
   how it monetizes (ads / donations / VIP, validated via the HTTP-header
   third-party technique).

Publishers promoting a BT portal form the *BT Portals* class; other-URL
publishers the *Other Web sites* class; URL-less ones are *Altruistic*.
Table 4's longitudinal view (lifetime, publishing rate) comes from the
portal's user pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.agents.naming import extract_urls
from repro.core.analysis.groups import PublisherGroups, content_of, downloads_of
from repro.core.datasets import Dataset, TorrentRecord
from repro.stats.summaries import MinAvgMax, min_avg_max
from repro.websites.model import BusinessType, Website

PUBLISHER_CLASS_NAMES = ("BT Portals", "Other Web sites", "Altruistic Publishers")

# How many of a publisher's torrents the analyst inspects by hand.
SAMPLE_TORRENTS_PER_PUBLISHER = 5
# rng seed of check_regular_publishers' sample of non-top publishers.
REGULAR_CHECK_SEED = 97


@dataclass(frozen=True)
class PromoEvidence:
    """Where (if anywhere) a publisher plants its URL."""

    urls: Tuple[str, ...]
    in_textbox: bool
    in_filename: bool
    in_bundled_file: bool
    username_matches_domain: bool

    @property
    def any_promotion(self) -> bool:
        return bool(self.urls)


@dataclass
class ClassifiedPublisher:
    key: str
    publisher_class: str  # one of PUBLISHER_CLASS_NAMES
    evidence: PromoEvidence
    website: Optional[Website] = None
    lifetime_days: Optional[float] = None
    publishing_rate_per_day: Optional[float] = None


@dataclass
class IncentivesReport:
    """Section 5.1 + Table 4 for one dataset."""

    publishers: Dict[str, ClassifiedPublisher] = field(default_factory=dict)
    class_members: Dict[str, List[str]] = field(default_factory=dict)
    class_top_fraction: Dict[str, float] = field(default_factory=dict)
    class_content_share: Dict[str, float] = field(default_factory=dict)
    class_download_share: Dict[str, float] = field(default_factory=dict)
    textbox_fraction: Dict[str, float] = field(default_factory=dict)
    # How the BT Portals class monetizes (Section 5.1's three channels).
    monetization_fraction: Dict[str, float] = field(default_factory=dict)
    seed_ratio_fraction: float = 0.0  # BT portals enforcing a seeding ratio
    language_specific_fraction: float = 0.0
    spanish_fraction_of_language_specific: float = 0.0
    lifetime_days_summary: Dict[str, MinAvgMax] = field(default_factory=dict)
    publishing_rate_summary: Dict[str, MinAvgMax] = field(default_factory=dict)
    regular_with_promotion: int = 0

    def profit_driven(self) -> List[str]:
        return (
            self.class_members.get("BT Portals", [])
            + self.class_members.get("Other Web sites", [])
        )


def _inspect_torrent(
    dataset: Dataset, record: TorrentRecord
) -> Tuple[Set[str], bool, bool, bool]:
    """Emulate downloading one torrent and looking for promo URLs."""
    urls: Set[str] = set()
    in_textbox = in_filename = in_bundled = False
    for url in extract_urls(record.title):
        urls.add(url)
        in_filename = True
    page = dataset.portal.content_page(record.torrent_id, dataset.analysis_time)
    if page is not None:
        for url in extract_urls(page.description):
            urls.add(url)
            in_textbox = True
    for name in record.bundled_files:
        for url in extract_urls(name):
            urls.add(url)
            in_bundled = True
    return urls, in_textbox, in_filename, in_bundled


def gather_evidence(
    dataset: Dataset,
    groups: PublisherGroups,
    key: str,
    sample: int = SAMPLE_TORRENTS_PER_PUBLISHER,
) -> PromoEvidence:
    """Inspect a few of the publisher's torrents for promotion."""
    records = groups.records_of.get(key, [])
    # Deterministic "random" sample: spread over the publisher's uploads.
    if len(records) > sample:
        step = len(records) // sample
        inspected = records[::step][:sample]
    else:
        inspected = records
    urls: Set[str] = set()
    in_textbox = in_filename = in_bundled = False
    for record in inspected:
        u, tb, fn, bf = _inspect_torrent(dataset, record)
        urls |= u
        in_textbox |= tb
        in_filename |= fn
        in_bundled |= bf
    username_match = False
    for url in urls:
        stem = url.split("//")[-1].lstrip("www.").split(".")[0]
        if stem and stem.lower() == key.lower():
            username_match = True
    return PromoEvidence(
        urls=tuple(sorted(urls)),
        in_textbox=in_textbox,
        in_filename=in_filename,
        in_bundled_file=in_bundled,
        username_matches_domain=username_match,
    )


def _classify(dataset: Dataset, evidence: PromoEvidence) -> Tuple[str, Optional[Website]]:
    for url in evidence.urls:
        site = dataset.web_directory.lookup(url)
        if site is None:
            continue
        if site.business_type is BusinessType.BT_PORTAL:
            return "BT Portals", site
        return "Other Web sites", site
    if evidence.urls:
        # Promotes something the directory cannot resolve; treat as other web.
        return "Other Web sites", None
    return "Altruistic Publishers", None


def classify_top_publishers(
    dataset: Dataset, groups: PublisherGroups
) -> IncentivesReport:
    """Section 5.1's classification plus Table 4's longitudinal metrics."""
    report = IncentivesReport(
        class_members={name: [] for name in PUBLISHER_CLASS_NAMES}
    )
    total_content = dataset.num_torrents
    total_downloads = sum(r.num_downloaders for r in dataset.records.values())

    for key in groups.top:
        evidence = gather_evidence(dataset, groups, key)
        cls, site = _classify(dataset, evidence)
        publisher = ClassifiedPublisher(
            key=key, publisher_class=cls, evidence=evidence, website=site
        )
        if groups.keyed_by == "username":
            page = dataset.portal.user_page(key, dataset.analysis_time)
            if page is not None:
                publisher.lifetime_days = page.lifetime_days
                publisher.publishing_rate_per_day = page.publishing_rate_per_day
        report.publishers[key] = publisher
        report.class_members[cls].append(key)

    num_top = len(groups.top)
    for cls in PUBLISHER_CLASS_NAMES:
        members = report.class_members[cls]
        report.class_top_fraction[cls] = len(members) / num_top if num_top else 0.0
        content = sum(content_of(groups, k) for k in members)
        downloads = sum(downloads_of(groups, k) for k in members)
        report.class_content_share[cls] = (
            content / total_content if total_content else 0.0
        )
        report.class_download_share[cls] = (
            downloads / total_downloads if total_downloads else 0.0
        )
        promoting = [
            k for k in members if report.publishers[k].evidence.any_promotion
        ]
        report.textbox_fraction[cls] = (
            sum(1 for k in promoting if report.publishers[k].evidence.in_textbox)
            / len(promoting)
            if promoting
            else 0.0
        )
        lifetimes = [
            report.publishers[k].lifetime_days
            for k in members
            if report.publishers[k].lifetime_days is not None
        ]
        rates = [
            report.publishers[k].publishing_rate_per_day
            for k in members
            if report.publishers[k].publishing_rate_per_day is not None
        ]
        if lifetimes:
            report.lifetime_days_summary[cls] = min_avg_max(lifetimes)
        if rates:
            report.publishing_rate_summary[cls] = min_avg_max(rates)

    # Monetization channels of the BT Portals class (Section 5.1: ads,
    # donations, VIP access) and their seeding-ratio policy.
    bt_sites = [
        report.publishers[k].website
        for k in report.class_members["BT Portals"]
        if report.publishers[k].website is not None
    ]
    if bt_sites:
        from repro.websites.model import MonetizationMethod

        for method in MonetizationMethod:
            report.monetization_fraction[method.value] = sum(
                1 for s in bt_sites if method in s.monetization
            ) / len(bt_sites)
        report.seed_ratio_fraction = sum(
            1 for s in bt_sites if s.requires_seed_ratio
        ) / len(bt_sites)
    if bt_sites:
        specific = [s for s in bt_sites if s.content_language != "en"]
        report.language_specific_fraction = len(specific) / len(bt_sites)
        if specific:
            report.spanish_fraction_of_language_specific = sum(
                1 for s in specific if s.content_language == "es"
            ) / len(specific)

    return report


def check_regular_publishers(
    dataset: Dataset,
    groups: PublisherGroups,
    sample_size: int = 100,
) -> int:
    """The paper's sanity check: sampled regular publishers show no promotion.

    Returns how many of ``sample_size`` random non-top publishers promote a
    URL (the paper found none worth reporting).
    """
    import random as _random

    rng = _random.Random(REGULAR_CHECK_SEED)
    top_set = set(groups.top) | set(groups.fake)
    candidates = sorted(k for k in groups.records_of if k not in top_set)
    if len(candidates) > sample_size:
        candidates = rng.sample(candidates, sample_size)
    promoting = 0
    for key in candidates:
        evidence = gather_evidence(dataset, groups, key, sample=2)
        if evidence.any_promotion:
            promoting += 1
    return promoting

"""The publisher target groups every signature figure uses (Section 4).

The paper characterises five groups per dataset:

- **All** -- a random sample of 400 publishers (session analysis is too
  expensive to run on everyone, so the paper samples; we follow suit);
- **Fake** -- all detected fake publishers;
- **Top** -- the top-K (non-fake) usernames by published content;
- **Top-HP / Top-CI** -- Top broken down by whether the publisher operates
  from hosting providers or commercial ISPs.

On the username-less mn08 dataset, groups are keyed by publisher IP instead
(as the paper does), and the fake group is unavailable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.analysis.mapping import MappingReport, analyze_mapping
from repro.core.datasets import Dataset, TorrentRecord, publisher_ips
from repro.geoip import IspKind

ALL_SAMPLE_SIZE = 400


@dataclass
class PublisherGroups:
    """Group membership, keyed by username (or IP string for mn08)."""

    keyed_by: str  # "username" | "ip"
    records_of: Dict[str, List[TorrentRecord]] = field(default_factory=dict)
    all_sample: List[str] = field(default_factory=list)
    fake: List[str] = field(default_factory=list)
    top: List[str] = field(default_factory=list)
    top_hp: List[str] = field(default_factory=list)
    top_ci: List[str] = field(default_factory=list)
    publisher_ips: Dict[str, Set[int]] = field(default_factory=dict)
    # Fake publishers viewed per server IP (the paper's Section 3 exception:
    # fake entities rotate usernames, so the IP is the stable identity; the
    # seeding analysis of Fig. 4 uses this keying for the Fake group).
    fake_ip_keys: List[str] = field(default_factory=list)
    # The Section 3.3 analysis the Fake and Top groups came from (None
    # without usernames).
    mapping: Optional[MappingReport] = None

    def group(self, name: str) -> List[str]:
        try:
            return {
                "All": self.all_sample,
                "Fake": self.fake,
                "Top": self.top,
                "Top-HP": self.top_hp,
                "Top-CI": self.top_ci,
            }[name]
        except KeyError:
            raise KeyError(f"unknown group {name!r}") from None

    @property
    def group_names(self) -> List[str]:
        names = ["All"]
        if self.fake:
            names.append("Fake")
        names.extend(["Top", "Top-HP", "Top-CI"])
        return names


def _split_by_isp_kind(
    dataset: Dataset, keys: List[str], publisher_ips: Dict[str, Set[int]]
) -> "tuple[List[str], List[str]]":
    """Split publishers into hosting-provider vs commercial-ISP residents.

    A publisher counts as hosting-based when the majority of its identified
    IPs resolve to hosting providers (ties go to hosting: a rented server is
    the stronger signal).
    """
    hp: List[str] = []
    ci: List[str] = []
    for key in keys:
        ips = publisher_ips.get(key, set())
        if not ips:
            ci.append(key)
            continue
        hosting = 0
        commercial = 0
        for ip in ips:
            record = dataset.geoip.lookup(ip)
            if record is None:
                continue
            if record.kind is IspKind.HOSTING_PROVIDER:
                hosting += 1
            else:
                commercial += 1
        if hosting >= commercial and hosting > 0:
            hp.append(key)
        else:
            ci.append(key)
    return hp, ci


def identify_groups(
    dataset: Dataset,
    top_k: int = 100,
    sample_size: int = ALL_SAMPLE_SIZE,
    seed: int = 42,
) -> PublisherGroups:
    """Build the All/Fake/Top/Top-HP/Top-CI groups for one dataset."""
    rng = random.Random(seed)
    if dataset.has_usernames():
        by_key = dataset.records_by_username()
        mapping = analyze_mapping(dataset, top_k=top_k)
        groups = PublisherGroups(
            keyed_by="username", records_of=by_key, mapping=mapping
        )
        groups.fake = sorted(mapping.fake_usernames & set(by_key))
        groups.top = list(mapping.top_usernames)
        groups.publisher_ips = {
            key: publisher_ips(records) for key, records in by_key.items()
        }
        # Per-IP view of the fake entities (Section 3's exception).  A fake
        # server reinforces its entity's whole portfolio of fake swarms, so
        # each fake IP's candidate torrents are every torrent published
        # under a detected-fake username; the sightings of that specific IP
        # then select where it actually seeded.
        fake_portfolio = [
            record
            for records in (
                by_key.get(username, ()) for username in mapping.fake_usernames
            )
            for record in records
        ]
        for ip in sorted(mapping.fake_ips):
            key = f"fakeip:{ip}"
            groups.fake_ip_keys.append(key)
            groups.records_of[key] = fake_portfolio
            groups.publisher_ips[key] = {ip}
    else:
        by_ip = dataset.records_by_publisher_ip()
        by_key = {f"ip:{ip}": records for ip, records in by_ip.items()}
        groups = PublisherGroups(keyed_by="ip", records_of=by_key)
        groups.fake = []  # undetectable without usernames (paper, Section 4)
        ranked = sorted(by_key, key=lambda k: len(by_key[k]), reverse=True)
        groups.top = ranked[:top_k]
        groups.publisher_ips = {
            key: {int(key.split(":", 1)[1])} for key in by_key
        }

    population = sorted(
        key for key in groups.records_of if not key.startswith("fakeip:")
    )
    if len(population) <= sample_size:
        groups.all_sample = population
    else:
        groups.all_sample = sorted(rng.sample(population, sample_size))

    groups.top_hp, groups.top_ci = _split_by_isp_kind(
        dataset, groups.top, groups.publisher_ips
    )
    return groups


def downloads_of(groups: PublisherGroups, key: str) -> int:
    return sum(r.num_downloaders for r in groups.records_of.get(key, ()))


def content_of(groups: PublisherGroups, key: str) -> int:
    return len(groups.records_of.get(key, ()))


def group_shares(
    dataset: Dataset, groups: PublisherGroups, name: str
) -> "tuple[float, float]":
    """(content share, download share) of one group within the dataset."""
    total_content = dataset.num_torrents
    total_downloads = sum(r.num_downloaders for r in dataset.records.values())
    keys = groups.group(name)
    content = sum(content_of(groups, k) for k in keys)
    downloads = sum(downloads_of(groups, k) for k in keys)
    return (
        content / total_content if total_content else 0.0,
        downloads / total_downloads if total_downloads else 0.0,
    )

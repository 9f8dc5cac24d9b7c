"""Section 3.3: the fine-grained username <-> IP structure of major publishers.

Two findings are operationalised here:

- **fake-publisher detection**: an IP that publishes under many different
  usernames is a fake-publisher server (hacked + throwaway accounts); a
  username whose account page the portal has removed was banned for
  publishing fake content.  The union of both signals defines the fake set
  (the paper combines exactly these two observations, see footnote 3).
- **the Top set**: the top-K usernames by published content, minus the ones
  flagged fake ("we removed the 16 usernames ... that appeared to be
  compromised").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.agents.naming import looks_random_username
from repro.core.datasets import Dataset, publisher_ips

# An IP used by at least this many distinct usernames is a fake server.
FAKE_IP_USERNAME_THRESHOLD = 3


@dataclass(frozen=True)
class IpMappingStats:
    """Username structure of the top-K publisher IPs."""

    top_k: int
    single_username_fraction: float
    multi_username_ips: Tuple[int, ...]
    usernames_per_multi_ip_avg: float


@dataclass(frozen=True)
class UsernameMappingStats:
    """IP structure of the top-K publisher usernames.

    Multi-IP usernames split three ways, as in Section 3.3: several hosting
    servers (34% in the paper, 5.7 IPs avg), one commercial ISP re-assigning
    the address (24%, 13.8 IPs avg), or several commercial ISPs -- home and
    work machines (16%, 7.7 IPs avg).
    """

    top_k: int
    single_ip_fraction: float
    multi_ip_usernames: int
    ips_per_multi_username_avg: float
    multi_hosting_fraction: float = 0.0
    dynamic_single_isp_fraction: float = 0.0
    multiple_isps_fraction: float = 0.0


@dataclass
class MappingReport:
    """Everything Section 3.3 reports."""

    fake_ips: Set[int] = field(default_factory=set)
    fake_usernames: Set[str] = field(default_factory=set)
    banned_usernames: Set[str] = field(default_factory=set)
    top_usernames: List[str] = field(default_factory=list)
    compromised_in_top: int = 0
    ip_stats: IpMappingStats = None  # type: ignore[assignment]
    username_stats: UsernameMappingStats = None  # type: ignore[assignment]
    fake_content_share: float = 0.0
    fake_download_share: float = 0.0
    fake_username_share: float = 0.0
    top_content_share: float = 0.0
    top_download_share: float = 0.0
    random_looking_fake_fraction: float = 0.0


def detect_fake_publishers(dataset: Dataset) -> Tuple[Set[int], Set[str], Set[str]]:
    """Return (fake IPs, fake usernames, banned usernames).

    Requires usernames in the dataset; on username-less datasets (mn08) the
    paper could not identify fake publishers, and neither can we.
    """
    ip_to_usernames: Dict[int, Set[str]] = {}
    for record in dataset.records.values():
        if record.publisher_ip is not None and record.username is not None:
            ip_to_usernames.setdefault(record.publisher_ip, set()).add(
                record.username
            )
    fake_ips = {
        ip
        for ip, usernames in ip_to_usernames.items()
        if len(usernames) >= FAKE_IP_USERNAME_THRESHOLD
    }
    fake_usernames: Set[str] = set()
    for ip in fake_ips:
        fake_usernames.update(ip_to_usernames[ip])

    # Portal signal: account page removed => the portal banned it for fakes.
    banned: Set[str] = set()
    for username in dataset.records_by_username():
        if dataset.portal.user_page(username, dataset.analysis_time) is None:
            banned.add(username)
    fake_usernames |= banned
    return fake_ips, fake_usernames, banned


def analyze_mapping(dataset: Dataset, top_k: int = 100) -> MappingReport:
    """Full Section 3.3 analysis for one (username-bearing) dataset."""
    if not dataset.has_usernames():
        raise ValueError(
            f"dataset {dataset.name!r} carries no usernames; Section 3.3 "
            "analysis is impossible (the paper hit the same limit on mn08)"
        )
    by_username = dataset.records_by_username()
    by_ip = dataset.records_by_publisher_ip()
    fake_ips, fake_usernames, banned = detect_fake_publishers(dataset)

    report = MappingReport(
        fake_ips=fake_ips, fake_usernames=fake_usernames, banned_usernames=banned
    )

    # --- top-K IPs: how many usernames does each publish under? ---
    top_ips = sorted(by_ip, key=lambda ip: len(by_ip[ip]), reverse=True)[:top_k]
    ip_to_usernames: Dict[int, Set[str]] = {}
    for ip in top_ips:
        usernames = {
            r.username for r in by_ip[ip] if r.username is not None
        }
        ip_to_usernames[ip] = usernames
    multi = [ip for ip in top_ips if len(ip_to_usernames[ip]) > 1]
    single_fraction = (
        (len(top_ips) - len(multi)) / len(top_ips) if top_ips else 0.0
    )
    report.ip_stats = IpMappingStats(
        top_k=len(top_ips),
        single_username_fraction=single_fraction,
        multi_username_ips=tuple(multi),
        usernames_per_multi_ip_avg=(
            sum(len(ip_to_usernames[ip]) for ip in multi) / len(multi)
            if multi
            else 0.0
        ),
    )

    # --- top-K usernames: how many IPs does each publish from? ---
    top_users = sorted(
        by_username, key=lambda u: len(by_username[u]), reverse=True
    )[:top_k]
    user_ips = {u: publisher_ips(by_username[u]) for u in top_users}
    multi_users = [u for u in top_users if len(user_ips[u]) > 1]
    with_any_ip = [u for u in top_users if user_ips[u]]

    # Section 3.3's three multi-IP arrangements, resolved through GeoIP.
    hosting_users = dynamic_users = multi_isp_users = 0
    for username in multi_users:
        kinds = set()
        isps = set()
        for ip in user_ips[username]:
            geo = dataset.geoip.lookup(ip)
            if geo is None:
                continue
            kinds.add(geo.kind)
            isps.add(geo.isp)
        from repro.geoip import IspKind

        if IspKind.HOSTING_PROVIDER in kinds:
            hosting_users += 1
        elif len(isps) == 1:
            dynamic_users += 1
        elif isps:
            multi_isp_users += 1

    def _fraction(count: int) -> float:
        return count / len(multi_users) if multi_users else 0.0

    report.username_stats = UsernameMappingStats(
        top_k=len(top_users),
        single_ip_fraction=(
            sum(1 for u in with_any_ip if len(user_ips[u]) == 1) / len(with_any_ip)
            if with_any_ip
            else 0.0
        ),
        multi_ip_usernames=len(multi_users),
        ips_per_multi_username_avg=(
            sum(len(user_ips[u]) for u in multi_users) / len(multi_users)
            if multi_users
            else 0.0
        ),
        multi_hosting_fraction=_fraction(hosting_users),
        dynamic_single_isp_fraction=_fraction(dynamic_users),
        multiple_isps_fraction=_fraction(multi_isp_users),
    )

    # --- the Top set: top-K usernames minus the compromised/fake ones ---
    report.compromised_in_top = sum(1 for u in top_users if u in fake_usernames)
    report.top_usernames = [u for u in top_users if u not in fake_usernames]

    # --- aggregate shares ---
    total_content = dataset.num_torrents
    total_downloads = sum(r.num_downloaders for r in dataset.records.values())
    fake_content = sum(
        len(records)
        for username, records in by_username.items()
        if username in fake_usernames
    )
    fake_downloads = sum(
        r.num_downloaders
        for username, records in by_username.items()
        if username in fake_usernames
        for r in records
    )
    top_content = sum(len(by_username[u]) for u in report.top_usernames)
    top_downloads = sum(
        r.num_downloaders for u in report.top_usernames for r in by_username[u]
    )
    if total_content:
        report.fake_content_share = fake_content / total_content
        report.top_content_share = top_content / total_content
    if total_downloads:
        report.fake_download_share = fake_downloads / total_downloads
        report.top_download_share = top_downloads / total_downloads
    if by_username:
        report.fake_username_share = len(
            fake_usernames & set(by_username)
        ) / len(by_username)
    if fake_usernames:
        report.random_looking_fake_fraction = sum(
            1 for u in fake_usernames if looks_random_username(u)
        ) / len(fake_usernames)
    return report

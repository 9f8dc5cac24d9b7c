"""Tables 2 and 3: where publishers live, network-wise (Section 3.2).

Table 2 ranks ISPs by the aggregate content their resident publishers fed
into the portal.  Table 3 contrasts the archetypes: OVH (hosting: few /16
prefixes, couple of data-center cities, few heavy publishers) vs Comcast
(commercial: many prefixes, many cities, many light publishers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.datasets import Dataset, publisher_ips
from repro.geoip import IspKind, prefix_of


@dataclass(frozen=True)
class IspRow:
    """One row of Table 2."""

    isp: str
    kind: IspKind
    content_share_pct: float
    num_torrents: int
    num_publisher_ips: int


@dataclass(frozen=True)
class IspTable:
    dataset_name: str
    rows: Tuple[IspRow, ...]
    identified_torrents: int
    hosting_share_of_top_rows: float  # fraction of top-10 rows that are HPs


@dataclass(frozen=True)
class IspContrast:
    """One side of Table 3 (one ISP in one dataset)."""

    isp: str
    fed_torrents: int
    num_ips: int
    num_prefixes: int
    num_locations: int


def isp_ranking(dataset: Dataset, top_n: int = 10) -> IspTable:
    """Table 2: top ISPs by aggregate published content."""
    torrents_per_isp: Dict[str, int] = {}
    ips_per_isp: Dict[str, Set[int]] = {}
    kind_of: Dict[str, IspKind] = {}
    identified = 0
    for record in dataset.records.values():
        ip = record.publisher_ip
        if ip is None:
            continue
        geo = dataset.geoip.lookup(ip)
        if geo is None:
            continue
        identified += 1
        torrents_per_isp[geo.isp] = torrents_per_isp.get(geo.isp, 0) + 1
        ips_per_isp.setdefault(geo.isp, set()).add(ip)
        kind_of[geo.isp] = geo.kind
    ranked = sorted(torrents_per_isp, key=lambda i: torrents_per_isp[i], reverse=True)
    rows = tuple(
        IspRow(
            isp=isp,
            kind=kind_of[isp],
            content_share_pct=100.0 * torrents_per_isp[isp] / identified,
            num_torrents=torrents_per_isp[isp],
            num_publisher_ips=len(ips_per_isp[isp]),
        )
        for isp in ranked[:top_n]
    )
    hosting_rows = sum(1 for row in rows if row.kind is IspKind.HOSTING_PROVIDER)
    return IspTable(
        dataset_name=dataset.name,
        rows=rows,
        identified_torrents=identified,
        hosting_share_of_top_rows=hosting_rows / len(rows) if rows else 0.0,
    )


def isp_contrast(dataset: Dataset, isp: str) -> Optional[IspContrast]:
    """One Table 3 row: publishing footprint of one ISP in one dataset."""
    fed = 0
    ips: Set[int] = set()
    prefixes: Set[int] = set()
    locations: Set[str] = set()
    for record in dataset.records.values():
        ip = record.publisher_ip
        if ip is None:
            continue
        geo = dataset.geoip.lookup(ip)
        if geo is None or geo.isp != isp:
            continue
        fed += 1
        ips.add(ip)
        prefixes.add(prefix_of(ip))
        locations.add(f"{geo.country}/{geo.city}")
    if fed == 0:
        return None
    return IspContrast(
        isp=isp,
        fed_torrents=fed,
        num_ips=len(ips),
        num_prefixes=len(prefixes),
        num_locations=len(locations),
    )


def ovh_vs_comcast(dataset: Dataset) -> Tuple[Optional[IspContrast], Optional[IspContrast]]:
    """The paper's Table 3 pairing."""
    return isp_contrast(dataset, "OVH"), isp_contrast(dataset, "Comcast")


def top_publishers_at_hosting(
    dataset: Dataset, top_k: int = 100
) -> Tuple[float, float]:
    """Section 3.2: fraction of top-K publishers at hosting providers, and at OVH.

    Keyed by username when available, by IP otherwise (mn08), matching the
    paper's handling.
    """
    if dataset.has_usernames():
        by_key = dataset.records_by_username()
        ranked = sorted(by_key, key=lambda k: len(by_key[k]), reverse=True)[:top_k]
        ips_of = {k: publisher_ips(by_key[k]) for k in ranked}
    else:
        by_ip = dataset.records_by_publisher_ip()
        ranked_ips = sorted(by_ip, key=lambda ip: len(by_ip[ip]), reverse=True)[:top_k]
        ranked = [str(ip) for ip in ranked_ips]
        ips_of = {str(ip): {ip} for ip in ranked_ips}
    if not ranked:
        return 0.0, 0.0
    hosting = 0
    at_ovh = 0
    for key in ranked:
        kinds: List[IspKind] = []
        isps: List[str] = []
        for ip in ips_of[key]:
            geo = dataset.geoip.lookup(ip)
            if geo is not None:
                kinds.append(geo.kind)
                isps.append(geo.isp)
        if kinds and kinds.count(IspKind.HOSTING_PROVIDER) * 2 >= len(kinds):
            hosting += 1
            if isps.count("OVH") * 2 >= len(isps):
                at_ovh += 1
    return hosting / len(ranked), at_ovh / len(ranked)

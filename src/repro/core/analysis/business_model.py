"""Figure 5: the business model of content publishing in BitTorrent.

The paper closes Section 6 with a diagram of who pays whom:

- **ad companies** pay profit-driven *publishers' web sites* (and the major
  *portals*) for impressions shown to the downloaders the torrents attract;
- **downloaders** pay some publishers directly (donations, VIP access) and
  supply the attention that ad companies monetise;
- **publishers** pay *hosting providers* for the seedboxes their heavy
  seeding requires.

This module rebuilds that graph from the campaign's own estimates: per-class
website income from the six-monitor panel (Table 5), the hosting bill from
Section 6's server counts, and the monetization-channel mix from Section
5.1.  The result renders as text or Graphviz DOT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.analysis.incentives import IncentivesReport
from repro.core.analysis.income import (
    IncomeReport,
    hosting_provider_income,
)
from repro.core.datasets import Dataset
from repro.geoip import IspKind
from repro.stats.tables import format_number
from repro.websites.model import MonetizationMethod

# Fixed node names of the Figure 5 diagram.
NODE_DOWNLOADERS = "downloaders"
NODE_AD_COMPANIES = "ad companies"
NODE_PUBLISHERS = "profit-driven publishers"
NODE_PORTALS = "major BitTorrent portals"
NODE_HOSTING = "hosting providers"


@dataclass(frozen=True)
class MoneyFlow:
    """One edge of the business-model graph (USD or EUR per day/month)."""

    source: str
    sink: str
    label: str
    amount: float  # estimated USD/day unless noted in the label
    mechanism: str


@dataclass
class BusinessModelGraph:
    """The Figure 5 graph with campaign-derived magnitudes."""

    flows: List[MoneyFlow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def flow_between(self, source: str, sink: str) -> Optional[MoneyFlow]:
        for flow in self.flows:
            if flow.source == source and flow.sink == sink:
                return flow
        return None

    @property
    def nodes(self) -> List[str]:
        seen: List[str] = []
        for flow in self.flows:
            for node in (flow.source, flow.sink):
                if node not in seen:
                    seen.append(node)
        return seen

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        lines = ["Figure 5 analogue -- business model of content publishing"]
        for flow in self.flows:
            lines.append(
                f"  {flow.source} --[{flow.label}: "
                f"{format_number(flow.amount)}]--> {flow.sink}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        lines = ["digraph business_model {", "  rankdir=LR;"]
        for node in self.nodes:
            lines.append(f'  "{node}" [shape=box];')
        for flow in self.flows:
            lines.append(
                f'  "{flow.source}" -> "{flow.sink}" '
                f'[label="{flow.label}\\n{format_number(flow.amount)}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def _estimated_attention_value(income: IncomeReport) -> Tuple[float, float]:
    """(total ad income USD/day, total visits/day) across profit classes."""
    total_income = 0.0
    total_visits = 0.0
    for econ in income.per_class.values():
        total_income += econ.daily_income_usd.mean * econ.num_sites
        total_visits += econ.daily_visits.mean * econ.num_sites
    return total_income, total_visits


def build_business_model(
    dataset: Dataset,
    incentives: IncentivesReport,
    income: IncomeReport,
) -> BusinessModelGraph:
    """Assemble the Figure 5 graph from the campaign's own estimates."""
    graph = BusinessModelGraph()

    ad_income, visits = _estimated_attention_value(income)

    # Downloaders supply attention; ad companies pay the sites for it.
    graph.flows.append(
        MoneyFlow(
            source=NODE_DOWNLOADERS,
            sink=NODE_AD_COMPANIES,
            label="attention (visits/day)",
            amount=visits,
            mechanism="publishers redirect downloaders to their sites",
        )
    )
    graph.flows.append(
        MoneyFlow(
            source=NODE_AD_COMPANIES,
            sink=NODE_PUBLISHERS,
            label="ad revenue $/day",
            amount=ad_income,
            mechanism="ads posted on the promoting web sites",
        )
    )

    # Direct downloader payments (donations / VIP), where the class uses them.
    direct_fraction = sum(
        incentives.monetization_fraction.get(method.value, 0.0)
        for method in (MonetizationMethod.DONATIONS, MonetizationMethod.VIP_ACCESS)
    )
    if direct_fraction > 0:
        graph.flows.append(
            MoneyFlow(
                source=NODE_DOWNLOADERS,
                sink=NODE_PUBLISHERS,
                label="donations + VIP fees $/day (order of magnitude)",
                amount=ad_income * min(1.0, direct_fraction) * 0.25,
                mechanism="private-portal donations and VIP accounts",
            )
        )

    # Publishers rent their seedboxes: sum the monthly bill over every
    # hosting provider observed hosting publishers.
    hosting_total_eur = 0.0
    seen_isps = set()
    for record in dataset.records.values():
        if record.publisher_ip is None:
            continue
        geo = dataset.geoip.lookup(record.publisher_ip)
        if geo is None or geo.kind is not IspKind.HOSTING_PROVIDER:
            continue
        if geo.isp in seen_isps:
            continue
        seen_isps.add(geo.isp)
        estimate = hosting_provider_income(dataset, geo.isp)
        hosting_total_eur += estimate.monthly_income_eur
    graph.flows.append(
        MoneyFlow(
            source=NODE_PUBLISHERS,
            sink=NODE_HOSTING,
            label="server rent EUR/month",
            amount=hosting_total_eur,
            mechanism=f"rented seedboxes at {len(seen_isps)} hosting providers",
        )
    )

    # Ad companies also monetise the portals themselves (the paper notes
    # The Pirate Bay's ~$10M valuation); we report it as a note since the
    # portal is outside the campaign's estimation reach.
    graph.flows.append(
        MoneyFlow(
            source=NODE_AD_COMPANIES,
            sink=NODE_PORTALS,
            label="portal ad revenue (not estimated)",
            amount=0.0,
            mechanism="major portals are themselves ad-funded",
        )
    )
    graph.notes.append(
        "portal-side ad revenue is real but outside the campaign's "
        "estimation reach (the paper cites The Pirate Bay's ~$10M valuation)"
    )
    graph.notes.append(
        f"{len(seen_isps)} hosting providers observed hosting publishers"
    )
    return graph

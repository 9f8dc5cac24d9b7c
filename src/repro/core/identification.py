"""Initial-publisher identification (Section 2 of the paper).

The rule, verbatim from the methodology: on contacting the tracker shortly
after a torrent's birth,

- if there is exactly **one seeder** and the number of participating peers
  is **below 20**, probe the bitfield of every returned peer; the single
  peer holding a complete bitfield is the initial publisher;
- a NATed seeder cannot be probed -> the publisher IP stays unknown;
- more than one seeder, or a large swarm (typically one already published
  on another portal), makes identification unreliable -> give up;
- a tracker that reports no seeder yet is retried for a while
  (footnote 2's "did not report a seeder for a while" case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.datasets import IdentificationOutcome
from repro.peerwire import BitfieldProber
from repro.tracker import AnnounceResponse


@dataclass(frozen=True)
class IdentificationResult:
    outcome: IdentificationOutcome
    publisher_ip: Optional[int] = None


def identify_publisher(
    response: AnnounceResponse,
    prober: BitfieldProber,
    now: float,
    max_probe_peers: int = 20,
) -> IdentificationResult:
    """Apply the paper's identification rule to one tracker response."""
    if response.seeders == 0:
        return IdentificationResult(IdentificationOutcome.NO_SEEDER)
    if response.seeders > 1:
        return IdentificationResult(IdentificationOutcome.MULTIPLE_SEEDERS)
    if response.total_peers >= max_probe_peers:
        return IdentificationResult(IdentificationOutcome.TOO_MANY_PEERS)

    complete_ips = []
    for ip in response.peer_ips:
        result = prober.probe(ip, now)
        if result.is_seeder:
            complete_ips.append(ip)
    if len(complete_ips) == 1:
        return IdentificationResult(
            IdentificationOutcome.IP_IDENTIFIED, publisher_ip=complete_ips[0]
        )
    if not complete_ips:
        # The one reported seeder did not answer the probe: NATed.
        return IdentificationResult(IdentificationOutcome.NAT_UNREACHABLE)
    # More than one complete peer although the tracker reported one seeder:
    # a leecher finished between the announce and our probe.  Unreliable.
    return IdentificationResult(IdentificationOutcome.AMBIGUOUS)

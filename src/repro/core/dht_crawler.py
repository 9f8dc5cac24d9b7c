"""Iterative DHT lookups as a discovery channel for the crawler.

The tracker channel gives the crawler one announce per query; the DHT gives
it an *iterative lookup* (BEP 5): starting from the bootstrap nodes, query
the :data:`ALPHA` closest known-unqueried nodes with ``get_peers``, merge
the closer nodes each response returns, and repeat until no unqueried
candidate is closer than the ``K``-th closest node that has already
responded.  Every
hop is a real KRPC message through :class:`repro.dht.DhtNetwork`, so hop
counts, coverage and failure behaviour are emergent, not scripted.

The result object duck-types :class:`repro.tracker.AnnounceResponse`
(``seeders`` / ``leechers`` / ``total_peers`` / ``peer_ips``), which is what
lets :func:`repro.core.identification.identify_publisher` and the whole
analysis pipeline run unchanged on DHT-observed peers.  The seeder/leecher
split comes from the nodes' simplified BEP 33 scrape counts.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.dht import (
    DhtNetwork,
    KrpcError,
    KrpcResponse,
    decode_message,
    derive_node_id,
    encode_query,
    node_id_to_bytes,
    unpack_compact_nodes,
    unpack_compact_peers,
)
from repro.dht.routing import K
from repro.observability import MetricsRegistry

# The crawler's DHT client lives in its own prefix (10.88.x.x): distinct
# from vantage machines (10.66.x.x) and DHT nodes (10.77.x.x).
CRAWLER_DHT_IP = (10 << 24) | (88 << 16) | 1
CRAWLER_DHT_PORT = 6881

_MAX_ROUNDS = 32
# Queries in flight per lookup round (Kademlia's alpha).
ALPHA = 3
# Simulated round-trip time of one lookup round.
PER_HOP_RTT_MINUTES = 0.02


@dataclass(frozen=True)
class DhtLookupResult:
    """One iterative ``get_peers`` lookup, shaped like a tracker response."""

    infohash: bytes
    peers: Tuple[Tuple[int, int], ...]  # (ip, port)
    seeders: int
    leechers: int
    hops: int  # lookup rounds until convergence
    nodes_queried: int
    nodes_with_values: int
    latency_minutes: float  # simulated: rounds x per-hop RTT

    @property
    def peer_ips(self) -> List[int]:
        return [ip for ip, _port in self.peers]

    @property
    def total_peers(self) -> int:
        # The scrape counts cover the full store; the value list may be a
        # sample.  Report whichever view saw more, as a tracker reply does.
        return max(self.seeders + self.leechers, len(self.peers))

    @property
    def found_peers(self) -> bool:
        return bool(self.peers)


@dataclass
class _Candidate:
    ip: int
    port: int
    node_id: Optional[int] = None  # None until the node responds/is reported
    queried: bool = False
    responded: bool = False


class DhtCrawler:
    """The crawler's DHT client: deterministic iterative lookups."""

    def __init__(
        self,
        network: DhtNetwork,
        rng: random.Random,
        *,
        metrics: MetricsRegistry,
        client_ip: int = CRAWLER_DHT_IP,
    ) -> None:
        self.network = network
        self.rng = rng
        self.client_ip = client_ip
        self.client_id = derive_node_id("repro-dht-crawler", client_ip)
        self._client_id_bytes = node_id_to_bytes(self.client_id)
        self.metrics = metrics
        self._m_lookups = self.metrics.counter("dht.lookups")
        self._m_queries = self.metrics.counter("dht.lookup_queries")
        self._m_hops = self.metrics.histogram("dht.lookup_hops")
        self._m_peers = self.metrics.histogram("dht.lookup_peers")
        self._m_latency = self.metrics.histogram("dht.lookup_latency_minutes")
        self._tid_counter = 0

    def _next_tid(self) -> bytes:
        self._tid_counter += 1
        return struct.pack(">I", self._tid_counter & 0xFFFFFFFF)

    # ------------------------------------------------------------------
    # The iterative lookup
    # ------------------------------------------------------------------
    def lookup(self, infohash: bytes, now: float) -> DhtLookupResult:
        """Resolve ``infohash`` to peers via iterative ``get_peers``."""
        target = int.from_bytes(infohash, "big")
        candidates: Dict[int, _Candidate] = {
            ip: _Candidate(ip=ip, port=CRAWLER_DHT_PORT)
            for ip in self.network.bootstrap_ips()
        }
        peers: Set[Tuple[int, int]] = set()
        seeders = leechers = 0
        nodes_with_values = 0
        queried_count = 0
        rounds = 0

        while rounds < _MAX_ROUNDS:
            frontier = self._pick_frontier(candidates, target)
            if not frontier:
                break
            rounds += 1
            for candidate in frontier:
                candidate.queried = True
                queried_count += 1
                values = self._query_one(candidate, infohash, candidates, now)
                if values is None:
                    continue
                got_values, seeds, leeches = values
                if got_values:
                    peers.update(got_values)
                    nodes_with_values += 1
                    # Counts are per-store totals; replicas agree, so max
                    # (not sum) is the deduplicated view.
                    seeders = max(seeders, seeds)
                    leechers = max(leechers, leeches)

        latency = rounds * PER_HOP_RTT_MINUTES
        self._m_lookups.inc(outcome="peers" if peers else "empty")
        self._m_hops.observe(float(rounds))
        self._m_peers.observe(float(len(peers)))
        self._m_latency.observe(latency)
        self.metrics.trace.record(
            now,
            "dht.lookup",
            infohash=infohash.hex()[:12],
            peers=len(peers),
            rounds=rounds,
        )
        return DhtLookupResult(
            infohash=infohash,
            peers=tuple(sorted(peers)),
            seeders=seeders,
            leechers=leechers,
            hops=rounds,
            nodes_queried=queried_count,
            nodes_with_values=nodes_with_values,
            latency_minutes=latency,
        )

    def _pick_frontier(
        self,
        candidates: Dict[int, _Candidate],
        target: int,
    ) -> List[_Candidate]:
        """The next :data:`ALPHA` nodes worth querying, or [] at convergence.

        Each candidate's distance is computed once.  Bootstrap entries with
        unknown ids count as distance -1, so they sort first, in insertion
        order: they must be queried before any distance ordering exists.
        """
        unqueried: List[Tuple[int, int, _Candidate]] = []
        responded: List[int] = []
        for index, candidate in enumerate(candidates.values()):
            node_id = candidate.node_id
            distance = -1 if node_id is None else node_id ^ target
            if not candidate.queried:
                unqueried.append((distance, index, candidate))
            if candidate.responded:
                responded.append(distance)
        unqueried.sort()
        frontier = unqueried[:ALPHA]
        if len(responded) >= K:
            # Sorted, so filtering the first ALPHA equals filtering all.
            responded.sort()
            threshold = responded[K - 1]
            frontier = [entry for entry in frontier if entry[0] < threshold]
        return [candidate for _distance, _index, candidate in frontier]

    def _query_one(
        self,
        candidate: _Candidate,
        infohash: bytes,
        candidates: Dict[int, _Candidate],
        now: float,
    ) -> Optional[Tuple[List[Tuple[int, int]], int, int]]:
        """Send one ``get_peers``; merge returned nodes; return values."""
        query = encode_query(
            self._next_tid(),
            "get_peers",
            {b"id": self._client_id_bytes, b"info_hash": infohash},
        )
        self._m_queries.inc()
        raw = self.network.send(
            candidate.ip, query, self.client_ip, CRAWLER_DHT_PORT, now
        )
        if raw is None:
            return None
        # Decode the whole reply before touching any candidate: one that
        # fails anywhere, down to a ragged compact entry, is an unanswered
        # query and contributes nothing.
        try:
            reply = decode_message(raw)
            if not isinstance(reply, KrpcResponse):
                return None
            nodes_blob = reply.values.get(b"nodes")
            nodes = (
                unpack_compact_nodes(nodes_blob) if isinstance(nodes_blob, bytes) else []
            )
            got: List[Tuple[int, int]] = []
            raw_values = reply.values.get(b"values")
            if isinstance(raw_values, list):
                for compact in raw_values:
                    if isinstance(compact, bytes):
                        got.extend(unpack_compact_peers(compact))
        except KrpcError:
            return None
        candidate.responded = True
        responder_id = reply.values.get(b"id")
        if isinstance(responder_id, bytes) and len(responder_id) == 20:
            candidate.node_id = int.from_bytes(responder_id, "big")
        for node_id_bytes, ip, port in nodes:
            # Most returned nodes are known already; convert only the others.
            existing = candidates.get(ip)
            if existing is None:
                candidates[ip] = _Candidate(
                    ip=ip, port=port, node_id=int.from_bytes(node_id_bytes, "big")
                )
            elif existing.node_id is None:
                existing.node_id = int.from_bytes(node_id_bytes, "big")
        seeds = reply.values.get(b"seeds")
        leeches = reply.values.get(b"peers")
        return (
            got,
            seeds if isinstance(seeds, int) else 0,
            leeches if isinstance(leeches, int) else 0,
        )

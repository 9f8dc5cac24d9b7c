"""One simulated Mainline DHT node: routing table, peer store, tokens.

A node answers the four KRPC queries over real message bytes
(:mod:`repro.dht.krpc`).  Its peer store holds *announce intervals* rather
than point-in-time entries: a peer that joined a swarm at ``start`` and
left at ``end`` is modelled as having announced at join and re-announced
until departure, so its entry is visible to ``get_peers`` exactly while
``start <= now < end``.  That makes a whole campaign's worth of announces
storable up front (the world generator knows every session) while queries
still see announces appear and expire with swarm churn.

``announce_peer`` is token-gated as in BEP 5: a querier must echo the
opaque token a previous ``get_peers`` handed it, and tokens are bound to
the querier's IP.  Responses to ``get_peers`` carry a simplified BEP 33
scrape -- integer ``seeds`` / ``peers`` counts of the currently active
announces (real Mainline returns bloom filters; the counts preserve what
the measurement pipeline consumes: a seeder/leecher split).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dht.krpc import (
    ERROR_PROTOCOL,
    ERROR_UNKNOWN_METHOD,
    KrpcError,
    KrpcQuery,
    decode_message,
    encode_error,
    encode_get_peers_response,
    encode_response,
    node_id_to_bytes_or_raise,
    pack_compact_nodes,
)
from repro.dht.routing import (
    Contact,
    RoutingTable,
    node_id_from_bytes,
    node_id_to_bytes,
)

DHT_PORT = 6881
# Most announces one get_peers response carries; a bigger swarm is sampled.
MAX_VALUES = 150


@dataclass(frozen=True)
class StoredPeer:
    """One announce interval held by a node for one infohash."""

    ip: int
    port: int
    start: float
    end: float
    # When the announcing peer became a seeder (None: never completed).
    # Drives the simplified BEP 33 seeds/peers split.
    seed_from: Optional[float] = None

    def is_seed_at(self, now: float) -> bool:
        return self.seed_from is not None and self.seed_from <= now


def stored_peer(
    infohash: bytes,
    ip: int,
    port: int,
    start: float,
    end: float,
    seed_from: Optional[float] = None,
) -> Optional[StoredPeer]:
    """The announce interval to store, or None for a zero-length session."""
    if len(infohash) != 20:
        raise ValueError("infohash must be 20 bytes")
    if end <= start:
        return None  # zero-length session: never visible
    return StoredPeer(ip=ip, port=port, start=start, end=end, seed_from=seed_from)


class DhtNode:
    """One DHT participant with its routing table and announce store."""

    def __init__(
        self,
        node_id: int,
        ip: int,
        *,
        announce_ttl: float,
        rng: random.Random,
        port: int = DHT_PORT,
        token_secret: bytes = b"",
    ) -> None:
        if announce_ttl <= 0:
            raise ValueError("announce_ttl must be > 0")
        self.node_id = node_id
        self.ip = ip
        self.port = port
        self.announce_ttl = announce_ttl
        self.table = RoutingTable(node_id)
        self._id_bytes = node_id_to_bytes(node_id)
        self._token_secret = token_secret or self._id_bytes[:8]
        self._rng = rng
        self._store: Dict[bytes, List[StoredPeer]] = {}
        # Write token per querier IP (see token_for).
        self._tokens: Dict[int, bytes] = {}
        # Packed closest-node blobs per target, valid for one membership
        # version of the routing table (see _compact_closest).
        self._closest_blobs: Dict[int, bytes] = {}
        self._closest_version = self.table.version

    # ------------------------------------------------------------------
    # Peer store
    # ------------------------------------------------------------------
    def store_announce(
        self,
        infohash: bytes,
        ip: int,
        port: int,
        start: float,
        end: float,
        seed_from: Optional[float] = None,
    ) -> None:
        """Record one announce interval."""
        peer = stored_peer(infohash, ip, port, start, end, seed_from)
        if peer is not None:
            self.store_peer(infohash, peer)

    def store_peer(self, infohash: bytes, peer: StoredPeer) -> None:
        """Append a checked announce (see :func:`stored_peer`).  The world
        shares one frozen ``StoredPeer`` across every responsible node."""
        self._store.setdefault(infohash, []).append(peer)

    def peers_for(self, infohash: bytes, now: float) -> List[StoredPeer]:
        """All announces active at ``now`` (unsampled), in store order."""
        return [p for p in self._store.get(infohash, ()) if p.start <= now < p.end]

    # ------------------------------------------------------------------
    # Tokens
    # ------------------------------------------------------------------
    def token_for(self, ip: int) -> bytes:
        """Opaque write-token bound to the querier's IP (BEP 5).

        Memoised per IP: the secret never rotates, so a token never changes.
        """
        token = self._tokens.get(ip)
        if token is None:
            token = self._tokens[ip] = hashlib.sha1(
                self._token_secret + ip.to_bytes(4, "big")
            ).digest()[:8]
        return token

    # ------------------------------------------------------------------
    # Query handling (wire bytes in, wire bytes out)
    # ------------------------------------------------------------------
    def handle_query(
        self, raw: bytes, sender_ip: int, sender_port: int, now: float
    ) -> bytes:
        """Serve one KRPC query; always returns encodable response bytes."""
        try:
            message = decode_message(raw)
        except KrpcError:
            return encode_error(b"\x00", ERROR_PROTOCOL, "malformed message")
        if not isinstance(message, KrpcQuery):
            return encode_error(
                message.tid, ERROR_PROTOCOL, "expected a query"
            )
        try:
            sender_id = message.sender_id
        except KrpcError:
            return encode_error(message.tid, ERROR_PROTOCOL, "missing sender id")
        self.table.observe(
            Contact(
                node_id=node_id_from_bytes(sender_id),
                ip=sender_ip,
                port=sender_port,
                last_seen=now,
            ),
            now,
        )
        handler = _HANDLERS.get(message.method)
        if handler is None:
            return encode_error(
                message.tid, ERROR_UNKNOWN_METHOD, f"unknown method {message.method}"
            )
        try:
            return handler(self, message, sender_ip, sender_port, now)
        except KrpcError as exc:
            return encode_error(message.tid, ERROR_PROTOCOL, str(exc))

    # -- individual methods --------------------------------------------
    # get_peers replies use krpc's templates; every other reply goes through
    # bencode, which sorts its keys.
    def _handle_ping(
        self, query: KrpcQuery, sender_ip: int, sender_port: int, now: float
    ) -> bytes:
        return encode_response(query.tid, {b"id": self._id_bytes})

    def _compact_closest(self, target: int) -> bytes:
        """Compact node info of the table's closest contacts to ``target``.

        Memoised per target; the memo is dropped whenever the routing
        table's membership version moves, so it never serves a blob the
        current table would not produce.
        """
        if self._closest_version != self.table.version:
            self._closest_blobs.clear()
            self._closest_version = self.table.version
        blob = self._closest_blobs.get(target)
        if blob is None:
            blob = self._closest_blobs[target] = pack_compact_nodes(
                [
                    (node_id_to_bytes(c.node_id), c.ip, c.port)
                    for c in self.table.closest(target)
                ]
            )
        return blob

    def _handle_find_node(
        self, query: KrpcQuery, sender_ip: int, sender_port: int, now: float
    ) -> bytes:
        target = query.args.get(b"target")
        target_id = node_id_from_bytes(node_id_to_bytes_or_raise(target, "target"))
        return encode_response(
            query.tid,
            {b"id": self._id_bytes, b"nodes": self._compact_closest(target_id)},
        )

    def _handle_get_peers(
        self, query: KrpcQuery, sender_ip: int, sender_port: int, now: float
    ) -> bytes:
        infohash = query.args.get(b"info_hash")
        infohash = node_id_to_bytes_or_raise(infohash, "info_hash")
        token = self.token_for(sender_ip)
        # Closer nodes ride along even when values exist, as most live
        # implementations do -- it keeps iterative lookups converging.
        nodes = self._compact_closest(node_id_from_bytes(infohash))
        active = self.peers_for(infohash, now)
        if not active:
            return encode_get_peers_response(query.tid, self._id_bytes, nodes, token)
        seeds = sum(1 for p in active if p.is_seed_at(now))
        if len(active) > MAX_VALUES:
            sample = self._rng.sample(active, MAX_VALUES)
        else:
            sample = active
        return encode_get_peers_response(
            query.tid,
            self._id_bytes,
            nodes,
            token,
            [(p.ip, p.port) for p in sample],
            peers=len(active) - seeds,
            seeds=seeds,
        )

    def _handle_announce_peer(
        self, query: KrpcQuery, sender_ip: int, sender_port: int, now: float
    ) -> bytes:
        infohash = query.args.get(b"info_hash")
        infohash = node_id_to_bytes_or_raise(infohash, "info_hash")
        token = query.args.get(b"token")
        if token != self.token_for(sender_ip):
            raise KrpcError("bad announce token")
        port = query.args.get(b"port")
        if not isinstance(port, int) or not 0 < port <= 0xFFFF:
            raise KrpcError(f"bad announce port {port!r}")
        seed = query.args.get(b"seed")
        self.store_announce(
            infohash,
            ip=sender_ip,
            port=port,
            start=now,
            end=now + self.announce_ttl,
            seed_from=now if seed == 1 else None,
        )
        return encode_response(query.tid, {b"id": self._id_bytes})


_HANDLERS = {
    "ping": DhtNode._handle_ping,
    "find_node": DhtNode._handle_find_node,
    "get_peers": DhtNode._handle_get_peers,
    "announce_peer": DhtNode._handle_announce_peer,
}

"""UDP tracker protocol (BEP 15) -- Open BitTorrent's native transport.

The paper crawled swarms managed by the Open BitTorrent tracker, which
primarily spoke the UDP protocol.  This module implements the wire codec
(connect / announce, with the magic connection-id handshake) plus a
transport shim that carries the packets to the same :class:`Tracker` policy
engine used by the HTTP path, so a crawler can be pointed at either
transport and observe identical swarm state.

Packet layouts (all integers big-endian):

connect request:   int64 protocol_id=0x41727101980, int32 action=0,
                   int32 transaction_id
connect response:  int32 action=0, int32 transaction_id, int64 connection_id
announce request:  int64 connection_id, int32 action=1, int32 transaction_id,
                   20s infohash, 20s peer_id, int64 downloaded, int64 left,
                   int64 uploaded, int32 event, uint32 ip, uint32 key,
                   int32 numwant, uint16 port
announce response: int32 action=1, int32 transaction_id, int32 interval,
                   int32 leechers, int32 seeders, (uint32 ip, uint16 port)*
error response:    int32 action=3, int32 transaction_id, bytes message
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.tracker.protocol import AnnounceRequest, AnnounceResponse, TrackerError
from repro.tracker.server import Tracker

PROTOCOL_MAGIC = 0x41727101980
ACTION_CONNECT = 0
ACTION_ANNOUNCE = 1
ACTION_ERROR = 3

# How long a connection id stays valid (BEP 15: one minute; we are lenient).
CONNECTION_TTL_MINUTES = 2.0


class UdpProtocolError(TrackerError):
    """Malformed UDP tracker packet."""


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------
def encode_connect_request(transaction_id: int) -> bytes:
    return struct.pack(">qii", PROTOCOL_MAGIC, ACTION_CONNECT, transaction_id)


def decode_connect_request(data: bytes) -> int:
    if len(data) != 16:
        raise UdpProtocolError(f"connect request must be 16 bytes, got {len(data)}")
    magic, action, transaction_id = struct.unpack(">qii", data)
    if magic != PROTOCOL_MAGIC:
        raise UdpProtocolError(f"bad protocol magic {magic:#x}")
    if action != ACTION_CONNECT:
        raise UdpProtocolError(f"expected connect action, got {action}")
    return transaction_id


def encode_connect_response(transaction_id: int, connection_id: int) -> bytes:
    return struct.pack(">iiq", ACTION_CONNECT, transaction_id, connection_id)


def decode_connect_response(data: bytes) -> Tuple[int, int]:
    """Return (transaction_id, connection_id)."""
    if len(data) != 16:
        raise UdpProtocolError("connect response must be 16 bytes")
    action, transaction_id, connection_id = struct.unpack(">iiq", data)
    if action == ACTION_ERROR:
        raise UdpProtocolError(_error_message(data))
    if action != ACTION_CONNECT:
        raise UdpProtocolError(f"expected connect action, got {action}")
    return transaction_id, connection_id


def encode_announce_request(
    connection_id: int,
    transaction_id: int,
    infohash: bytes,
    peer_id: bytes,
    client_ip: int,
    numwant: int,
    port: int,
    event: int = 0,
) -> bytes:
    if len(infohash) != 20 or len(peer_id) != 20:
        raise UdpProtocolError("infohash and peer_id must be 20 bytes")
    return struct.pack(
        ">qii20s20sqqqiIIiH",
        connection_id,
        ACTION_ANNOUNCE,
        transaction_id,
        infohash,
        peer_id,
        0,  # downloaded
        0,  # left
        0,  # uploaded
        event,
        client_ip & 0xFFFFFFFF,
        0,  # key
        numwant,
        port,
    )


@dataclass(frozen=True)
class UdpAnnounce:
    connection_id: int
    transaction_id: int
    infohash: bytes
    peer_id: bytes
    client_ip: int
    numwant: int
    port: int
    event: int


def decode_announce_request(data: bytes) -> UdpAnnounce:
    if len(data) != 98:
        raise UdpProtocolError(f"announce request must be 98 bytes, got {len(data)}")
    (
        connection_id, action, transaction_id, infohash, peer_id,
        _downloaded, _left, _uploaded, event, ip, _key, numwant, port,
    ) = struct.unpack(">qii20s20sqqqiIIiH", data)
    if action != ACTION_ANNOUNCE:
        raise UdpProtocolError(f"expected announce action, got {action}")
    return UdpAnnounce(
        connection_id=connection_id,
        transaction_id=transaction_id,
        infohash=infohash,
        peer_id=peer_id,
        client_ip=ip,
        numwant=numwant,
        port=port,
        event=event,
    )


def encode_announce_response(
    transaction_id: int,
    interval_seconds: int,
    seeders: int,
    leechers: int,
    peers: List[Tuple[int, int]],
) -> bytes:
    head = struct.pack(
        ">iiiii", ACTION_ANNOUNCE, transaction_id, interval_seconds,
        leechers, seeders,
    )
    body = b"".join(
        struct.pack(">IH", ip & 0xFFFFFFFF, port) for ip, port in peers
    )
    return head + body


def decode_announce_response(data: bytes) -> Tuple[int, AnnounceResponse]:
    """Return (transaction_id, response)."""
    if len(data) < 8:
        raise UdpProtocolError("truncated response")
    action = struct.unpack(">i", data[:4])[0]
    if action == ACTION_ERROR:
        raise UdpProtocolError(_error_message(data))
    if action != ACTION_ANNOUNCE:
        raise UdpProtocolError(f"expected announce action, got {action}")
    if len(data) < 20 or (len(data) - 20) % 6 != 0:
        raise UdpProtocolError("malformed announce response body")
    _action, transaction_id, interval, leechers, seeders = struct.unpack(
        ">iiiii", data[:20]
    )
    peers = []
    for offset in range(20, len(data), 6):
        ip, port = struct.unpack(">IH", data[offset : offset + 6])
        peers.append((ip, port))
    return transaction_id, AnnounceResponse(
        interval_seconds=interval,
        seeders=seeders,
        leechers=leechers,
        peers=peers,
    )


def encode_error(transaction_id: int, message: str) -> bytes:
    return struct.pack(">ii", ACTION_ERROR, transaction_id) + message.encode("utf-8")


def _error_message(data: bytes) -> str:
    if len(data) < 8:
        return "tracker error"
    return data[8:].decode("utf-8", "replace") or "tracker error"


# ---------------------------------------------------------------------------
# Transport shim over the policy engine
# ---------------------------------------------------------------------------
class UdpTrackerEndpoint:
    """A UDP front-end for a :class:`Tracker`.

    Implements the connect handshake (connection ids expire after
    ``CONNECTION_TTL_MINUTES``) and forwards announces to the shared policy
    engine, so rate limiting, blacklisting and peer sampling behave exactly
    like the HTTP path.
    """

    def __init__(self, tracker: Tracker, rng: random.Random) -> None:
        self._tracker = tracker
        self._rng = rng
        self._connections: Dict[int, float] = {}  # connection_id -> issue time
        metrics = tracker.metrics
        self._m_packets = metrics.counter("tracker.udp_packets")
        self._m_errors = metrics.counter("tracker.udp_errors")

    def handle_packet(self, data: bytes, source_ip: int, now: float) -> bytes:
        """Dispatch one datagram; returns the response datagram."""
        if len(data) == 16:
            self._m_packets.inc(kind="connect")
            transaction_id = decode_connect_request(data)
            connection_id = self._rng.getrandbits(63)
            self._connections[connection_id] = now
            return encode_connect_response(transaction_id, connection_id)
        if len(data) == 98:
            self._m_packets.inc(kind="announce")
            request = decode_announce_request(data)
            issued = self._connections.get(request.connection_id)
            if issued is None or now - issued > CONNECTION_TTL_MINUTES:
                self._m_errors.inc(reason="stale_connection")
                return encode_error(request.transaction_id, "invalid connection id")
            announce = AnnounceRequest(
                infohash=request.infohash,
                client_ip=source_ip,
                numwant=max(0, request.numwant),
            )
            # BEP 15 carries no bencode, so the policy result is packed
            # straight into the UDP frame.
            try:
                response = self._tracker.announce_object(announce, now)
            except TrackerError as exc:
                self._m_errors.inc(reason="tracker_failure")
                return encode_error(request.transaction_id, str(exc))
            return encode_announce_response(
                request.transaction_id,
                response.interval_seconds,
                response.seeders,
                response.leechers,
                response.peers,
            )
        self._m_errors.inc(reason="malformed_packet")
        raise UdpProtocolError(f"unrecognised packet of {len(data)} bytes")

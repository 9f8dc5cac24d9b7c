"""Tests for the UDP tracker protocol (BEP 15)."""

import random

import pytest

from repro.observability import MetricsRegistry
from repro.swarm import PeerSession, Swarm
from repro.tracker import Tracker, TrackerConfig
from repro.tracker.udp import (
    CONNECTION_TTL_MINUTES,
    PROTOCOL_MAGIC,
    UdpProtocolError,
    UdpTrackerEndpoint,
    decode_announce_request,
    decode_announce_response,
    decode_connect_request,
    decode_connect_response,
    encode_announce_request,
    encode_announce_response,
    encode_connect_request,
    encode_connect_response,
    encode_error,
)

IH = b"\x55" * 20
PEER_ID = b"-RP1000-udp-test0000"
CLIENT = 0x0A000005


def make_endpoint(n_peers=6):
    tracker = Tracker(
        "udp://t.sim:80", random.Random(0), TrackerConfig(), metrics=MetricsRegistry()
    )
    swarm = Swarm(infohash=IH, birth_time=0.0, metrics=MetricsRegistry())
    swarm.add_session(
        PeerSession(ip=900, join_time=0, leave_time=10_000, complete_time=0,
                    is_publisher=True)
    )
    for i in range(n_peers - 1):
        swarm.add_session(PeerSession(ip=1000 + i, join_time=0, leave_time=10_000))
    swarm.freeze()
    tracker.register_swarm(swarm)
    return UdpTrackerEndpoint(tracker, random.Random(1))


class TestCodec:
    def test_connect_roundtrip(self):
        data = encode_connect_request(0x1234)
        assert decode_connect_request(data) == 0x1234

    def test_connect_response_roundtrip(self):
        data = encode_connect_response(7, 99)
        assert decode_connect_response(data) == (7, 99)

    def test_bad_magic_rejected(self):
        import struct

        bad = struct.pack(">qii", PROTOCOL_MAGIC + 1, 0, 1)
        with pytest.raises(UdpProtocolError, match="magic"):
            decode_connect_request(bad)

    def test_announce_request_roundtrip(self):
        data = encode_announce_request(
            connection_id=5, transaction_id=6, infohash=IH, peer_id=PEER_ID,
            client_ip=CLIENT, numwant=50, port=6881,
        )
        assert len(data) == 98
        request = decode_announce_request(data)
        assert request.connection_id == 5
        assert request.transaction_id == 6
        assert request.infohash == IH
        assert request.numwant == 50
        assert request.port == 6881

    def test_announce_response_roundtrip(self):
        peers = [(0x01020304, 6881), (0x05060708, 51413)]
        data = encode_announce_response(9, 900, seeders=3, leechers=2, peers=peers)
        transaction_id, response = decode_announce_response(data)
        assert transaction_id == 9
        assert response.interval_seconds == 900
        assert response.seeders == 3
        assert response.leechers == 2
        assert response.peers == peers

    def test_error_response_raises_on_decode(self):
        data = encode_error(4, "sorry")
        with pytest.raises(UdpProtocolError, match="sorry"):
            decode_announce_response(data)
        with pytest.raises(UdpProtocolError, match="sorry"):
            decode_connect_response(encode_error(4, "sorry")[:16].ljust(16, b"\0"))

    def test_truncated_packets_rejected(self):
        with pytest.raises(UdpProtocolError):
            decode_connect_request(b"123")
        with pytest.raises(UdpProtocolError):
            decode_announce_request(b"123")
        with pytest.raises(UdpProtocolError):
            decode_announce_response(b"123")


class TestEndpoint:
    def _connect(self, endpoint, now=0.0):
        reply = endpoint.handle_packet(encode_connect_request(1), CLIENT, now)
        _tid, connection_id = decode_connect_response(reply)
        return connection_id

    def test_connect_then_announce(self):
        endpoint = make_endpoint()
        connection_id = self._connect(endpoint)
        packet = encode_announce_request(
            connection_id, 2, IH, PEER_ID, CLIENT, numwant=10, port=6881
        )
        reply = endpoint.handle_packet(packet, CLIENT, 0.5)
        tid, response = decode_announce_response(reply)
        assert tid == 2
        assert response.seeders == 1
        assert response.leechers == 5
        assert len(response.peers) == 6

    def test_stale_connection_rejected(self):
        endpoint = make_endpoint()
        connection_id = self._connect(endpoint, now=0.0)
        packet = encode_announce_request(
            connection_id, 3, IH, PEER_ID, CLIENT, numwant=10, port=6881
        )
        late = CONNECTION_TTL_MINUTES + 1.0
        reply = endpoint.handle_packet(packet, CLIENT, late)
        with pytest.raises(UdpProtocolError, match="connection id"):
            decode_announce_response(reply)

    def test_unknown_connection_rejected(self):
        endpoint = make_endpoint()
        packet = encode_announce_request(
            424242, 3, IH, PEER_ID, CLIENT, numwant=10, port=6881
        )
        reply = endpoint.handle_packet(packet, CLIENT, 0.0)
        with pytest.raises(UdpProtocolError, match="connection id"):
            decode_announce_response(reply)

    def test_rate_limit_shared_with_http_path(self):
        endpoint = make_endpoint()
        connection_id = self._connect(endpoint)
        packet = encode_announce_request(
            connection_id, 2, IH, PEER_ID, CLIENT, numwant=10, port=6881
        )
        decode_announce_response(endpoint.handle_packet(packet, CLIENT, 0.5))
        # Same client announcing again too soon gets the policy error.
        reply = endpoint.handle_packet(packet, CLIENT, 1.0)
        with pytest.raises(UdpProtocolError, match="frequent"):
            decode_announce_response(reply)

    def test_unknown_infohash_surfaces_error(self):
        endpoint = make_endpoint()
        connection_id = self._connect(endpoint)
        packet = encode_announce_request(
            connection_id, 2, b"\x99" * 20, PEER_ID, CLIENT, numwant=10, port=1
        )
        reply = endpoint.handle_packet(packet, CLIENT, 0.5)
        with pytest.raises(UdpProtocolError, match="unregistered"):
            decode_announce_response(reply)

    def test_garbage_datagram_rejected(self):
        endpoint = make_endpoint()
        with pytest.raises(UdpProtocolError, match="unrecognised"):
            endpoint.handle_packet(b"\x00" * 40, CLIENT, 0.0)

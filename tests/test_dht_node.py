"""Tests for one simulated DHT node (repro.dht.node)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bencode import bencode
from repro.dht.krpc import (
    ERROR_PROTOCOL,
    ERROR_UNKNOWN_METHOD,
    KrpcErrorMessage,
    KrpcResponse,
    decode_message,
    encode_query,
    encode_response,
    pack_compact_nodes,
    pack_compact_peer,
    unpack_compact_nodes,
    unpack_compact_peers,
)
from repro.dht.node import MAX_VALUES, DhtNode, StoredPeer
from repro.dht.routing import (
    K,
    STALE_AFTER_MINUTES,
    Contact,
    derive_node_id,
    node_id_to_bytes,
)
from tests.dht_oracles import stored_intervals

CLIENT_ID = node_id_to_bytes(derive_node_id("client"))
CLIENT_IP = 0x0A420001
INFOHASH = b"\x5a" * 20


def make_node(announce_ttl=45.0):
    return DhtNode(
        node_id=derive_node_id("node"),
        ip=0x0A4D0001,
        announce_ttl=announce_ttl,
        rng=random.Random(0),
    )


def ask(node, method, args, now=0.0, tid=b"t1", ip=CLIENT_IP, port=6881):
    args = {"id": CLIENT_ID, **args}
    return decode_message(
        node.handle_query(encode_query(tid, method, args), ip, port, now)
    )


class TestStoredPeer:
    def test_interval_visibility(self):
        """An interval is visible on ``start <= now < end``."""
        node = make_node()
        node.store_announce(INFOHASH, ip=1, port=2, start=10.0, end=20.0)
        assert node.peers_for(INFOHASH, 9.9) == []
        assert node.peers_for(INFOHASH, 10.0) == [
            StoredPeer(ip=1, port=2, start=10.0, end=20.0)
        ]
        assert len(node.peers_for(INFOHASH, 19.9)) == 1
        assert node.peers_for(INFOHASH, 20.0) == []

    def test_seed_flip(self):
        peer = StoredPeer(ip=1, port=2, start=0.0, end=50.0, seed_from=30.0)
        assert not peer.is_seed_at(29.0)
        assert peer.is_seed_at(30.0)
        assert not StoredPeer(ip=1, port=2, start=0.0, end=50.0).is_seed_at(40.0)


class TestPeerStore:
    def test_store_and_query_window(self):
        node = make_node()
        node.store_announce(INFOHASH, ip=7, port=100, start=5.0, end=15.0)
        assert node.peers_for(INFOHASH, 4.0) == []
        assert len(node.peers_for(INFOHASH, 10.0)) == 1
        assert node.peers_for(INFOHASH, 15.0) == []
        assert stored_intervals(node, INFOHASH) == 1

    def test_active_peers_keep_store_order(self):
        """get_peers samples from this list, so its order is part of the
        rng contract."""
        node = make_node()
        for ip in (5, 3, 9, 1):
            node.store_announce(INFOHASH, ip=ip, port=1, start=0.0, end=10.0)
        node.store_announce(INFOHASH, ip=7, port=1, start=20.0, end=30.0)
        assert [p.ip for p in node.peers_for(INFOHASH, 5.0)] == [5, 3, 9, 1]

    def test_zero_length_sessions_dropped(self):
        node = make_node()
        node.store_announce(INFOHASH, ip=7, port=100, start=5.0, end=5.0)
        assert stored_intervals(node, INFOHASH) == 0

    def test_bad_infohash_rejected(self):
        with pytest.raises(ValueError):
            make_node().store_announce(b"short", ip=1, port=2, start=0.0, end=1.0)


class TestPing:
    def test_ping_returns_own_id(self):
        node = make_node()
        reply = ask(node, "ping", {})
        assert isinstance(reply, KrpcResponse)
        assert reply.values[b"id"] == node_id_to_bytes(node.node_id)

    def test_querier_lands_in_routing_table(self):
        node = make_node()
        ask(node, "ping", {}, now=3.0)
        contact = node.table.find(derive_node_id("client"))
        assert contact is not None
        assert contact.ip == CLIENT_IP and contact.last_seen == 3.0


class TestFindNode:
    def test_returns_closest_contacts(self):
        node = make_node()
        for i in range(20):
            node.table.observe(
                Contact(derive_node_id("other", i), ip=i + 1, port=6881), now=0.0
            )
        reply = ask(node, "find_node", {"target": b"\x11" * 20})
        nodes = unpack_compact_nodes(reply.values[b"nodes"])
        assert len(nodes) == K

    def test_missing_target_is_protocol_error(self):
        reply = ask(make_node(), "find_node", {})
        assert isinstance(reply, KrpcErrorMessage)
        assert reply.code == ERROR_PROTOCOL


class TestGetPeers:
    def test_empty_swarm_returns_nodes_and_token_only(self):
        node = make_node()
        reply = ask(node, "get_peers", {"info_hash": INFOHASH})
        assert isinstance(reply, KrpcResponse)
        assert b"token" in reply.values
        assert b"values" not in reply.values

    def test_values_and_scrape_counts(self):
        node = make_node()
        node.store_announce(INFOHASH, ip=1, port=10, start=0.0, end=60.0,
                            seed_from=0.0)
        node.store_announce(INFOHASH, ip=2, port=20, start=0.0, end=60.0)
        node.store_announce(INFOHASH, ip=3, port=30, start=0.0, end=60.0)
        reply = ask(node, "get_peers", {"info_hash": INFOHASH}, now=30.0)
        peers = [
            peer
            for compact in reply.values[b"values"]
            for peer in unpack_compact_peers(compact)
        ]
        assert sorted(peers) == [(1, 10), (2, 20), (3, 30)]
        assert reply.values[b"seeds"] == 1
        assert reply.values[b"peers"] == 2

    def test_large_swarms_sampled_to_max_values(self):
        assert MAX_VALUES == 150
        node = make_node()
        for i in range(MAX_VALUES + 50):
            node.store_announce(INFOHASH, ip=i + 1, port=1, start=0.0, end=60.0)
        reply = ask(node, "get_peers", {"info_hash": INFOHASH}, now=1.0)
        assert len(reply.values[b"values"]) == MAX_VALUES
        # Scrape counts still cover the full store.
        assert reply.values[b"peers"] == MAX_VALUES + 50

    def test_token_is_ip_bound(self):
        node = make_node()
        assert node.token_for(1) != node.token_for(2)
        assert node.token_for(1) == node.token_for(1)


class TestAnnouncePeer:
    def _token(self, node, ip=CLIENT_IP):
        reply = ask(node, "get_peers", {"info_hash": INFOHASH}, ip=ip)
        return reply.values[b"token"]

    def test_announce_with_valid_token_stores(self):
        node = make_node(announce_ttl=45.0)
        token = self._token(node)
        reply = ask(
            node,
            "announce_peer",
            {"info_hash": INFOHASH, "token": token, "port": 51413, "seed": 1},
            now=100.0,
        )
        assert isinstance(reply, KrpcResponse)
        (stored,) = node.peers_for(INFOHASH, 100.0)
        assert (stored.ip, stored.port) == (CLIENT_IP, 51413)
        assert stored.is_seed_at(100.0)
        assert stored.end == pytest.approx(145.0)

    def test_bad_token_rejected(self):
        node = make_node()
        reply = ask(
            node,
            "announce_peer",
            {"info_hash": INFOHASH, "token": b"forged!", "port": 51413},
        )
        assert isinstance(reply, KrpcErrorMessage)
        assert reply.code == ERROR_PROTOCOL
        assert node.peers_for(INFOHASH, 0.0) == []

    def test_foreign_token_rejected(self):
        node = make_node()
        token = self._token(node, ip=0x01020304)  # someone else's token
        reply = ask(
            node,
            "announce_peer",
            {"info_hash": INFOHASH, "token": token, "port": 51413},
        )
        assert isinstance(reply, KrpcErrorMessage)

    def test_bad_port_rejected(self):
        node = make_node()
        token = self._token(node)
        for port in (0, -5, 70000, "80"):
            reply = ask(
                node,
                "announce_peer",
                {"info_hash": INFOHASH, "token": token, "port": port},
            )
            assert isinstance(reply, KrpcErrorMessage)


class TestDispatchEdges:
    def test_malformed_bytes_get_protocol_error(self):
        reply = decode_message(
            make_node().handle_query(b"garbage", CLIENT_IP, 6881, 0.0)
        )
        assert isinstance(reply, KrpcErrorMessage)
        assert reply.code == ERROR_PROTOCOL

    def test_response_instead_of_query_rejected(self):
        raw = encode_response(b"t9", {"id": CLIENT_ID})
        reply = decode_message(make_node().handle_query(raw, CLIENT_IP, 6881, 0.0))
        assert isinstance(reply, KrpcErrorMessage)

    def test_unknown_method_rejected(self):
        # Bypass encode_query's own validation with hand-rolled bencode.
        # The strict codec refuses the method at decode time, so the node
        # answers with a protocol error rather than half-serving it.
        from repro.bencode import bencode

        raw = bencode({"t": b"tx", "y": "q", "q": "vote", "a": {"id": CLIENT_ID}})
        reply = decode_message(make_node().handle_query(raw, CLIENT_IP, 6881, 0.0))
        assert isinstance(reply, KrpcErrorMessage)
        assert reply.code in (ERROR_PROTOCOL, ERROR_UNKNOWN_METHOD)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_node(announce_ttl=0.0)


def _uncached_blob(node, target):
    return pack_compact_nodes(
        [(node_id_to_bytes(c.node_id), c.ip, c.port) for c in node.table.closest(target)]
    )


def _populated_node(count=200):
    node = make_node()
    for i in range(count):
        node.table.observe(Contact(derive_node_id("n", i), ip=i + 1, port=1), 0.0)
    return node


class TestClosestBlobMemo:
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 160) - 1), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_cached_blobs_equal_uncached(self, targets):
        node = _populated_node()
        for target in targets + targets:  # the second pass hits the memo
            assert node._compact_closest(target) == _uncached_blob(node, target)

    def test_eviction_changes_next_blob(self):
        node = _populated_node()
        target = derive_node_id("target")
        before = node._compact_closest(target)
        closest = node.table.closest(target)[0]
        # A newcomer in the closest contact's bucket, late enough that the
        # bucket's oldest entry is stale and gets evicted.
        newcomer = closest.node_id ^ 1
        size = len(node.table)
        assert node.table.observe(
            Contact(newcomer, ip=999, port=2), now=STALE_AFTER_MINUTES + 1.0
        )
        assert len(node.table) == size  # a full bucket: one contact went
        after = node._compact_closest(target)
        assert after != before
        assert after == _uncached_blob(node, target)
        assert node_id_to_bytes(newcomer) in after

    def test_remove_changes_next_blob(self):
        node = _populated_node()
        target = derive_node_id("target")
        before = node._compact_closest(target)
        gone = node.table.closest(target)[0].node_id
        node.table.remove(gone)
        after = node._compact_closest(target)
        assert after != before
        assert node_id_to_bytes(gone) not in after
        assert after == _uncached_blob(node, target)

    def test_refresh_keeps_memo(self):
        node = _populated_node()
        target = derive_node_id("target")
        before = node._compact_closest(target)
        version = node.table.version
        member = node.table.closest(target)[0]
        node.table.observe(member, now=5.0)
        assert node.table.version == version
        assert node._compact_closest(target) is before


class TestCanonicalResponses:
    def test_get_peers_bytes_match_str_keyed_payload(self):
        """Handlers fill bytes-keyed payloads; the wire bytes must equal the
        historical str-keyed construction."""
        node = _populated_node()
        node.store_announce(INFOHASH, ip=1, port=10, start=0.0, end=60.0,
                            seed_from=0.0)
        node.store_announce(INFOHASH, ip=2, port=20, start=0.0, end=60.0)
        query = encode_query(b"t9", "get_peers",
                             {"id": CLIENT_ID, "info_hash": INFOHASH})
        raw = node.handle_query(query, CLIENT_IP, 6881, 30.0)
        expected = bencode({
            "t": b"t9",
            "y": "r",
            "r": {
                "id": node_id_to_bytes(node.node_id),
                "token": node.token_for(CLIENT_IP),
                "nodes": _uncached_blob(node, int.from_bytes(INFOHASH, "big")),
                "values": [pack_compact_peer(1, 10), pack_compact_peer(2, 20)],
                "seeds": 1,
                "peers": 1,
            },
        })
        assert raw == expected

    def test_find_node_and_ping_bytes_match_str_keyed_payload(self):
        node = _populated_node()
        target = derive_node_id("target")
        query = encode_query(b"t1", "find_node",
                             {"id": CLIENT_ID, "target": node_id_to_bytes(target)})
        raw = node.handle_query(query, CLIENT_IP, 6881, 1.0)
        own_id = node_id_to_bytes(node.node_id)
        assert raw == bencode({
            "t": b"t1",
            "y": "r",
            "r": {"id": own_id, "nodes": _uncached_blob(node, target)},
        })
        ping = node.handle_query(
            encode_query(b"t2", "ping", {"id": CLIENT_ID}), CLIENT_IP, 6881, 2.0
        )
        assert ping == bencode({"t": b"t2", "y": "r", "r": {"id": own_id}})

"""Tests for the simulated overlay and the crawler's iterative lookups."""

import random

import pytest

from repro.core.dht_crawler import (
    CRAWLER_DHT_IP,
    PER_HOP_RTT_MINUTES,
    DhtCrawler,
)
from repro.dht import (
    DhtConfig,
    DhtNetwork,
    KrpcResponse,
    decode_message,
    encode_query,
    encode_response,
    node_id_to_bytes,
    xor_distance,
)
from repro.dht import krpc
from repro.dht.network import BOOTSTRAP_COUNT, NUM_NODES
from repro.dht.routing import K
from repro.observability import MetricsRegistry

INFOHASH = b"\x77" * 20


def build_network(seed=11, metrics=None, **overrides):
    config = DhtConfig(**overrides)
    return DhtNetwork.build(
        config, seed=seed, rng=random.Random(seed),
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )


class TestDhtConfig:
    def test_defaults_valid(self):
        DhtConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"message_loss": 1.0},
            {"message_loss": -0.1},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DhtConfig(**kwargs)


class TestBuild:
    def test_deterministic_per_seed(self):
        a = build_network(seed=5)
        b = build_network(seed=5)
        assert [n.node_id for n in a.nodes] == [n.node_id for n in b.nodes]
        assert [len(n.table) for n in a.nodes] == [len(n.table) for n in b.nodes]
        c = build_network(seed=6)
        assert [n.node_id for n in a.nodes] != [n.node_id for n in c.nodes]

    def test_unique_ids_and_ips(self):
        network = build_network()
        assert len({n.node_id for n in network.nodes}) == len(network.nodes)
        assert len({n.ip for n in network.nodes}) == len(network.nodes)

    def test_tables_are_kademlia_partial(self):
        network = build_network()
        assert len(network.nodes) == NUM_NODES == 128
        for node in network.nodes:
            # Far buckets saturate at K; every node knows somebody.
            assert 0 < len(node.table) < NUM_NODES - 1
            assert all(size <= K for size in node.table.bucket_sizes().values())

    def test_bootstrap_ips(self):
        network = build_network()
        ips = network.bootstrap_ips()
        assert len(ips) == BOOTSTRAP_COUNT == 3
        for ip in ips:
            assert network.node_at(ip) is not None


class TestDataPlane:
    def test_send_routes_to_node(self):
        network = build_network()
        dest = network.nodes[0]
        query = encode_query(
            b"t1", "ping", {"id": node_id_to_bytes(network.nodes[1].node_id)}
        )
        raw = network.send(dest.ip, query, network.nodes[1].ip, 6881, now=0.0)
        reply = decode_message(raw)
        assert isinstance(reply, KrpcResponse)
        assert reply.values[b"id"] == node_id_to_bytes(dest.node_id)

    def test_unknown_ip_is_dropped(self):
        network = build_network()
        assert network.send(0x01010101, b"x", 0x02020202, 1, now=0.0) is None

    def test_message_loss_is_seed_deterministic(self):
        def outcomes(seed):
            network = build_network(seed=seed, message_loss=0.5)
            query = encode_query(b"t1", "ping", {"id": b"\x01" * 20})
            return [
                network.send(network.nodes[0].ip, query, 99, 1, now=0.0) is None
                for _ in range(50)
            ]

        assert outcomes(3) == outcomes(3)
        assert True in outcomes(3) and False in outcomes(3)


class TestBatchPlane:
    def test_announce_lands_on_globally_closest(self):
        network = build_network()
        stored_on = network.announce_session(
            INFOHASH, ip=123, port=456, start=0.0, end=100.0, seed_from=10.0
        )
        assert stored_on == K == 8
        target = int.from_bytes(INFOHASH, "big")
        ranked = sorted(
            network.nodes, key=lambda n: xor_distance(n.node_id, target)
        )
        for node in ranked[:K]:
            assert node.stored_intervals(INFOHASH) == 1
        for node in ranked[K:]:
            assert node.stored_intervals(INFOHASH) == 0


class TestIterativeLookup:
    def _crawler(self, network, seed=21):
        return DhtCrawler(
            network, random.Random(seed), metrics=MetricsRegistry()
        )

    def test_lookup_finds_all_active_peers(self):
        network = build_network()
        for i in range(5):
            network.announce_session(
                INFOHASH, ip=1000 + i, port=6881, start=0.0, end=500.0,
                seed_from=0.0 if i == 0 else None,
            )
        result = self._crawler(network).lookup(INFOHASH, now=50.0)
        assert result.found_peers
        assert sorted(result.peer_ips) == [1000, 1001, 1002, 1003, 1004]
        assert (result.seeders, result.leechers) == (1, 4)
        assert result.total_peers == 5
        assert 0 < result.hops <= 32
        assert result.nodes_queried >= BOOTSTRAP_COUNT
        assert result.nodes_with_values >= 1

    def test_lookup_respects_announce_window(self):
        network = build_network()
        network.announce_session(INFOHASH, ip=5, port=1, start=100.0, end=200.0)
        crawler = self._crawler(network)
        assert not crawler.lookup(INFOHASH, now=50.0).found_peers
        assert crawler.lookup(INFOHASH, now=150.0).found_peers
        assert not crawler.lookup(INFOHASH, now=250.0).found_peers

    def test_lookup_deterministic_per_seed(self):
        def run(seed):
            network = build_network(seed=9)
            network.announce_session(INFOHASH, ip=5, port=1, start=0.0, end=99.0)
            result = DhtCrawler(
                network, random.Random(seed), metrics=MetricsRegistry()
            ).lookup(INFOHASH, now=10.0)
            return (result.peers, result.hops, result.nodes_queried)

        assert run(4) == run(4)

    def test_lookup_survives_message_loss(self):
        network = build_network(message_loss=0.3)
        network.announce_session(INFOHASH, ip=5, port=1, start=0.0, end=99.0)
        crawler = self._crawler(network)
        # A single lookup can die at the bootstraps (no retransmit), so
        # judge over several: replication across k nodes must make the
        # channel usable despite 30% loss.
        found = sum(
            crawler.lookup(INFOHASH, now=10.0).found_peers for _ in range(10)
        )
        assert found >= 5
        messages = network.metrics.counter("dht.messages")
        assert (
            messages.value(outcome="lost") + messages.value(outcome="unroutable")
            > 0
        )

    def test_latency_scales_with_hops(self):
        assert PER_HOP_RTT_MINUTES == 0.02
        network = build_network()
        result = self._crawler(network).lookup(INFOHASH, now=0.0)
        assert result.hops > 0
        assert result.latency_minutes == pytest.approx(
            result.hops * PER_HOP_RTT_MINUTES
        )

    def test_lookup_metrics_recorded(self):
        registry = MetricsRegistry()
        network = build_network(metrics=registry)
        network.announce_session(INFOHASH, ip=5, port=1, start=0.0, end=99.0)
        crawler = DhtCrawler(network, random.Random(1), metrics=registry)
        result = crawler.lookup(INFOHASH, now=10.0)
        snapshot = registry.snapshot(include_wall=False)
        assert snapshot["dht.lookups"]["values"]["outcome=peers"] == 1
        # Every query the crawler sends is one message through the network.
        assert snapshot["dht.lookup_queries"]["values"][""] == sum(
            snapshot["dht.messages"]["values"].values()
        )
        assert snapshot["dht.lookup_queries"]["values"][""] == result.nodes_queried
        assert snapshot["dht.lookup_hops"]["values"][""]["count"] == 1
        assert snapshot["dht.lookup_hops"]["values"][""]["sum"] == result.hops


class TestMalformedReplies:
    """A reply that does not decode counts as an unanswered query."""

    def _lookup(self, bootstrap_reply):
        """Lookup with the first bootstrap node's replies replaced by
        ``bootstrap_reply(query, real_reply)``."""
        network = build_network()
        for i in range(5):
            network.announce_session(
                INFOHASH, ip=1000 + i, port=6881, start=0.0, end=500.0
            )
        target_ip = network.bootstrap_ips()[0]
        send = network.send

        def patched(dest_ip, raw, sender_ip, sender_port, now):
            if dest_ip != target_ip:
                return send(dest_ip, raw, sender_ip, sender_port, now)
            return bootstrap_reply(raw, network.node_at(dest_ip))

        network.send = patched
        crawler = DhtCrawler(network, random.Random(21), metrics=MetricsRegistry())
        return crawler.lookup(INFOHASH, now=50.0)

    @staticmethod
    def _ragged_values(raw, node):
        """The node's real reply, with a 7-byte entry after its values."""
        reply = decode_message(node.handle_query(raw, CRAWLER_DHT_IP, 6881, 50.0))
        values = dict(reply.values)
        assert values[b"nodes"]
        values[b"values"] = list(values.get(b"values", [])) + [b"\x00" * 7]
        return encode_response(reply.tid, values)

    def test_undecodable_replies_count_as_unanswered(self):
        unroutable = self._lookup(lambda raw, node: None)
        assert unroutable.found_peers
        assert self._lookup(lambda raw, node: b"not bencode") == unroutable
        assert self._lookup(self._ragged_values) == unroutable

    def test_get_peers_round_trips_skip_the_generic_codec(self, monkeypatch):
        """Every query and reply of a lookup takes the fixed-shape path."""

        def fail(*args):
            raise AssertionError("generic codec reached")

        monkeypatch.setattr(krpc, "bencode", fail)
        monkeypatch.setattr(krpc, "bdecode", fail)
        network = build_network()
        network.announce_session(INFOHASH, ip=5, port=1, start=0.0, end=99.0)
        result = DhtCrawler(
            network, random.Random(21), metrics=MetricsRegistry()
        ).lookup(INFOHASH, now=10.0)
        assert result.peer_ips == [5]
        assert result.nodes_queried > BOOTSTRAP_COUNT

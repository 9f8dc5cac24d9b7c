"""Tests for the Kademlia routing table (repro.dht.routing)."""

import pytest

from repro.dht.routing import (
    K,
    NODE_ID_BITS,
    STALE_AFTER_MINUTES,
    Contact,
    RoutingTable,
    bucket_index,
    derive_node_id,
    node_id_from_bytes,
    node_id_to_bytes,
    xor_distance,
)
from tests.dht_oracles import bucket_sizes


class TestNodeIds:
    def test_bytes_round_trip(self):
        for node_id in (0, 1, 2**159, (1 << 160) - 1):
            assert node_id_from_bytes(node_id_to_bytes(node_id)) == node_id

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            node_id_from_bytes(b"\x00" * 19)
        with pytest.raises(ValueError):
            node_id_to_bytes(1 << 160)
        with pytest.raises(ValueError):
            node_id_to_bytes(-1)

    def test_derive_is_deterministic_and_spread(self):
        a = derive_node_id("dht-node", 2010, 0)
        assert a == derive_node_id("dht-node", 2010, 0)
        others = {derive_node_id("dht-node", 2010, i) for i in range(100)}
        assert len(others) == 100
        assert all(0 <= node_id < (1 << NODE_ID_BITS) for node_id in others)

    def test_bucket_index_is_shared_prefix_length(self):
        local = 1 << 159  # 1000...0
        assert bucket_index(local, 0) == 0  # differ at the first bit
        assert bucket_index(local, local | 1) == 159  # differ at the last bit
        with pytest.raises(ValueError):
            bucket_index(local, local)

    def test_xor_metric_properties(self):
        a, b = derive_node_id("a"), derive_node_id("b")
        assert xor_distance(a, a) == 0
        assert xor_distance(a, b) == xor_distance(b, a)


class TestRoutingTable:
    def _table(self):
        return RoutingTable(local_id=derive_node_id("local"))

    @staticmethod
    def _fill_bucket_zero(table):
        """K + 1 ids in bucket 0 (all differ from the local id in the top
        bit); the first K are observed at minutes 0..K-1, filling it."""
        ids = [(table.local_id ^ (1 << 159)) ^ i for i in range(K + 1)]
        for minute, node_id in enumerate(ids[:K]):
            assert table.observe(Contact(node_id, ip=minute + 1, port=1),
                                 now=float(minute))
        return ids

    def test_observe_and_find(self):
        table = self._table()
        contact = Contact(node_id=derive_node_id("x"), ip=1, port=6881)
        assert table.observe(contact, now=5.0)
        found = table.find(contact.node_id)
        assert found is not None and found.last_seen == 5.0
        assert contact.node_id in table
        assert len(table) == 1

    def test_never_stores_self(self):
        table = self._table()
        me = Contact(node_id=table.local_id, ip=1, port=6881)
        assert not table.observe(me, now=0.0)
        assert len(table) == 0

    def test_reobserve_refreshes_in_place(self):
        table = self._table()
        contact = Contact(node_id=derive_node_id("x"), ip=1, port=6881)
        table.observe(contact, now=1.0)
        table.observe(contact, now=9.0)
        assert len(table) == 1
        assert table.find(contact.node_id).last_seen == 9.0

    def test_full_bucket_drops_newcomer_when_fresh(self):
        assert (K, STALE_AFTER_MINUTES) == (8, 60.0)
        table = self._table()
        ids = self._fill_bucket_zero(table)
        # Bucket full, oldest still fresh: newcomer rejected.
        newcomer = Contact(ids[K], ip=99, port=1)
        assert not table.observe(newcomer, now=STALE_AFTER_MINUTES)
        assert ids[K] not in table
        assert bucket_sizes(table) == {0: K}

    def test_full_bucket_evicts_stale_oldest(self):
        table = self._table()
        ids = self._fill_bucket_zero(table)
        newcomer = Contact(ids[K], ip=99, port=1)
        assert table.observe(newcomer, now=STALE_AFTER_MINUTES + 1.0)
        assert ids[0] not in table  # the stale LRU went
        assert all(node_id in table for node_id in ids[1:])
        assert bucket_sizes(table) == {0: K}

    def test_remove(self):
        table = self._table()
        contact = Contact(node_id=derive_node_id("x"), ip=1, port=6881)
        table.observe(contact, now=0.0)
        table.remove(contact.node_id)
        assert contact.node_id not in table
        table.remove(table.local_id)  # no-op, no raise

    def test_closest_orders_by_xor(self):
        table = self._table()
        ids = [derive_node_id("n", i) for i in range(30)]
        for index, node_id in enumerate(ids):
            table.observe(Contact(node_id, ip=index + 1, port=1), now=0.0)
        target = derive_node_id("target")
        closest = table.closest(target, count=5)
        distances = [xor_distance(c.node_id, target) for c in closest]
        assert distances == sorted(distances)
        # Must be the globally closest subset of what the table retained.
        kept = [c.node_id for bucket in table._buckets.values() for c in bucket]
        best = sorted(kept, key=lambda n: xor_distance(n, target))[:5]
        assert [c.node_id for c in closest] == best

    def test_bucket_sizes_capped_at_k(self):
        table = self._table()
        for i in range(200):
            table.observe(
                Contact(derive_node_id("n", i), ip=i + 1, port=1), now=0.0
            )
        sizes = bucket_sizes(table)
        assert max(sizes.values()) == K
        assert len(table) == sum(sizes.values())

    def test_version_moves_on_membership_changes(self):
        table = self._table()
        assert table.version == 0
        ids = self._fill_bucket_zero(table)
        assert table.version == K  # K inserts
        newcomer = Contact(ids[K], ip=99, port=1)
        table.observe(newcomer, now=K + 1.0)
        assert table.version == K  # dropped newcomer: no change
        table.observe(newcomer, now=STALE_AFTER_MINUTES + 1.0)
        assert table.version == K + 1  # eviction of the stale oldest
        table.remove(ids[1])
        assert table.version == K + 2
        table.remove(ids[1])  # absent: no change
        table.remove(table.local_id)
        assert table.version == K + 2

    def test_last_seen_refresh_keeps_version(self):
        table = self._table()
        contact = Contact(node_id=derive_node_id("x"), ip=1, port=6881)
        table.observe(contact, now=1.0)
        version = table.version
        table.observe(contact, now=9.0)
        assert table.version == version
        assert table.find(contact.node_id).last_seen == 9.0

    def test_address_change_moves_version(self):
        table = self._table()
        node_id = derive_node_id("x")
        table.observe(Contact(node_id, ip=1, port=6881), now=1.0)
        version = table.version
        table.observe(Contact(node_id, ip=2, port=6881), now=2.0)
        assert table.version == version + 1
        assert table.find(node_id).ip == 2

"""Kademlia routing table: 160-bit node ids, XOR metric, k-buckets.

Node ids share the infohash keyspace, so "the nodes responsible for a
torrent" are simply the ids XOR-closest to its infohash.  The table keeps
one bucket per shared-prefix length with the local id (bucket ``i`` holds
contacts whose ids agree with ours on exactly ``i`` leading bits), each
bounded at :data:`K` contacts.

Eviction follows Kademlia's "old contacts are good contacts" rule,
deterministically: a full bucket replaces its least-recently-seen contact
only when that contact has not been heard from for
:data:`STALE_AFTER_MINUTES` simulated minutes; otherwise the newcomer is dropped.  Re-observing a
known contact refreshes its ``last_seen`` in place.

``version`` counts membership changes (insert, eviction, removal, a known
id moving to a new address).  A ``last_seen`` refresh leaves it alone,
because it cannot change what :meth:`RoutingTable.closest` returns: ids
are distinct, so the XOR order ignores bucket order.  Callers key caches
of ``closest`` results on it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

NODE_ID_BITS = 160
NODE_ID_BYTES = NODE_ID_BITS // 8
# Kademlia's bucket size and replication factor; BEP 5 fixes it at 8.
K = 8
# A full bucket's oldest contact is replaced once silent this long.
STALE_AFTER_MINUTES = 60.0


def node_id_from_bytes(raw: bytes) -> int:
    if len(raw) != NODE_ID_BYTES:
        raise ValueError(f"node id must be {NODE_ID_BYTES} bytes, got {len(raw)}")
    return int.from_bytes(raw, "big")


def node_id_to_bytes(node_id: int) -> bytes:
    if not 0 <= node_id < (1 << NODE_ID_BITS):
        raise ValueError(f"node id {node_id} outside the 160-bit keyspace")
    return node_id.to_bytes(NODE_ID_BYTES, "big")


def derive_node_id(*parts: object) -> int:
    """A deterministic 160-bit id from arbitrary seed material."""
    material = "|".join(str(part) for part in parts).encode("utf-8")
    return node_id_from_bytes(hashlib.sha1(material).digest())


def xor_distance(a: int, b: int) -> int:
    return a ^ b


def bucket_index(local_id: int, other_id: int) -> int:
    """Shared-prefix length of the two ids (the k-bucket index)."""
    distance = local_id ^ other_id
    if distance == 0:
        raise ValueError("a node does not keep itself in its routing table")
    return NODE_ID_BITS - distance.bit_length()


@dataclass(frozen=True)
class Contact:
    """One routing-table entry."""

    node_id: int
    ip: int
    port: int
    last_seen: float = 0.0


class RoutingTable:
    """The k-buckets of one DHT node."""

    def __init__(self, local_id: int) -> None:
        self.local_id = local_id
        # bucket index -> contacts ordered least- to most-recently seen.
        self._buckets: Dict[int, List[Contact]] = {}
        self.version = 0

    def observe(self, contact: Contact, now: float) -> bool:
        """Record evidence that ``contact`` is alive at ``now``.

        Returns True when the contact is (now) in the table, False when the
        bucket was full of fresh contacts and the newcomer was dropped.
        """
        if contact.node_id == self.local_id:
            return False
        if contact.last_seen != now:
            # Contacts are frozen: one stamped ``now`` is stored as given.
            contact = Contact(contact.node_id, contact.ip, contact.port, now)
        index = bucket_index(self.local_id, contact.node_id)
        bucket = self._buckets.setdefault(index, [])
        for position, existing in enumerate(bucket):
            if existing.node_id == contact.node_id:
                # Known contact: refresh and move to the fresh end.
                bucket.pop(position)
                bucket.append(contact)
                if existing.ip != contact.ip or existing.port != contact.port:
                    self.version += 1
                return True
        if len(bucket) >= K:
            if now - bucket[0].last_seen <= STALE_AFTER_MINUTES:
                return False
            # Kademlia would ping the oldest first; the simulation resolves
            # the ping outcome by staleness, deterministically.
            bucket.pop(0)
        bucket.append(contact)
        self.version += 1
        return True

    def remove(self, node_id: int) -> None:
        try:
            index = bucket_index(self.local_id, node_id)
        except ValueError:
            return
        bucket = self._buckets.get(index)
        if bucket is None:
            return
        kept = [c for c in bucket if c.node_id != node_id]
        if len(kept) != len(bucket):
            self._buckets[index] = kept
            self.version += 1

    def find(self, node_id: int) -> Optional[Contact]:
        try:
            index = bucket_index(self.local_id, node_id)
        except ValueError:
            return None
        for contact in self._buckets.get(index, ()):
            if contact.node_id == node_id:
                return contact
        return None

    def closest(self, target: int, count: int = K) -> List[Contact]:
        """The ``count`` contacts XOR-closest to ``target``."""
        contacts = [c for bucket in self._buckets.values() for c in bucket]
        contacts.sort(key=lambda c: c.node_id ^ target)
        return contacts[:count]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __contains__(self, node_id: int) -> bool:
        return self.find(node_id) is not None

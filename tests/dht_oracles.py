"""Views of DHT state that only tests read.

The crawl never asks how many announces a node stores or how full each
routing bucket is, so :mod:`repro.dht` keeps no accessor for either; tests
that check those counts read the state here.
"""

from __future__ import annotations

from typing import Dict

from repro.dht.node import DhtNode
from repro.dht.routing import RoutingTable


def stored_intervals(node: DhtNode, infohash: bytes) -> int:
    """How many announce intervals ``node`` stores for ``infohash``."""
    return len(node._store.get(infohash, ()))


def bucket_sizes(table: RoutingTable) -> Dict[int, int]:
    """Contacts per non-empty bucket of ``table``."""
    return {index: len(bucket) for index, bucket in table._buckets.items() if bucket}

"""The DHT plane's cheap paths give what the plain constructions give.

Each test pins one shortcut against the construction it replaces: the
frontier pick against the original in ``tests/dht_reference.py``, one
shared ``StoredPeer`` per session against a per-node ``store_announce``,
the token memo against its SHA-1 formula, and a ``Contact`` stored as given
against one rebuilt with the observation time.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dht_crawler import ALPHA, DhtCrawler, _Candidate
from repro.dht import DhtConfig, DhtNetwork
from repro.dht.node import DhtNode
from repro.dht.routing import K, Contact, RoutingTable, derive_node_id
from repro.observability import MetricsRegistry
from tests.dht_oracles import stored_intervals
from tests.dht_reference import pick_frontier_reference

INFOHASH = b"\x3c" * 20


def build_network(seed=11, **overrides):
    return DhtNetwork.build(
        DhtConfig(**overrides), seed=seed, rng=random.Random(seed),
        metrics=MetricsRegistry(),
    )


def make_crawler(network, seed=3):
    return DhtCrawler(network, random.Random(seed), metrics=MetricsRegistry())


# One crawler serves every frontier example; _pick_frontier reads no state.
_CRAWLER = make_crawler(build_network())


# ----------------------------------------------------------------------
# Cut 4: one distance per candidate per round
# ----------------------------------------------------------------------
_ID_BITS = 12  # small ids, so equal distances and duplicate ids occur


@st.composite
def candidate_sets(draw):
    """Candidates keyed by IP in insertion order, and a lookup target."""
    count = draw(st.integers(min_value=0, max_value=40))
    known_ids = st.one_of(st.none(), st.integers(0, (1 << _ID_BITS) - 1))
    all_queried = draw(st.booleans())
    candidates = {}
    for ip in draw(st.permutations(range(count))):
        queried = True if all_queried else draw(st.booleans())
        candidates[ip] = _Candidate(
            ip=ip,
            port=6881,
            node_id=draw(known_ids),
            queried=queried,
            # Responded without queried never arises in a lookup; both
            # pickers must still agree on it.
            responded=draw(st.booleans()),
        )
    return candidates, draw(st.integers(0, (1 << _ID_BITS) - 1))


def _ips(picked):
    return [candidate.ip for candidate in picked]


@given(candidate_sets())
@settings(max_examples=500, deadline=None)
def test_frontier_matches_reference(case):
    candidates, target = case
    picked = _CRAWLER._pick_frontier(candidates, target)
    reference = pick_frontier_reference(candidates, target)
    assert _ips(picked) == _ips(reference)
    assert all(a is b for a, b in zip(picked, reference))


class TestFrontierCases:
    def _candidates(self, specs):
        """specs: (node_id, queried, responded) per candidate, IPs 0, 1, ..."""
        return {
            ip: _Candidate(ip=ip, port=6881, node_id=node_id,
                           queried=queried, responded=responded)
            for ip, (node_id, queried, responded) in enumerate(specs)
        }

    def _assert_same(self, candidates, target):
        picked = _CRAWLER._pick_frontier(candidates, target)
        assert _ips(picked) == _ips(pick_frontier_reference(candidates, target))
        return _ips(picked)

    def test_unknown_ids_keep_insertion_order(self):
        candidates = self._candidates([(None, False, False)] * 5)
        assert self._assert_same(candidates, target=7) == [0, 1, 2]

    def test_unknown_ids_sort_before_known(self):
        candidates = self._candidates(
            [(5, False, False), (None, False, False), (0, False, False),
             (None, False, False)])
        assert self._assert_same(candidates, target=0) == [1, 3, 2]

    def test_fewer_than_k_responders_apply_no_threshold(self):
        specs = [(1000 + i, True, True) for i in range(K - 1)]
        specs += [(5000 + i, False, False) for i in range(5)]
        candidates = self._candidates(specs)
        assert self._assert_same(candidates, target=0) == [K - 1, K, K + 1]

    def test_k_responders_cut_farther_candidates(self):
        specs = [(100 + i, True, True) for i in range(K)]
        specs += [(90, False, False), (5000, False, False), (50, False, False)]
        candidates = self._candidates(specs)
        assert self._assert_same(candidates, target=0) == [K + 2, K]

    def test_more_than_k_responders_and_threshold_ties(self):
        specs = [(100 + i, True, True) for i in range(2 * K)]
        threshold = 100 + K - 1
        specs += [(threshold, False, False), (threshold - 1, False, False)]
        candidates = self._candidates(specs)
        # A candidate at exactly the K-th distance is not closer.
        assert self._assert_same(candidates, target=0) == [2 * K + 1]

    def test_all_queried_converges(self):
        candidates = self._candidates([(i, True, i % 2 == 0) for i in range(12)])
        assert self._assert_same(candidates, target=3) == []

    def test_no_candidates(self):
        assert self._assert_same({}, target=3) == []

    def test_at_most_alpha(self):
        candidates = self._candidates([(i, False, False) for i in range(10)])
        assert len(self._assert_same(candidates, target=0)) == ALPHA


@pytest.mark.parametrize("message_loss", [0.0, 0.3])
def test_whole_lookups_match_reference_picker(message_loss):
    """Every lookup result is the same with either picker."""
    results = []
    for picker in (None, pick_frontier_reference):
        network = build_network(seed=5, message_loss=message_loss)
        crawler = make_crawler(network)
        if picker is not None:
            crawler._pick_frontier = picker
        rng = random.Random(8)
        for index in range(12):
            infohash = bytes(rng.randrange(256) for _ in range(20))
            for ip in range(5):
                network.announce_session(infohash, ip=ip + 1, port=1,
                                         start=0.0, end=100.0 + index)
        rng = random.Random(8)
        results.append([
            crawler.lookup(bytes(rng.randrange(256) for _ in range(20)), now=50.0)
            for _ in range(12)
        ])
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# Cut 1: one StoredPeer per session
# ----------------------------------------------------------------------
_sessions = st.lists(
    st.tuples(
        st.integers(1, 2**32 - 1),
        st.integers(1, 0xFFFF),
        st.floats(0.0, 500.0),
        st.floats(0.0, 300.0) | st.just(0.0),  # length; 0 is a zero-length session
        st.none() | st.floats(0.0, 800.0),
    ),
    max_size=30,
)


@given(_sessions)
@settings(max_examples=40, deadline=None)
def test_announce_session_equals_per_node_store_announce(sessions):
    shared, per_node = build_network(seed=4), build_network(seed=4)
    responsible = per_node.closest_nodes(int.from_bytes(INFOHASH, "big"), K)
    for ip, port, start, length, seed_from in sessions:
        stored_on = shared.announce_session(
            INFOHASH, ip=ip, port=port, start=start, end=start + length,
            seed_from=seed_from)
        assert stored_on == K
        for node in responsible:
            node.store_announce(INFOHASH, ip=ip, port=port, start=start,
                                end=start + length, seed_from=seed_from)
    assert shared.metrics.counter("dht.announces_stored").total() == K * len(sessions)
    for now in (0.0, 0.5, 100.0, 250.0, 499.9, 650.0, 900.0):
        for a, b in zip(shared.nodes, per_node.nodes):
            assert a.peers_for(INFOHASH, now) == b.peers_for(INFOHASH, now)
            assert stored_intervals(a, INFOHASH) == stored_intervals(b, INFOHASH)


def test_announce_session_shares_one_frozen_peer():
    network = build_network()
    network.announce_session(INFOHASH, ip=9, port=1, start=0.0, end=10.0,
                             seed_from=4.0)
    stored = [node.peers_for(INFOHASH, 5.0) for node in network.nodes]
    stored = [peers[0] for peers in stored if peers]
    assert len(stored) == K
    assert all(peer is stored[0] for peer in stored)


def test_zero_length_session_counts_but_is_not_stored():
    network = build_network()
    assert network.announce_session(INFOHASH, ip=9, port=1, start=5.0, end=5.0) == K
    assert network.metrics.counter("dht.announces_stored").total() == K
    assert all(stored_intervals(node, INFOHASH) == 0 for node in network.nodes)


@pytest.mark.parametrize("infohash", [b"", b"\x01" * 19, b"\x01" * 21])
def test_bad_infohash_raises_before_any_node_stores(infohash):
    network = build_network()
    network.announce_session(INFOHASH, ip=9, port=1, start=0.0, end=10.0)
    before = [dict(node._store) for node in network.nodes]
    with pytest.raises(ValueError, match="20 bytes"):
        network.announce_session(infohash, ip=9, port=1, start=0.0, end=10.0)
    assert [dict(node._store) for node in network.nodes] == before
    assert network.metrics.counter("dht.announces_stored").total() == K


# ----------------------------------------------------------------------
# Cut 3: the token memo
# ----------------------------------------------------------------------
def _token_formula(node, ip):
    return hashlib.sha1(node._token_secret + ip.to_bytes(4, "big")).digest()[:8]


@given(st.lists(st.integers(0, 2**32 - 1), max_size=20),
       st.binary(max_size=12))
@settings(max_examples=100, deadline=None)
def test_token_memo_equals_sha1_formula(ips, secret):
    node = DhtNode(node_id=derive_node_id("token-node"), ip=1,
                   announce_ttl=45.0, rng=random.Random(0), token_secret=secret)
    for ip in ips + ips:  # every IP at least twice: cold, then memoised
        assert node.token_for(ip) == _token_formula(node, ip)


def test_token_memo_still_rejects_an_out_of_range_ip():
    node = DhtNode(node_id=derive_node_id("token-node"), ip=1,
                   announce_ttl=45.0, rng=random.Random(0))
    with pytest.raises(OverflowError):
        node.token_for(2**32)


# ----------------------------------------------------------------------
# Cut 2: one Contact per observation
# ----------------------------------------------------------------------
_LOCAL_ID = derive_node_id("observe-local")
# A few far ids (one crowded bucket) and a few spread ones.
_IDS = [_LOCAL_ID ^ (1 << 159) ^ i for i in range(1, 12)] + [
    derive_node_id("observe", i) for i in range(6)]

_observations = st.lists(
    st.tuples(
        st.sampled_from(_IDS),
        st.integers(1, 4),  # ip
        st.integers(1, 3),  # port
        st.floats(0.0, 90.0),  # minutes since the previous observation
        st.floats(0.0, 500.0),  # how stale the stale stamp is
    ),
    max_size=60,
)


@given(_observations)
@settings(max_examples=200, deadline=None)
def test_observe_stamped_now_equals_stale_contact(observations):
    stamped, stale = RoutingTable(_LOCAL_ID), RoutingTable(_LOCAL_ID)
    now = 0.0
    for node_id, ip, port, step, staleness in observations:
        now += step
        kept = stamped.observe(Contact(node_id, ip, port, last_seen=now), now)
        assert stale.observe(Contact(node_id, ip, port, last_seen=now - staleness - 1),
                             now) == kept
        assert stamped._buckets == stale._buckets
        assert stamped.version == stale.version
        if kept:
            assert stale.find(node_id).last_seen == now


def test_observe_stores_a_contact_stamped_now_as_given():
    table = RoutingTable(_LOCAL_ID)
    contact = Contact(_IDS[0], 1, 2, last_seen=7.0)
    table.observe(contact, 7.0)
    assert table.find(_IDS[0]) is contact
    table.observe(Contact(_IDS[0], 1, 2, last_seen=3.0), 9.0)
    assert table.find(_IDS[0]) == Contact(_IDS[0], 1, 2, last_seen=9.0)


def test_build_shares_one_contact_per_node():
    network = build_network()
    by_id = {}
    for node in network.nodes:
        for other in network.nodes:
            contact = node.table.find(other.node_id)
            if contact is not None:
                assert by_id.setdefault(contact.node_id, contact) is contact
    assert len(by_id) == len(network.nodes)

"""Substrate micro-benchmarks: the hot paths a campaign exercises millions
of times (bencode round-trips, swarm queries, tracker announces).

These are performance benchmarks proper (pytest-benchmark timing), included
so regressions in the simulation kernel are visible.
"""

import random

from repro.bencode import bdecode, bencode
from repro.observability import MetricsRegistry
from repro.swarm import PeerSession, Swarm
from repro.torrent import build_torrent, parse_torrent
from repro.torrent.metainfo import _derive_pieces
from repro.tracker.protocol import (
    decode_announce_response,
    encode_announce_success,
)
from repro.tracker import AnnounceRequest, Tracker, TrackerConfig

IH = b"\x77" * 20


def _dense_swarm(n=2000):
    rng = random.Random(3)
    swarm = Swarm(infohash=IH, birth_time=0.0, metrics=MetricsRegistry())
    swarm.add_session(
        PeerSession(ip=1, join_time=0, leave_time=100_000, complete_time=0,
                    is_publisher=True)
    )
    for i in range(n):
        join = rng.uniform(0, 10_000)
        stay = rng.uniform(30, 600)
        swarm.add_session(
            PeerSession(
                ip=100 + i,
                join_time=join,
                leave_time=join + stay,
                complete_time=join + stay * 0.8 if rng.random() < 0.5 else None,
            )
        )
    swarm.freeze()
    return swarm


def test_bench_bencode_roundtrip(benchmark):
    payload = {
        "interval": 900,
        "complete": 12,
        "incomplete": 345,
        "peers": bytes(range(256)) * 4,
        "nested": [{"a": 1, "b": b"x" * 50}] * 10,
    }

    def roundtrip():
        return bdecode(bencode(payload))

    result = benchmark(roundtrip)
    assert result[b"interval"] == 900


def test_bench_metainfo_parse(benchmark):
    data = build_torrent("http://t.sim/a", "Some.Release.2010", 700_000_000)
    meta = benchmark(parse_torrent, data)
    assert meta.total_length == 700_000_000


def test_bench_swarm_query_stream(benchmark):
    """Time-ordered query stream over a 2k-peer swarm (the crawl hot loop)."""

    def run():
        swarm = _dense_swarm()
        rng = random.Random(9)
        total = 0
        for t in range(0, 12_000, 15):
            total += swarm.query(float(t), 200, rng).size
        return total

    total = benchmark.pedantic(run, rounds=3, iterations=1)
    assert total > 0


def test_bench_tracker_announce(benchmark):
    tracker = Tracker(
        "http://t.sim/a", random.Random(1), TrackerConfig(), metrics=MetricsRegistry()
    )
    tracker.register_swarm(_dense_swarm(500))
    state = {"t": 0.0, "client": 0}

    def announce_once():
        # A fresh client each call sidesteps the rate limiter; time advances.
        state["t"] += 0.01
        state["client"] += 1
        return tracker.announce(
            AnnounceRequest(infohash=IH, client_ip=state["client"]), state["t"]
        )

    raw = benchmark(announce_once)
    assert raw.startswith(b"d")


def test_bench_piece_derivation_cold(benchmark):
    """Full piece-hash derivation for a 700 MB torrent."""
    def derive():
        return _derive_pieces("Some.Release.2010", 700_000_000, 256 * 1024)

    pieces = benchmark.pedantic(derive, rounds=3, iterations=1)
    assert len(pieces) == 20 * -(-700_000_000 // (256 * 1024))


def test_bench_announce_codec_roundtrip(benchmark):
    """Encode + decode one max-size announce (200 compact peers)."""
    ips = list(range(10_000, 10_200))

    def roundtrip():
        wire = encode_announce_success(
            interval_seconds=900, seeders=12, leechers=345, ips=ips
        )
        return decode_announce_response(wire)

    response = benchmark(roundtrip)
    assert len(response.peers) == 200


def test_bench_bdecode_large_response(benchmark):
    """Decode a large (16 KiB peers) response handed over as a bytearray."""
    wire = bytearray(
        bencode({b"interval": 900, b"peers": bytes(range(256)) * 64})
    )
    decoded = benchmark(bdecode, wire)
    assert decoded[b"interval"] == 900

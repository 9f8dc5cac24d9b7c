"""Unit tests for the tracker: protocol codec and server policy."""

import random

import pytest

from repro.observability import MetricsRegistry
from repro.swarm import PeerSession, Swarm
from repro.tracker import (
    AnnounceRequest,
    Tracker,
    TrackerConfig,
    TrackerError,
    decode_announce_response,
    decode_scrape_response,
    peer_port_for_ip,
)
from repro.tracker.protocol import (
    encode_announce_success,
    encode_failure,
    encode_peers_compact,
)
from repro.tracker.server import (
    BLACKLIST_THRESHOLD,
    MAX_NUMWANT,
    WIRE_SAMPLE_INTERVAL,
)

IH = b"\x22" * 20
CLIENT = 0x0A000001


def make_tracker(min_interval=10.0, max_interval=15.0):
    return Tracker(
        "http://t.sim/announce",
        random.Random(0),
        TrackerConfig(min_interval=min_interval, max_interval=max_interval),
        metrics=MetricsRegistry(),
    )


def make_swarm(n_peers=5, n_seeders=1):
    swarm = Swarm(infohash=IH, birth_time=0.0, metrics=MetricsRegistry())
    for i in range(n_seeders):
        swarm.add_session(
            PeerSession(ip=1000 + i, join_time=0, leave_time=10_000,
                        complete_time=0, is_publisher=True)
        )
    for i in range(n_peers - n_seeders):
        swarm.add_session(
            PeerSession(ip=2000 + i, join_time=0, leave_time=10_000)
        )
    swarm.freeze()
    return swarm


class TestProtocolCodec:
    def test_compact_peers_roundtrip(self):
        ips = [0x01020304, 0xC0A80101]
        blob = encode_peers_compact(ips)
        assert len(blob) == 12
        data = encode_announce_success(900, 1, 1, ips)
        response = decode_announce_response(data)
        assert response.peer_ips == ips
        assert response.peers[0][1] == peer_port_for_ip(ips[0])

    def test_counts_roundtrip(self):
        response = decode_announce_response(
            encode_announce_success(720, 3, 17, [])
        )
        assert response.seeders == 3
        assert response.leechers == 17
        assert response.interval_seconds == 720
        assert response.total_peers == 20

    def test_failure_raises(self):
        with pytest.raises(TrackerError, match="nope"):
            decode_announce_response(encode_failure("nope"))

    def test_malformed_peers_blob(self):
        from repro.bencode import bencode

        bad = bencode({"interval": 1, "complete": 0, "incomplete": 0,
                       "peers": b"12345"})
        with pytest.raises(TrackerError, match="multiple of 6"):
            decode_announce_response(bad)

    def test_missing_keys(self):
        from repro.bencode import bencode

        with pytest.raises(TrackerError, match="missing"):
            decode_announce_response(bencode({"interval": 1}))

    def test_non_bytes_failure_reason_rejected(self):
        with pytest.raises(TrackerError, match="failure reason"):
            decode_announce_response(b"d14:failure reasoni1ee")
        with pytest.raises(TrackerError, match="failure reason"):
            decode_scrape_response(b"d14:failure reasoni1ee")

    def test_non_int_interval_rejected(self):
        with pytest.raises(TrackerError, match="'interval' is not an integer"):
            decode_announce_response(
                b"d8:completei1e10:incompletei1e8:interval3:abc5:peers0:e"
            )

    def test_scrape_non_int_count_rejected(self):
        with pytest.raises(TrackerError, match="'complete' is not an integer"):
            decode_scrape_response(b"d5:filesd20:" + IH + b"d8:complete1:xeee")

    def test_scrape_short_infohash_rejected(self):
        with pytest.raises(TrackerError, match="20 bytes"):
            decode_scrape_response(b"d5:filesd3:abcd8:completei1eeee")

    def test_request_validation(self):
        with pytest.raises(ValueError):
            AnnounceRequest(infohash=b"short", client_ip=1)
        with pytest.raises(ValueError):
            AnnounceRequest(infohash=IH, client_ip=1, numwant=-1)


class TestTrackerServer:
    def test_announce_returns_peers_and_counts(self):
        tracker = make_tracker()
        tracker.register_swarm(make_swarm(n_peers=5, n_seeders=2))
        raw = tracker.announce(AnnounceRequest(infohash=IH, client_ip=CLIENT), 10.0)
        response = decode_announce_response(raw)
        assert response.seeders == 2
        assert response.leechers == 3
        assert len(response.peers) == 5

    def test_numwant_respected(self):
        tracker = make_tracker()
        tracker.register_swarm(make_swarm(n_peers=30))
        raw = tracker.announce(
            AnnounceRequest(infohash=IH, client_ip=CLIENT, numwant=7), 10.0
        )
        assert len(decode_announce_response(raw).peers) == 7

    def test_numwant_capped_at_config(self):
        assert MAX_NUMWANT == 200
        tracker = make_tracker()
        tracker.register_swarm(make_swarm(n_peers=MAX_NUMWANT + 50))
        raw = tracker.announce(
            AnnounceRequest(infohash=IH, client_ip=CLIENT, numwant=1000), 10.0
        )
        assert len(decode_announce_response(raw).peers) == MAX_NUMWANT

    def test_unknown_infohash_fails(self):
        tracker = make_tracker()
        raw = tracker.announce(AnnounceRequest(infohash=IH, client_ip=CLIENT), 1.0)
        with pytest.raises(TrackerError, match="unregistered"):
            decode_announce_response(raw)

    def test_rate_limit_enforced(self):
        tracker = make_tracker(min_interval=10.0)
        tracker.register_swarm(make_swarm())
        req = AnnounceRequest(infohash=IH, client_ip=CLIENT)
        decode_announce_response(tracker.announce(req, 0.0))
        with pytest.raises(TrackerError, match="frequent"):
            decode_announce_response(tracker.announce(req, 5.0))
        # After the interval it works again.
        decode_announce_response(tracker.announce(req, 10.5))

    def test_rate_limit_is_per_client(self):
        tracker = make_tracker(min_interval=10.0)
        tracker.register_swarm(make_swarm())
        decode_announce_response(
            tracker.announce(AnnounceRequest(infohash=IH, client_ip=1), 0.0)
        )
        # A different client may announce immediately.
        decode_announce_response(
            tracker.announce(AnnounceRequest(infohash=IH, client_ip=2), 0.1)
        )

    def test_blacklist_after_repeated_violations(self):
        assert BLACKLIST_THRESHOLD == 5
        tracker = make_tracker(min_interval=10.0)
        tracker.register_swarm(make_swarm())
        req = AnnounceRequest(infohash=IH, client_ip=CLIENT)
        tracker.announce(req, 0.0)
        for i in range(BLACKLIST_THRESHOLD - 1):
            tracker.announce(req, 0.1 + i * 0.01)
        assert not tracker.is_blacklisted(CLIENT)
        tracker.announce(req, 0.5)
        assert tracker.is_blacklisted(CLIENT)
        with pytest.raises(TrackerError, match="banned"):
            decode_announce_response(tracker.announce(req, 100.0))

    def test_interval_within_bounds(self):
        tracker = make_tracker(min_interval=10.0, max_interval=15.0)
        tracker.register_swarm(make_swarm())
        raw = tracker.announce(AnnounceRequest(infohash=IH, client_ip=CLIENT), 0.0)
        interval = decode_announce_response(raw).interval_seconds
        assert 10 * 60 <= interval <= 15 * 60

    def test_duplicate_swarm_rejected(self):
        tracker = make_tracker()
        tracker.register_swarm(make_swarm())
        with pytest.raises(ValueError, match="already"):
            tracker.register_swarm(make_swarm())

    def test_scrape(self):
        tracker = make_tracker()
        swarm = Swarm(infohash=IH, birth_time=0.0, metrics=MetricsRegistry())
        swarm.add_session(
            PeerSession(ip=1, join_time=0, leave_time=100, complete_time=0,
                        is_publisher=True)
        )
        swarm.add_session(PeerSession(ip=2, join_time=0, leave_time=50,
                                      complete_time=30))
        swarm.freeze()
        tracker.register_swarm(swarm)
        result = decode_scrape_response(tracker.scrape((IH,), 60.0))
        assert result[IH].seeders == 1  # downloader left at 50
        assert result[IH].completed == 1
        assert result[IH].leechers == 0

    def test_scrape_unknown_hash_skipped(self):
        tracker = make_tracker()
        result = decode_scrape_response(tracker.scrape((IH,), 1.0))
        assert result == {}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(min_interval=0)
        with pytest.raises(ValueError):
            TrackerConfig(min_interval=20, max_interval=10)


class TestWireFidelity:
    """``announce_object`` (sampled mode) must be policy-identical to the
    byte path: same rng stream, same peers/counts/intervals, same counters,
    same failure messages -- only the per-announce serialisation differs."""

    @staticmethod
    def _results(tracker):
        """``tracker.announces`` by result label, e.g. {"result=served": 8}."""
        return tracker.metrics.snapshot()["tracker.announces"]["values"]

    @staticmethod
    def _responses_encoded(tracker):
        """Responses that went through the codec: every byte-path announce,
        and each checked sample on the object path."""
        return tracker.metrics.histogram("tracker.response_bytes").count()

    @staticmethod
    def _paired_trackers(**config_kwargs):
        # Same seed, structurally identical swarms: the two trackers see
        # identical rng streams and identical swarm timelines.
        pair = []
        for fidelity in ("full", "sampled"):
            tracker = Tracker(
                "http://t.sim/announce",
                random.Random(42),
                TrackerConfig(wire_fidelity=fidelity, **config_kwargs),
                metrics=MetricsRegistry(),
            )
            tracker.register_swarm(make_swarm(n_peers=30, n_seeders=4))
            pair.append(tracker)
        return pair

    def test_config_validation(self):
        with pytest.raises(ValueError, match="wire_fidelity"):
            TrackerConfig(wire_fidelity="compressed")

    def test_served_responses_identical(self):
        full, sampled = self._paired_trackers()
        for step in range(8):
            request = AnnounceRequest(
                infohash=IH, client_ip=CLIENT + step, numwant=10
            )
            now = 1.0 + step
            from_bytes = decode_announce_response(full.announce(request, now))
            from_object = sampled.announce_object(request, now)
            assert from_object == from_bytes
        assert self._results(full) == self._results(sampled) == {
            "result=served": 8
        }

    def test_rejections_raise_with_byte_path_message(self):
        full, sampled = self._paired_trackers()
        unknown = AnnounceRequest(infohash=b"\x33" * 20, client_ip=CLIENT)
        with pytest.raises(TrackerError) as from_bytes:
            decode_announce_response(full.announce(unknown, 1.0))
        with pytest.raises(TrackerError) as from_object:
            sampled.announce_object(unknown, 1.0)
        assert str(from_object.value) == str(from_bytes.value)
        assert self._results(full) == self._results(sampled) == {
            "result=rejected_unknown": 1
        }

    def test_rate_limit_parity(self):
        full, sampled = self._paired_trackers(min_interval=10.0)
        request = AnnounceRequest(infohash=IH, client_ip=CLIENT)
        full.announce(request, 1.0)
        sampled.announce_object(request, 1.0)
        with pytest.raises(TrackerError, match="too frequent"):
            decode_announce_response(full.announce(request, 2.0))
        with pytest.raises(TrackerError, match="too frequent"):
            sampled.announce_object(request, 2.0)

    def test_rng_stream_parity_with_overload(self):
        # failure_probability draws from the rng on every announce; if the
        # object path drew differently the outcome sequences would diverge.
        full, sampled = self._paired_trackers(failure_probability=0.3)

        def outcomes(tracker, call):
            result = []
            for step in range(30):
                request = AnnounceRequest(
                    infohash=IH, client_ip=CLIENT + step, numwant=5
                )
                try:
                    response = call(tracker, request, 1.0 + step)
                except TrackerError as exc:
                    result.append(str(exc))
                else:
                    result.append(response)
            return result

        full_outcomes = outcomes(
            full, lambda t, r, now: decode_announce_response(t.announce(r, now))
        )
        sampled_outcomes = outcomes(
            sampled, lambda t, r, now: t.announce_object(r, now)
        )
        assert full_outcomes == sampled_outcomes

    def test_every_message_checked_at_interval_one(self):
        """Rejections count towards the sample and are checked when they
        land on it, as served responses are."""
        _, sampled = self._paired_trackers()
        for step in range(WIRE_SAMPLE_INTERVAL - 1):
            sampled.announce_object(
                AnnounceRequest(infohash=IH, client_ip=CLIENT + step), 1.0 + step
            )
        assert self._responses_encoded(sampled) == 0
        with pytest.raises(TrackerError):
            sampled.announce_object(
                AnnounceRequest(infohash=b"\x44" * 20, client_ip=CLIENT), 100.0
            )
        assert self._responses_encoded(sampled) == 1

    def test_sampling_interval_respected(self):
        assert WIRE_SAMPLE_INTERVAL == 64
        _, sampled = self._paired_trackers()
        for step in range(2 * WIRE_SAMPLE_INTERVAL + 2):
            sampled.announce_object(
                AnnounceRequest(infohash=IH, client_ip=CLIENT + step), 1.0 + step
            )
        assert self._responses_encoded(sampled) == 2  # messages 64 and 128

    def test_byte_path_never_samples(self):
        full, _ = self._paired_trackers()
        for step in range(WIRE_SAMPLE_INTERVAL):
            full.announce(
                AnnounceRequest(infohash=IH, client_ip=CLIENT + step), 1.0 + step
            )
        # One encoding per response; no extra round-trip check.
        assert self._responses_encoded(full) == WIRE_SAMPLE_INTERVAL

    def test_announce_counters_identical(self):
        full, sampled = self._paired_trackers()
        unknown = AnnounceRequest(infohash=b"\x55" * 20, client_ip=CLIENT)
        for step in range(6):
            request = AnnounceRequest(infohash=IH, client_ip=CLIENT + step)
            full.announce(request, 1.0 + step)
            sampled.announce_object(request, 1.0 + step)
        full.announce(unknown, 20.0)
        with pytest.raises(TrackerError):
            sampled.announce_object(unknown, 20.0)
        full_counts = full.metrics.counter("tracker.announces").value
        sampled_counts = sampled.metrics.counter("tracker.announces").value
        for result in ("served", "rejected_unknown"):
            assert full_counts(result=result) == sampled_counts(result=result)

"""Unit tests for the single-seeder/bitfield identification rule."""

import pytest

from repro.core.datasets import IdentificationOutcome
from repro.core.identification import identify_publisher
from repro.observability import MetricsRegistry
from repro.peerwire import BitfieldProber
from repro.swarm import PeerSession, Swarm
from repro.tracker import AnnounceResponse

IH = b"\x44" * 20
PEER_ID = b"-RP1000-repro-test00"


def make_swarm(publisher_natted=False, extra_seeder=False, leechers=3):
    swarm = Swarm(infohash=IH, birth_time=0.0, metrics=MetricsRegistry())
    swarm.add_session(
        PeerSession(ip=100, join_time=0, leave_time=1000, complete_time=0,
                    natted=publisher_natted, is_publisher=True)
    )
    if extra_seeder:
        swarm.add_session(
            PeerSession(ip=101, join_time=0, leave_time=1000, complete_time=0)
        )
    for i in range(leechers):
        swarm.add_session(PeerSession(ip=200 + i, join_time=0, leave_time=1000))
    swarm.freeze()
    return swarm


def response_for(swarm, t=10.0):
    import random

    snapshot = swarm.query(t, 200, random.Random(0))
    return AnnounceResponse(
        interval_seconds=600,
        seeders=snapshot.num_seeders,
        leechers=snapshot.num_leechers,
        peers=[(p.ip, 1) for p in snapshot.peers],
    )


class TestIdentifyPublisher:
    def test_happy_path(self):
        swarm = make_swarm()
        result = identify_publisher(
            response_for(swarm), BitfieldProber(swarm, 8, PEER_ID), 10.0
        )
        assert result.outcome is IdentificationOutcome.IP_IDENTIFIED
        assert result.publisher_ip == 100
        assert result.is_final

    def test_natted_publisher(self):
        swarm = make_swarm(publisher_natted=True)
        result = identify_publisher(
            response_for(swarm), BitfieldProber(swarm, 8, PEER_ID), 10.0
        )
        assert result.outcome is IdentificationOutcome.NAT_UNREACHABLE
        assert result.publisher_ip is None
        assert result.is_final

    def test_multiple_seeders(self):
        swarm = make_swarm(extra_seeder=True)
        result = identify_publisher(
            response_for(swarm), BitfieldProber(swarm, 8, PEER_ID), 10.0
        )
        assert result.outcome is IdentificationOutcome.MULTIPLE_SEEDERS

    def test_too_many_peers(self):
        swarm = make_swarm(leechers=25)
        result = identify_publisher(
            response_for(swarm), BitfieldProber(swarm, 8, PEER_ID), 10.0,
            max_probe_peers=20,
        )
        assert result.outcome is IdentificationOutcome.TOO_MANY_PEERS

    def test_no_seeder_is_retryable(self):
        swarm = Swarm(infohash=IH, birth_time=0.0, metrics=MetricsRegistry())
        swarm.add_session(PeerSession(ip=1, join_time=0, leave_time=100))
        swarm.freeze()
        result = identify_publisher(
            response_for(swarm), BitfieldProber(swarm, 8, PEER_ID), 10.0
        )
        assert result.outcome is IdentificationOutcome.NO_SEEDER
        assert not result.is_final

    def test_probe_threshold_boundary(self):
        """Exactly max_probe_peers participants -> too many (strict <)."""
        swarm = make_swarm(leechers=19)  # 19 + 1 seeder = 20 total
        result = identify_publisher(
            response_for(swarm), BitfieldProber(swarm, 8, PEER_ID), 10.0,
            max_probe_peers=20,
        )
        assert result.outcome is IdentificationOutcome.TOO_MANY_PEERS

    def test_just_below_threshold_identifies(self):
        swarm = make_swarm(leechers=18)  # 19 total < 20
        result = identify_publisher(
            response_for(swarm), BitfieldProber(swarm, 8, PEER_ID), 10.0,
            max_probe_peers=20,
        )
        assert result.outcome is IdentificationOutcome.IP_IDENTIFIED

    def test_ambiguous_when_leecher_completed_since_announce(self):
        """Tracker said 1 seeder, but a leecher completes before the probe."""
        swarm = Swarm(infohash=IH, birth_time=0.0, metrics=MetricsRegistry())
        swarm.add_session(
            PeerSession(ip=100, join_time=0, leave_time=1000, complete_time=0,
                        is_publisher=True)
        )
        swarm.add_session(
            PeerSession(ip=200, join_time=0, leave_time=1000, complete_time=12.0)
        )
        swarm.freeze()
        response = response_for(swarm, t=10.0)  # 1 seeder at announce time
        assert response.seeders == 1
        # Probe happens "later" (t=15) when ip=200 finished too.
        result = identify_publisher(
            response, BitfieldProber(swarm, 8, PEER_ID), 15.0
        )
        assert result.outcome is IdentificationOutcome.AMBIGUOUS

"""Tests for wire messages and in-protocol content verification."""

import random

import pytest

from repro.observability import MetricsRegistry
from repro.peerwire.messages import (
    CANCEL_ID,
    CHOKE_ID,
    HAVE_ID,
    INTERESTED_ID,
    PIECE_ID,
    REQUEST_ID,
    UNCHOKE_ID,
    PeerWireError,
    decode_have,
    decode_message,
    decode_piece,
    decode_request,
    encode_cancel,
    encode_have,
    encode_keepalive,
    encode_piece,
    encode_request,
    encode_state,
)
from repro.peerwire.verification import (
    ContentVerdict,
    verify_content,
)
from repro.swarm import PeerSession, Swarm
from repro.torrent import build_torrent, parse_torrent
from repro.torrent.metainfo import piece_payload

ANNOUNCE = "http://t.sim/a"


class TestMessageCodecs:
    def test_keepalive(self):
        assert decode_message(encode_keepalive()) == (-1, b"")

    @pytest.mark.parametrize(
        "message_id", [CHOKE_ID, UNCHOKE_ID, INTERESTED_ID]
    )
    def test_state_messages(self, message_id):
        decoded_id, payload = decode_message(encode_state(message_id))
        assert decoded_id == message_id
        assert payload == b""

    def test_state_rejects_other_ids(self):
        with pytest.raises(PeerWireError):
            encode_state(HAVE_ID)

    def test_have_roundtrip(self):
        message_id, payload = decode_message(encode_have(42))
        assert message_id == HAVE_ID
        assert decode_have(payload) == 42

    def test_request_roundtrip(self):
        message_id, payload = decode_message(encode_request(3, 0, 1024))
        assert message_id == REQUEST_ID
        assert decode_request(payload) == (3, 0, 1024)

    def test_cancel_roundtrip(self):
        message_id, _payload = decode_message(encode_cancel(3, 0, 1024))
        assert message_id == CANCEL_ID

    def test_piece_roundtrip(self):
        block = b"\xab" * 100
        message_id, payload = decode_message(encode_piece(7, 16, block))
        assert message_id == PIECE_ID
        assert decode_piece(payload) == (7, 16, block)

    def test_validation(self):
        with pytest.raises(PeerWireError):
            encode_request(-1, 0, 1)
        with pytest.raises(PeerWireError):
            encode_request(0, 0, 0)
        with pytest.raises(PeerWireError):
            decode_message(b"\x00\x00")
        with pytest.raises(PeerWireError):
            decode_request(b"short")
        with pytest.raises(PeerWireError):
            decode_have(b"12345")


class TestPiecePayloads:
    def test_payload_deterministic(self):
        assert piece_payload("X", 0) == piece_payload("X", 0)
        assert piece_payload("X", 0) != piece_payload("X", 1)
        assert piece_payload("X", 0) != piece_payload("Y", 0)

    def test_metainfo_hashes_match_payloads(self):
        import hashlib

        meta = parse_torrent(build_torrent(ANNOUNCE, "Release", 10_000_000))
        digest = hashlib.sha1(piece_payload("Release", 0)).digest()
        # Recompute via the same derivation used by the builder.
        from repro.torrent.metainfo import _derive_pieces

        pieces = _derive_pieces("Release", 10_000_000, 256 * 1024)
        assert pieces[:20] == digest
        assert meta.num_pieces == len(pieces) // 20


class TestVerification:
    def _swarm(self, garbage, natted=False):
        meta = parse_torrent(build_torrent(ANNOUNCE, "Some.Release", 5_000_000))
        swarm = Swarm(infohash=meta.infohash, birth_time=0.0, metrics=MetricsRegistry())
        swarm.add_session(
            PeerSession(
                ip=1,
                join_time=0,
                leave_time=1000,
                complete_time=0,
                natted=natted,
                is_publisher=True,
                serves_garbage=garbage,
            )
        )
        swarm.freeze()
        return swarm, meta

    def test_authentic_content_verifies(self):
        swarm, meta = self._swarm(garbage=False)
        result = verify_content(swarm, meta, 10.0, random.Random(1))
        assert result.verdict is ContentVerdict.AUTHENTIC
        assert result.pieces_checked >= 1
        assert result.pieces_failed == 0
        assert result.probed_ip == 1

    def test_decoy_content_fails_hash_check(self):
        swarm, meta = self._swarm(garbage=True)
        result = verify_content(swarm, meta, 10.0, random.Random(1))
        assert result.verdict is ContentVerdict.CORRUPT
        assert result.pieces_failed >= 1

    def test_unreachable_when_only_natted_seeder(self):
        swarm, meta = self._swarm(garbage=False, natted=True)
        result = verify_content(swarm, meta, 10.0, random.Random(1))
        assert result.verdict is ContentVerdict.UNREACHABLE

    def test_unreachable_when_swarm_dead(self):
        swarm, meta = self._swarm(garbage=False)
        result = verify_content(swarm, meta, 5000.0, random.Random(1))
        assert result.verdict is ContentVerdict.UNREACHABLE


class TestVerificationOnWorld:
    def test_fake_torrents_fail_real_ones_pass(self, world):
        """End-to-end: verification separates decoys from real content."""
        rng = random.Random(9)
        fake_checked = real_checked = 0
        fake_corrupt = real_corrupt = 0
        for truth in world.truth.torrents:
            if fake_checked >= 10 and real_checked >= 10:
                break
            raw = world.portal.get_torrent_file(
                truth.torrent_id, truth.publish_time
            )
            meta = parse_torrent(raw)
            swarm = world.swarm_for(truth.torrent_id)
            # Probe one hour in, while the publisher is likely seeding.
            result = verify_content(
                swarm, meta, truth.publish_time + 60.0, rng
            )
            if result.verdict is ContentVerdict.UNREACHABLE:
                continue
            if truth.is_fake and fake_checked < 10:
                fake_checked += 1
                fake_corrupt += result.verdict is ContentVerdict.CORRUPT
            elif not truth.is_fake and real_checked < 10:
                real_checked += 1
                real_corrupt += result.verdict is ContentVerdict.CORRUPT
        assert fake_checked >= 5
        assert real_checked >= 5
        assert fake_corrupt == fake_checked  # every decoy caught
        assert real_corrupt == 0  # no false alarms

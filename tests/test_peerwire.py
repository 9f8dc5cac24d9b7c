"""Unit tests for the peer wire codec and the bitfield probe."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.observability import MetricsRegistry
from repro.peerwire import (
    HANDSHAKE_LENGTH,
    BitfieldProber,
    PeerWireError,
    bitfield_from_progress,
    count_pieces,
    decode_bitfield,
    decode_handshake,
    encode_bitfield,
    encode_handshake,
    is_complete_bitfield,
)
from repro.peerwire.messages import (
    encode_cancel,
    encode_have,
    encode_piece,
    encode_request,
)
from repro.swarm import PeerSession, Swarm

IH = b"\x33" * 20
PEER_ID = b"-UT2040-abcdefghijkl"


class TestHandshake:
    def test_roundtrip(self):
        data = encode_handshake(IH, PEER_ID)
        assert len(data) == HANDSHAKE_LENGTH
        infohash, peer_id = decode_handshake(data)
        assert infohash == IH
        assert peer_id == PEER_ID

    def test_wrong_length_rejected(self):
        with pytest.raises(PeerWireError, match="68 bytes"):
            decode_handshake(b"x" * 10)

    def test_wrong_protocol_rejected(self):
        data = bytearray(encode_handshake(IH, PEER_ID))
        data[1:5] = b"evil"
        with pytest.raises(PeerWireError, match="not a BitTorrent"):
            decode_handshake(bytes(data))

    def test_bad_infohash_length(self):
        with pytest.raises(PeerWireError):
            encode_handshake(b"short", PEER_ID)
        with pytest.raises(PeerWireError):
            encode_handshake(IH, b"short")


class TestBitfield:
    def test_roundtrip_exact_byte(self):
        have = (True, False, True, False, True, False, True, False)
        assert decode_bitfield(encode_bitfield(have), 8) == have

    def test_roundtrip_partial_byte(self):
        have = (True, True, False)
        assert decode_bitfield(encode_bitfield(have), 3) == have

    def test_bit_order_is_msb_first(self):
        data = encode_bitfield((True,) + (False,) * 7)
        assert data[5] == 0x80

    def test_spare_bits_must_be_zero(self):
        data = bytearray(encode_bitfield((True, True, True)))
        data[5] |= 0x01  # set a spare bit
        with pytest.raises(PeerWireError, match="spare"):
            decode_bitfield(bytes(data), 3)

    def test_wrong_payload_length(self):
        data = encode_bitfield((True,) * 8)
        with pytest.raises(PeerWireError, match="payload"):
            decode_bitfield(data, 100)

    def test_wrong_message_id(self):
        data = bytearray(encode_bitfield((True,)))
        data[4] = 7  # piece message id
        with pytest.raises(PeerWireError, match="id 7"):
            decode_bitfield(bytes(data), 1)

    def test_length_prefix_mismatch(self):
        data = encode_bitfield((True,) * 8) + b"extra"
        with pytest.raises(PeerWireError, match="length prefix"):
            decode_bitfield(data, 8)

    def test_empty_bitfield_rejected(self):
        with pytest.raises(PeerWireError):
            encode_bitfield(())

    def test_progress_complete(self):
        have = bitfield_from_progress(1.0, 10)
        assert is_complete_bitfield(have)
        assert count_pieces(have) == 10

    def test_progress_half(self):
        have = bitfield_from_progress(0.5, 10)
        assert count_pieces(have) == 5
        assert not is_complete_bitfield(have)

    def test_progress_zero(self):
        have = bitfield_from_progress(0.0, 4)
        assert count_pieces(have) == 0

    def test_progress_validation(self):
        with pytest.raises(PeerWireError):
            bitfield_from_progress(1.5, 10)
        with pytest.raises(PeerWireError):
            bitfield_from_progress(0.5, 0)


class TestIntegerFieldRange:
    """Integer fields are unsigned 32-bit: one past the top is a
    ``PeerWireError``, not a ``struct.error`` from the packer."""

    @pytest.mark.parametrize(
        "encode, args, message",
        [
            (encode_have, (2**32,), "piece index"),
            (encode_request, (0, 0, 2**32), "invalid request"),
            (encode_cancel, (2**32, 0, 1), "invalid cancel"),
            (encode_piece, (0, 2**32, b"x"), "invalid piece"),
        ],
        ids=["have", "request", "cancel", "piece"],
    )
    def test_one_past_u32_raises_peer_wire_error(self, encode, args, message):
        with pytest.raises(PeerWireError, match=message):
            encode(*args)

    def test_top_of_u32_still_encodes(self):
        top = 2**32 - 1
        assert encode_have(top)[-4:] == b"\xff" * 4
        assert encode_request(top, top, top)[-12:] == b"\xff" * 12
        assert encode_cancel(top, top, top)[-12:] == b"\xff" * 12
        assert encode_piece(top, top, b"x")[-9:] == b"\xff" * 8 + b"x"


@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_bitfield_roundtrip_property(bits):
    have = tuple(bits)
    assert decode_bitfield(encode_bitfield(have), len(have)) == have


class TestProber:
    def _swarm(self):
        swarm = Swarm(infohash=IH, birth_time=0.0, metrics=MetricsRegistry())
        swarm.add_session(
            PeerSession(ip=1, join_time=0, leave_time=1000, complete_time=0,
                        is_publisher=True)
        )
        swarm.add_session(PeerSession(ip=2, join_time=0, leave_time=1000))
        swarm.add_session(
            PeerSession(ip=3, join_time=0, leave_time=1000, complete_time=0,
                        natted=True, is_publisher=True)
        )
        swarm.freeze()
        return swarm

    def test_seeder_probe(self):
        prober = BitfieldProber(self._swarm(), 16, PEER_ID)
        result = prober.probe(1, 10.0)
        assert result.reachable
        assert result.is_seeder

    def test_leecher_probe(self):
        prober = BitfieldProber(self._swarm(), 16, PEER_ID)
        result = prober.probe(2, 10.0)
        assert result.reachable
        assert not result.is_seeder

    def test_natted_peer_unreachable(self):
        prober = BitfieldProber(self._swarm(), 16, PEER_ID)
        result = prober.probe(3, 10.0)
        assert not result.reachable
        assert result.bitfield is None
        assert not result.is_seeder

    def test_absent_peer_unreachable(self):
        prober = BitfieldProber(self._swarm(), 16, PEER_ID)
        assert not prober.probe(99, 10.0).reachable

    def test_probe_counters(self):
        prober = BitfieldProber(self._swarm(), 16, PEER_ID)
        prober.probe(1, 10.0)
        prober.probe(3, 10.0)
        prober.probe(99, 10.0)
        assert prober.probes_sent == 3
        assert prober.probes_failed == 2

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BitfieldProber(self._swarm(), 0, PEER_ID)
        with pytest.raises(ValueError):
            BitfieldProber(self._swarm(), 4, b"short")

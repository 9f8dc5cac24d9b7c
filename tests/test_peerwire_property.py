"""Property-based round-trip tests for repro.peerwire.messages.

Mirrors tests/test_bencode_property.py: a seeded stdlib generator drives the
codec through randomised round trips, then an adversarial battery checks the
decoder's strictness against truncation, corrupted length prefixes, and
unknown message ids.  Last, the bitfield codec is pinned to the frozen
per-bit codec in tests/peerwire_reference.py: same bytes, same tuples, and
the same error type and message on every malformed input.
"""

import math
import random
import struct

import pytest

from repro.peerwire.messages import (
    BITFIELD_ID,
    CANCEL_ID,
    CHOKE_ID,
    HANDSHAKE_LENGTH,
    HAVE_ID,
    INTERESTED_ID,
    NOT_INTERESTED_ID,
    PIECE_ID,
    REQUEST_ID,
    UNCHOKE_ID,
    PeerWireError,
    bitfield_from_progress,
    count_pieces,
    decode_bitfield,
    decode_handshake,
    decode_have,
    decode_message,
    decode_piece,
    decode_request,
    encode_bitfield,
    encode_cancel,
    encode_handshake,
    encode_have,
    encode_keepalive,
    encode_piece,
    encode_request,
    encode_state,
)
from tests.peerwire_reference import (
    bitfield_from_progress_reference,
    count_pieces_reference,
    decode_bitfield_reference,
    encode_bitfield_reference,
)

_STATE_IDS = (CHOKE_ID, UNCHOKE_ID, INTERESTED_ID, NOT_INTERESTED_ID)
_KNOWN_IDS = _STATE_IDS + (HAVE_ID, BITFIELD_ID, REQUEST_ID, PIECE_ID, CANCEL_ID)


def random_message(rng: random.Random):
    """One random well-formed wire message: ``(encoded, id, decoded fields)``."""
    roll = rng.randrange(6)
    if roll == 0:
        return encode_keepalive(), -1, ()
    if roll == 1:
        message_id = rng.choice(_STATE_IDS)
        return encode_state(message_id), message_id, ()
    if roll == 2:
        piece = rng.randrange(2**20)
        return encode_have(piece), HAVE_ID, (piece,)
    if roll == 3:
        fields = (rng.randrange(2**16), rng.randrange(2**14), rng.randrange(1, 2**14))
        return encode_request(*fields), REQUEST_ID, fields
    if roll == 4:
        fields = (rng.randrange(2**16), rng.randrange(2**14), rng.randrange(1, 2**14))
        return encode_cancel(*fields), CANCEL_ID, fields
    block = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
    fields = (rng.randrange(2**16), rng.randrange(2**14), block)
    return encode_piece(*fields), PIECE_ID, fields


class TestRoundTripProperty:
    def test_handshake_round_trips(self):
        rng = random.Random(0x5EED1)
        for _ in range(200):
            infohash = bytes(rng.randrange(256) for _ in range(20))
            peer_id = bytes(rng.randrange(256) for _ in range(20))
            encoded = encode_handshake(infohash, peer_id)
            assert len(encoded) == HANDSHAKE_LENGTH
            assert decode_handshake(encoded) == (infohash, peer_id)

    def test_bitfield_round_trips(self):
        rng = random.Random(0x5EED2)
        for _ in range(200):
            num_pieces = rng.randrange(1, 120)
            have = tuple(rng.random() < 0.5 for _ in range(num_pieces))
            encoded = encode_bitfield(have)
            assert decode_bitfield(encoded, num_pieces) == have

    def test_progress_bitfield_round_trips(self):
        rng = random.Random(0x5EED3)
        for _ in range(200):
            num_pieces = rng.randrange(1, 200)
            progress = rng.random()
            have = bitfield_from_progress(progress, num_pieces)
            decoded = decode_bitfield(encode_bitfield(have), num_pieces)
            assert decoded == have
            assert count_pieces(decoded) == int(progress * num_pieces)

    def test_messages_round_trip_through_decode_message(self):
        rng = random.Random(0x5EED4)
        for _ in range(300):
            encoded, message_id, fields = random_message(rng)
            decoded_id, payload = decode_message(encoded)
            assert decoded_id == message_id
            if message_id == HAVE_ID:
                assert decode_have(payload) == fields[0]
            elif message_id in (REQUEST_ID, CANCEL_ID):
                assert decode_request(payload) == fields
            elif message_id == PIECE_ID:
                assert decode_piece(payload) == fields
            elif message_id == -1 or message_id in _STATE_IDS:
                assert payload == b""


class TestStrictnessProperty:
    def test_truncated_messages_rejected(self):
        rng = random.Random(0x5EED5)
        for _ in range(200):
            encoded, _message_id, _fields = random_message(rng)
            cut = rng.randrange(0, len(encoded))
            with pytest.raises(PeerWireError):
                decode_message(encoded[:cut])

    def test_oversized_length_prefix_rejected(self):
        rng = random.Random(0x5EED6)
        for _ in range(200):
            encoded, _message_id, _fields = random_message(rng)
            (length,) = struct.unpack(">I", encoded[:4])
            inflated = struct.pack(">I", length + rng.randrange(1, 100))
            with pytest.raises(PeerWireError, match="length prefix"):
                decode_message(inflated + encoded[4:])

    def test_unknown_message_ids_pass_through_decode_message(self):
        # decode_message is a framing layer: it must surface unknown ids
        # verbatim (forward compatibility), leaving rejection to the typed
        # decoders.
        rng = random.Random(0x5EED7)
        for _ in range(200):
            unknown = rng.randrange(9, 256)
            assert unknown not in _KNOWN_IDS
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20)))
            body = bytes([unknown]) + payload
            encoded = struct.pack(">I", len(body)) + body
            assert decode_message(encoded) == (unknown, payload)

    def test_bitfield_decoder_rejects_other_ids(self):
        rng = random.Random(0x5EED8)
        for _ in range(100):
            num_pieces = rng.randrange(1, 64)
            have = tuple(rng.random() < 0.5 for _ in range(num_pieces))
            encoded = bytearray(encode_bitfield(have))
            wrong = rng.choice([i for i in range(256) if i != BITFIELD_ID])
            encoded[4] = wrong
            with pytest.raises(PeerWireError, match="expected bitfield"):
                decode_bitfield(bytes(encoded), num_pieces)

    def test_corrupted_handshake_rejected(self):
        rng = random.Random(0x5EED9)
        good = encode_handshake(b"\x11" * 20, b"\x22" * 20)
        for _ in range(100):
            cut = rng.randrange(0, len(good))
            with pytest.raises(PeerWireError):
                decode_handshake(good[:cut])
        bad_pstr = bytearray(good)
        bad_pstr[1 + rng.randrange(19)] ^= 0xFF
        with pytest.raises(PeerWireError, match="handshake"):
            decode_handshake(bytes(bad_pstr))

    def test_spare_bitfield_bits_rejected(self):
        rng = random.Random(0x5EEDA)
        for _ in range(100):
            # A piece count not divisible by 8 leaves spare low bits.
            num_pieces = rng.randrange(1, 64)
            if num_pieces % 8 == 0:
                continue
            have = tuple(True for _ in range(num_pieces))
            encoded = bytearray(encode_bitfield(have))
            spare = rng.randrange(num_pieces, ((num_pieces + 7) // 8) * 8)
            encoded[5 + spare // 8] |= 0x80 >> (spare % 8)
            with pytest.raises(PeerWireError, match="spare"):
                decode_bitfield(bytes(encoded), num_pieces)


# Piece counts around the byte boundaries, a power of two, and the largest
# torrent the simulated portals publish.
_PIECE_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 2048, 27011)


def _outcome(function, *args):
    """The value ``function`` returns, or the type and message it raises."""
    try:
        return ("value", function(*args))
    except Exception as exc:  # the exception is the outcome
        return (type(exc), str(exc))


def _vectors(rng: random.Random, num_pieces: int):
    yield (True,) * num_pieces
    yield (False,) * num_pieces
    for density in (0.01, 0.5, 0.99):
        yield tuple(rng.random() < density for _ in range(num_pieces))


def _corruptions(rng: random.Random, wire: bytes):
    """Malformed variants of one bitfield message, each named."""
    for _ in range(4):
        flipped = bytearray(wire)
        flipped[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
        yield "flipped", bytes(flipped)
    spare = bytearray(wire)
    spare[-1] ^= 1 << rng.randrange(8)
    yield "last-byte-flipped", bytes(spare)
    yield "truncated", wire[: rng.randrange(len(wire))]
    yield "last-byte-dropped", wire[:-1]
    yield "extended", wire + bytes([rng.randrange(256)])
    body = wire[4:] + b"\x00"
    yield "extended-with-prefix", struct.pack(">I", len(body)) + body
    body = wire[4:-1]
    yield "shortened-with-prefix", struct.pack(">I", len(body)) + body
    yield "wrong-id", wire[:4] + bytes([rng.choice([4, 6, 7, 255])]) + wire[5:]
    prefix = struct.unpack(">I", wire[:4])[0] + rng.choice([-1, 1, 2**20])
    yield "wrong-prefix", struct.pack(">I", prefix % 2**32) + wire[4:]
    yield "header-only", wire[:5]
    yield "empty", b""


class TestReferenceEquivalence:
    """The whole-payload bitfield codec equals the per-bit reference."""

    @pytest.mark.parametrize("num_pieces", _PIECE_COUNTS)
    def test_encode_and_decode_match_reference(self, num_pieces):
        rng = random.Random(0x5EEDB + num_pieces)
        for have in _vectors(rng, num_pieces):
            wire = encode_bitfield(have)
            assert wire == encode_bitfield_reference(have)
            decoded = decode_bitfield(wire, num_pieces)
            assert decoded == decode_bitfield_reference(wire, num_pieces) == have
            assert all(type(bit) is bool for bit in decoded)
            assert count_pieces(have) == count_pieces_reference(have)

    @pytest.mark.parametrize("num_pieces", _PIECE_COUNTS)
    def test_truthiness_decides_each_bit(self, num_pieces):
        rng = random.Random(0x5EEDC + num_pieces)
        items = (2, 256, "x", None, 0, "", 1.5, 0.0, (), (0,), True, False)
        for _ in range(3):
            have = tuple(rng.choice(items) for _ in range(num_pieces))
            assert encode_bitfield(have) == encode_bitfield_reference(have)
            assert count_pieces(have) == count_pieces_reference(have)

    @pytest.mark.parametrize("num_pieces", _PIECE_COUNTS)
    def test_malformed_bytes_fail_like_reference(self, num_pieces):
        rng = random.Random(0x5EEDD + num_pieces)
        for have in _vectors(rng, num_pieces):
            wire = encode_bitfield(have)
            for name, data in _corruptions(rng, wire):
                assert _outcome(decode_bitfield, data, num_pieces) == _outcome(
                    decode_bitfield_reference, data, num_pieces
                ), name

    @pytest.mark.parametrize("num_pieces", _PIECE_COUNTS)
    def test_wrong_piece_count_fails_like_reference(self, num_pieces):
        rng = random.Random(0x5EEDE + num_pieces)
        for have in _vectors(rng, num_pieces):
            wire = encode_bitfield(have)
            for wrong in {num_pieces + d for d in (-9, -8, -1, 1, 7, 8)} | {0, -1}:
                assert _outcome(decode_bitfield, wire, wrong) == _outcome(
                    decode_bitfield_reference, wire, wrong
                ), wrong

    def test_random_bytes_decode_like_reference(self):
        rng = random.Random(0x5EEDF)
        for _ in range(500):
            num_pieces = rng.randrange(1, 80)
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 12)))
            data = struct.pack(">IB", 1 + len(payload), BITFIELD_ID) + payload
            assert _outcome(decode_bitfield, data, num_pieces) == _outcome(
                decode_bitfield_reference, data, num_pieces
            )

    @pytest.mark.parametrize("num_pieces", _PIECE_COUNTS)
    def test_progress_vector_matches_reference(self, num_pieces):
        rng = random.Random(0x5EEE0 + num_pieces)
        progresses = [0.0, 1.0, math.nextafter(1.0, 0.0), 0.5, 1.0 / num_pieces]
        progresses += [rng.random() for _ in range(20)]
        for progress in progresses:
            have = bitfield_from_progress(progress, num_pieces)
            assert have == bitfield_from_progress_reference(progress, num_pieces)
            assert count_pieces(have) == count_pieces_reference(have)

    def test_progress_errors_match_reference(self):
        for progress, num_pieces in [(-0.1, 5), (1.5, 5), (math.nan, 5),
                                     (0.5, 0), (0.5, -3), (2.0, 0)]:
            assert _outcome(bitfield_from_progress, progress, num_pieces) == _outcome(
                bitfield_from_progress_reference, progress, num_pieces
            )

    def test_empty_vector_fails_like_reference(self):
        assert _outcome(encode_bitfield, ()) == _outcome(encode_bitfield_reference, ())

"""Peer wire message codec (BEP 3 subset: handshake and bitfield).

Handshake layout (68 bytes):

    1 byte   pstrlen = 19
    19 bytes pstr    = b"BitTorrent protocol"
    8 bytes  reserved
    20 bytes infohash
    20 bytes peer_id

Bitfield message: 4-byte big-endian length prefix, 1-byte id (5), then
``ceil(num_pieces / 8)`` payload bytes, high bit of the first byte being
piece 0.  Spare bits must be zero.

Torrents hold up to tens of thousands of pieces, so the bitfield codec never
visits one bit at a time in Python: encoding turns the whole vector into one
ASCII ``0``/``1`` string and one ``int``, decoding looks each payload byte up
in a 256-entry table of 8-piece tuples, and the spare bits are one mask of the
last byte.  The bytes, tuples and errors are those of the plain per-bit
codec, which ``tests/peerwire_reference.py`` keeps for the equivalence tests.

Integer fields are unsigned 32-bit; a value outside ``[0, 2**32)`` raises
:class:`PeerWireError` like every other bad argument.
"""

from __future__ import annotations

import struct
from itertools import chain, islice, product
from typing import Tuple

PROTOCOL_STRING = b"BitTorrent protocol"
HANDSHAKE_LENGTH = 1 + len(PROTOCOL_STRING) + 8 + 20 + 20

# BEP 3 message ids.
CHOKE_ID = 0
UNCHOKE_ID = 1
INTERESTED_ID = 2
NOT_INTERESTED_ID = 3
HAVE_ID = 4
BITFIELD_ID = 5
REQUEST_ID = 6
PIECE_ID = 7
CANCEL_ID = 8

_MAX_U32 = 2**32 - 1

# Bit ``i`` of byte value ``b`` (high bit first) is ``_BYTE_BITS[b][i]``.
_BYTE_BITS = tuple(product((False, True), repeat=8))
_BITS_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")


class PeerWireError(ValueError):
    """Malformed peer wire bytes."""


def encode_handshake(infohash: bytes, peer_id: bytes) -> bytes:
    if len(infohash) != 20:
        raise PeerWireError("infohash must be 20 bytes")
    if len(peer_id) != 20:
        raise PeerWireError("peer_id must be 20 bytes")
    return (
        bytes([len(PROTOCOL_STRING)])
        + PROTOCOL_STRING
        + b"\x00" * 8
        + infohash
        + peer_id
    )


def decode_handshake(data: bytes) -> Tuple[bytes, bytes]:
    """Return ``(infohash, peer_id)``."""
    if len(data) != HANDSHAKE_LENGTH:
        raise PeerWireError(
            f"handshake must be {HANDSHAKE_LENGTH} bytes, got {len(data)}"
        )
    pstrlen = data[0]
    if pstrlen != len(PROTOCOL_STRING) or data[1 : 1 + pstrlen] != PROTOCOL_STRING:
        raise PeerWireError("not a BitTorrent handshake")
    offset = 1 + pstrlen + 8
    return data[offset : offset + 20], data[offset + 20 : offset + 40]


def encode_bitfield(have: Tuple[bool, ...]) -> bytes:
    """Encode a piece-availability vector as a bitfield message."""
    num_pieces = len(have)
    if num_pieces == 0:
        raise PeerWireError("bitfield of zero pieces")
    size = (num_pieces + 7) // 8
    bits = bytes(map(bool, have)).translate(_BITS_TO_ASCII)
    payload = int(bits.ljust(8 * size, b"0"), 2).to_bytes(size, "big")
    return struct.pack(">IB", 1 + size, BITFIELD_ID) + payload


def decode_bitfield(data: bytes, num_pieces: int) -> Tuple[bool, ...]:
    """Decode a bitfield message into a piece-availability vector."""
    if num_pieces <= 0:
        raise PeerWireError("num_pieces must be > 0")
    if len(data) < 5:
        raise PeerWireError("truncated message")
    (length,) = struct.unpack(">I", data[:4])
    if length != len(data) - 4:
        raise PeerWireError(f"length prefix {length} != body {len(data) - 4}")
    if data[4] != BITFIELD_ID:
        raise PeerWireError(f"expected bitfield (id 5), got id {data[4]}")
    payload = data[5:]
    expected = (num_pieces + 7) // 8
    if len(payload) != expected:
        raise PeerWireError(
            f"bitfield payload {len(payload)} bytes, expected {expected}"
        )
    # Spare bits beyond num_pieces must be zero (strictness catches
    # truncation / piece-count mismatches early).
    if payload[-1] & (0xFF >> (num_pieces - 8 * (expected - 1))):
        raise PeerWireError("spare bitfield bits set")
    bits = chain.from_iterable(map(_BYTE_BITS.__getitem__, payload))
    return tuple(islice(bits, num_pieces))


def bitfield_from_progress(progress: float, num_pieces: int) -> Tuple[bool, ...]:
    """Availability vector for a peer that owns a ``progress`` fraction.

    Pieces complete in index order -- the detail does not matter to the
    study; only *completeness* does.
    """
    if not 0.0 <= progress <= 1.0:
        raise PeerWireError(f"progress must be in [0, 1], got {progress}")
    if num_pieces <= 0:
        raise PeerWireError("num_pieces must be > 0")
    owned = int(progress * num_pieces)
    if progress >= 1.0:
        owned = num_pieces
    return (True,) * owned + (False,) * (num_pieces - owned)


def count_pieces(have: Tuple[bool, ...]) -> int:
    return sum(map(bool, have))


def is_complete_bitfield(have: Tuple[bool, ...]) -> bool:
    return all(have)


# ---------------------------------------------------------------------------
# Remaining BEP 3 messages (keep-alive, state, have, request, piece, cancel)
# ---------------------------------------------------------------------------
def encode_keepalive() -> bytes:
    """A keep-alive is a bare zero length prefix."""
    return struct.pack(">I", 0)


def encode_state(message_id: int) -> bytes:
    """choke / unchoke / interested / not-interested (payload-less)."""
    if message_id not in (CHOKE_ID, UNCHOKE_ID, INTERESTED_ID, NOT_INTERESTED_ID):
        raise PeerWireError(f"{message_id} is not a state message id")
    return struct.pack(">IB", 1, message_id)


def _fits_u32(*values: int) -> bool:
    return all(0 <= value <= _MAX_U32 for value in values)


def encode_have(piece_index: int) -> bytes:
    if piece_index < 0:
        raise PeerWireError("piece index must be >= 0")
    if piece_index > _MAX_U32:
        raise PeerWireError("piece index must be < 2**32")
    return struct.pack(">IBI", 5, HAVE_ID, piece_index)


def encode_request(piece_index: int, begin: int, length: int) -> bytes:
    if length <= 0 or not _fits_u32(piece_index, begin, length):
        raise PeerWireError("invalid request parameters")
    return struct.pack(">IBIII", 13, REQUEST_ID, piece_index, begin, length)


def encode_cancel(piece_index: int, begin: int, length: int) -> bytes:
    if length <= 0 or not _fits_u32(piece_index, begin, length):
        raise PeerWireError("invalid cancel parameters")
    return struct.pack(">IBIII", 13, CANCEL_ID, piece_index, begin, length)


def encode_piece(piece_index: int, begin: int, block: bytes) -> bytes:
    if not _fits_u32(piece_index, begin):
        raise PeerWireError("invalid piece parameters")
    body = struct.pack(">BII", PIECE_ID, piece_index, begin) + block
    return struct.pack(">I", len(body)) + body


def decode_message(data: bytes) -> Tuple[int, bytes]:
    """Split one length-prefixed message into (id, payload).

    A keep-alive decodes to ``(-1, b"")``.
    """
    if len(data) < 4:
        raise PeerWireError("truncated message")
    (length,) = struct.unpack(">I", data[:4])
    if length != len(data) - 4:
        raise PeerWireError(f"length prefix {length} != body {len(data) - 4}")
    if length == 0:
        return -1, b""
    return data[4], data[5:]


def decode_have(payload: bytes) -> int:
    if len(payload) != 4:
        raise PeerWireError("have payload must be 4 bytes")
    return struct.unpack(">I", payload)[0]


def decode_request(payload: bytes) -> Tuple[int, int, int]:
    """(piece_index, begin, length)."""
    if len(payload) != 12:
        raise PeerWireError("request payload must be 12 bytes")
    return struct.unpack(">III", payload)


def decode_piece(payload: bytes) -> Tuple[int, int, bytes]:
    """(piece_index, begin, block)."""
    if len(payload) < 8:
        raise PeerWireError("piece payload too short")
    piece_index, begin = struct.unpack(">II", payload[:8])
    return piece_index, begin, payload[8:]

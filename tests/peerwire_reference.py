"""Reference bitfield codec: the original per-bit implementation.

This module preserves the plain encoder, decoder and progress vector that
:mod:`repro.peerwire.messages` shipped with before the whole-payload
rewrite: each walks the pieces one bit at a time.  It is **not** used by the
pipeline; it exists so property tests can assert that the optimised codec
produces the same bytes, the same tuples and the same errors.  Treat it as
frozen: performance work happens in ``messages.py``, never here.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.peerwire.messages import BITFIELD_ID, PeerWireError


def encode_bitfield_reference(have: Tuple[bool, ...]) -> bytes:
    """Encode a piece-availability vector as a bitfield message."""
    num_pieces = len(have)
    if num_pieces == 0:
        raise PeerWireError("bitfield of zero pieces")
    payload = bytearray((num_pieces + 7) // 8)
    for index, owned in enumerate(have):
        if owned:
            payload[index // 8] |= 0x80 >> (index % 8)
    body = bytes([BITFIELD_ID]) + bytes(payload)
    return struct.pack(">I", len(body)) + body


def decode_bitfield_reference(data: bytes, num_pieces: int) -> Tuple[bool, ...]:
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
    have = []
    for index in range(num_pieces):
        have.append(bool(payload[index // 8] & (0x80 >> (index % 8))))
    # Spare bits beyond num_pieces must be zero (strictness catches
    # truncation / piece-count mismatches early).
    for index in range(num_pieces, expected * 8):
        if payload[index // 8] & (0x80 >> (index % 8)):
            raise PeerWireError("spare bitfield bits set")
    return tuple(have)


def bitfield_from_progress_reference(progress: float, num_pieces: int) -> Tuple[bool, ...]:
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
    return tuple(index < owned for index in range(num_pieces))


def count_pieces_reference(have: Tuple[bool, ...]) -> int:
    return sum(1 for owned in have if owned)

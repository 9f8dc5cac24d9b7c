"""KRPC message codec (BEP 5) on top of :mod:`repro.bencode`.

Mainline DHT nodes talk KRPC: single bencoded dictionaries over UDP, one
query -> one response (or one error).  Every message carries a transaction
id ``t`` chosen by the querier and a type ``y`` of ``q`` (query), ``r``
(response) or ``e`` (error).  Queries name a method ``q`` and carry their
arguments in ``a``; responses carry return values in ``r``; errors carry
``[code, message]`` in ``e``.

The four Mainline methods the study's discovery channel needs are
implemented: ``ping``, ``find_node``, ``get_peers`` and ``announce_peer``.
Contact information travels in the usual compact encodings: 6 bytes per
peer (4 IP + 2 port, big-endian) and 26 bytes per node (20-byte node id +
compact peer info).

Like the bencode layer underneath, the decoder is strict: unknown ``y``
values, non-bytes transaction ids, unknown query methods and malformed
compact blobs all raise :class:`KrpcError` rather than decoding to
something half-usable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.bencode import BencodeError, bdecode, bencode

# BEP 5 error codes.
ERROR_GENERIC = 201
ERROR_SERVER = 202
ERROR_PROTOCOL = 203
ERROR_UNKNOWN_METHOD = 204

KNOWN_METHODS = ("ping", "find_node", "get_peers", "announce_peer")

Key = Union[str, bytes]


class KrpcError(ValueError):
    """Malformed KRPC bytes or an unencodable message."""


@dataclass(frozen=True)
class KrpcQuery:
    """A decoded query (``y=q``)."""

    tid: bytes
    method: str
    args: Dict[bytes, object] = field(default_factory=dict)

    @property
    def sender_id(self) -> bytes:
        node_id = self.args.get(b"id")
        if not isinstance(node_id, bytes) or len(node_id) != 20:
            raise KrpcError("query missing a 20-byte 'id' argument")
        return node_id


@dataclass(frozen=True)
class KrpcResponse:
    """A decoded response (``y=r``)."""

    tid: bytes
    values: Dict[bytes, object] = field(default_factory=dict)


@dataclass(frozen=True)
class KrpcErrorMessage:
    """A decoded error (``y=e``)."""

    tid: bytes
    code: int
    message: str


# The envelopes below are keyed by canonical (sorted) bytes, so bencode's
# fast path encodes them without normalising keys.  Payloads may be keyed
# by str or bytes; handlers on the hot path pass sorted bytes keys too.
def encode_query(tid: bytes, method: str, args: Dict[Key, object]) -> bytes:
    """Encode one KRPC query."""
    if not isinstance(tid, bytes) or not tid:
        raise KrpcError("transaction id must be non-empty bytes")
    if method not in KNOWN_METHODS:
        raise KrpcError(f"unknown KRPC method {method!r}")
    return bencode(
        {b"a": dict(args), b"q": method.encode(), b"t": tid, b"y": b"q"}
    )


def encode_response(tid: bytes, values: Dict[Key, object]) -> bytes:
    """Encode one KRPC response."""
    if not isinstance(tid, bytes) or not tid:
        raise KrpcError("transaction id must be non-empty bytes")
    return bencode({b"r": dict(values), b"t": tid, b"y": b"r"})


def encode_error(tid: bytes, code: int, message: str) -> bytes:
    """Encode one KRPC error reply."""
    if not isinstance(tid, bytes) or not tid:
        raise KrpcError("transaction id must be non-empty bytes")
    if code not in (
        ERROR_GENERIC,
        ERROR_SERVER,
        ERROR_PROTOCOL,
        ERROR_UNKNOWN_METHOD,
    ):
        raise KrpcError(f"unknown KRPC error code {code}")
    return bencode({b"e": [code, message], b"t": tid, b"y": b"e"})


def decode_message(raw: bytes):
    """Decode KRPC bytes into a query / response / error message."""
    try:
        decoded = bdecode(raw)
    except BencodeError as exc:
        raise KrpcError(f"not bencoded: {exc}") from exc
    if not isinstance(decoded, dict):
        raise KrpcError("KRPC message must be a dictionary")
    tid = decoded.get(b"t")
    if not isinstance(tid, bytes) or not tid:
        raise KrpcError("missing transaction id 't'")
    kind = decoded.get(b"y")
    if kind == b"q":
        method = decoded.get(b"q")
        if not isinstance(method, bytes):
            raise KrpcError("query missing method 'q'")
        method_name = method.decode("ascii", errors="replace")
        if method_name not in KNOWN_METHODS:
            raise KrpcError(f"unknown KRPC method {method_name!r}")
        args = decoded.get(b"a")
        if not isinstance(args, dict):
            raise KrpcError("query missing arguments dict 'a'")
        return KrpcQuery(tid=tid, method=method_name, args=args)
    if kind == b"r":
        values = decoded.get(b"r")
        if not isinstance(values, dict):
            raise KrpcError("response missing return dict 'r'")
        return KrpcResponse(tid=tid, values=values)
    if kind == b"e":
        payload = decoded.get(b"e")
        if (
            not isinstance(payload, list)
            or len(payload) != 2
            or not isinstance(payload[0], int)
            or not isinstance(payload[1], bytes)
        ):
            raise KrpcError("error payload must be [code, message]")
        return KrpcErrorMessage(
            tid=tid,
            code=payload[0],
            message=payload[1].decode("utf-8", errors="replace"),
        )
    raise KrpcError(f"unknown message type {kind!r}")


def node_id_to_bytes_or_raise(value: object, name: str) -> bytes:
    """Validate a 20-byte id-like argument (node id / infohash / target)."""
    if not isinstance(value, bytes) or len(value) != 20:
        raise KrpcError(f"argument {name!r} must be 20 bytes")
    return value


# ---------------------------------------------------------------------------
# Compact contact encodings
# ---------------------------------------------------------------------------
def pack_compact_peer(ip: int, port: int) -> bytes:
    """6-byte compact peer info (BEP 5 / BEP 23)."""
    if not 0 <= ip <= 0xFFFFFFFF:
        raise KrpcError(f"ip {ip} out of IPv4 range")
    if not 0 <= port <= 0xFFFF:
        raise KrpcError(f"port {port} out of range")
    return struct.pack(">IH", ip, port)


def unpack_compact_peers(data: bytes) -> List[Tuple[int, int]]:
    """Decode a concatenation of 6-byte compact peer entries."""
    if len(data) % 6 != 0:
        raise KrpcError(f"compact peer blob of {len(data)} bytes (not 6*N)")
    return [
        struct.unpack(">IH", data[offset : offset + 6])
        for offset in range(0, len(data), 6)
    ]


def pack_compact_nodes(nodes: List[Tuple[bytes, int, int]]) -> bytes:
    """Encode ``(node_id, ip, port)`` triples as 26-byte compact node info."""
    out = bytearray()
    for node_id, ip, port in nodes:
        if not isinstance(node_id, bytes) or len(node_id) != 20:
            raise KrpcError("node id must be 20 bytes")
        out += node_id + pack_compact_peer(ip, port)
    return bytes(out)


def unpack_compact_nodes(data: bytes) -> List[Tuple[bytes, int, int]]:
    """Decode a concatenation of 26-byte compact node entries."""
    if len(data) % 26 != 0:
        raise KrpcError(f"compact node blob of {len(data)} bytes (not 26*N)")
    nodes: List[Tuple[bytes, int, int]] = []
    for offset in range(0, len(data), 26):
        node_id = data[offset : offset + 20]
        ip, port = struct.unpack(">IH", data[offset + 20 : offset + 26])
        nodes.append((node_id, ip, port))
    return nodes

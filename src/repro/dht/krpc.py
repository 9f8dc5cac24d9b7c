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

``get_peers`` is the one message of a crawl's hot loop, so its canonical
query and its two canonical reply shapes (nodes + token, and nodes + scrape
counts + token + values) skip the generic codec both ways.  They are built
from bytes templates that are byte-identical to ``bencode`` of the sorted
dicts, and :func:`decode_message` matches them byte for byte before it
falls back to :func:`bdecode`.  Every other message -- ping, find_node,
announce_peer, errors, extra keys, non-canonical integers, malformed bytes
-- takes the generic path, which decides its value or its error.  Both
paths return equal results for every input; property tests pin that.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

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


# ``bencode`` of the canonical get_peers query and of its two reply shapes,
# keys in sorted order.  Each template is byte-identical to the codec's
# output for bytes fields and int counts; tests pin that.
_GET_PEERS_QUERY = b"d1:ad2:id%d:%b9:info_hash%d:%be1:q9:get_peers1:t%d:%b1:y1:qe"
_GET_PEERS_NODES = b"d1:rd2:id%d:%b5:nodes%d:%b5:token%d:%be1:t%d:%b1:y1:re"
_GET_PEERS_VALUES = (
    b"d1:rd2:id%d:%b5:nodes%d:%b5:peersi%de5:seedsi%de5:token%d:%b"
    b"6:valuesl%bee1:t%d:%b1:y1:re"
)
# One ``values`` list item: the bencode length prefix + compact peer info.
_VALUE_ITEM = struct.Struct(">2sIH")

# The exact canonical get_peers shapes, piece by piece.  Ids are 20 bytes,
# integers are canonical (no sign, no leading zeros) and digit runs are
# bounded, so anything else takes the generic path.
_QUERY_SHAPE = re.compile(
    rb"d1:ad2:id20:(.{20})9:info_hash20:(.{20})e1:q9:get_peers"
    rb"1:t([1-9][0-9]{0,8}):",
    re.DOTALL,
)
_REPLY_HEAD = re.compile(rb"d1:rd2:id20:(.{20})5:nodes(0|[1-9][0-9]{0,8}):", re.DOTALL)
_REPLY_SCRAPE = re.compile(
    rb"5:peersi(0|[1-9][0-9]{0,17})e5:seedsi(0|[1-9][0-9]{0,17})e"
)
_REPLY_TOKEN = re.compile(rb"5:token(0|[1-9][0-9]{0,8}):")
_REPLY_VALUES = re.compile(rb"6:valuesl((?:6:.{6})*)e", re.DOTALL)
_REPLY_TID = re.compile(rb"e1:t([1-9][0-9]{0,8}):")
_VALUE_ENTRY = re.compile(rb"6:(.{6})", re.DOTALL)


# Payloads may be keyed by str or bytes: bencode normalises and sorts all
# keys, so either spelling gives the same canonical bytes.
def encode_query(tid: bytes, method: str, args: Dict[Key, object]) -> bytes:
    """Encode one KRPC query.

    A ``get_peers`` query whose arguments are exactly ``{b"id", b"info_hash"}``
    with bytes values comes from :data:`_GET_PEERS_QUERY`; every other query
    goes through :func:`bencode`.
    """
    if not isinstance(tid, bytes) or not tid:
        raise KrpcError("transaction id must be non-empty bytes")
    if method not in KNOWN_METHODS:
        raise KrpcError(f"unknown KRPC method {method!r}")
    if method == "get_peers" and len(args) == 2:
        sender_id = args.get(b"id")
        infohash = args.get(b"info_hash")
        if sender_id.__class__ is bytes and infohash.__class__ is bytes:
            return _GET_PEERS_QUERY % (
                len(sender_id), sender_id, len(infohash), infohash, len(tid), tid
            )
    return bencode(
        {b"a": dict(args), b"q": method.encode(), b"t": tid, b"y": b"q"}
    )


def encode_response(tid: bytes, values: Dict[Key, object]) -> bytes:
    """Encode one KRPC response."""
    if not isinstance(tid, bytes) or not tid:
        raise KrpcError("transaction id must be non-empty bytes")
    return bencode({b"r": dict(values), b"t": tid, b"y": b"r"})


def encode_get_peers_response(
    tid: bytes,
    node_id: bytes,
    nodes: bytes,
    token: bytes,
    values: Optional[Iterable[Tuple[int, int]]] = None,
    *,
    peers: int = 0,
    seeds: int = 0,
) -> bytes:
    """Encode a ``get_peers`` reply from its template.

    Without ``values`` the reply is ``{id, nodes, token}``; with them (as
    ``(ip, port)`` pairs) it is ``{id, nodes, peers, seeds, token, values}``.
    Equal to :func:`encode_response` of the same sorted bytes-keyed dict.
    """
    if not isinstance(tid, bytes) or not tid:
        raise KrpcError("transaction id must be non-empty bytes")
    if values is None:
        return _GET_PEERS_NODES % (
            len(node_id), node_id, len(nodes), nodes, len(token), token, len(tid), tid
        )
    pack = _VALUE_ITEM.pack
    try:
        items = b"".join([pack(b"6:", ip, port) for ip, port in values])
    except struct.error as exc:
        raise KrpcError(f"peer out of compact range: {exc}") from None
    return _GET_PEERS_VALUES % (
        len(node_id), node_id, len(nodes), nodes, peers, seeds,
        len(token), token, items, len(tid), tid,
    )


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
    """Decode KRPC bytes into a query / response / error message.

    A canonical ``get_peers`` query or reply is matched byte for byte and
    sliced directly; everything else goes through :func:`bdecode`.
    """
    if raw.__class__ is bytes:
        message = _decode_get_peers(raw)
        if message is not None:
            return message
    return _decode_message_generic(raw)


def _decode_get_peers(raw: bytes):
    """The canonical ``get_peers`` message in ``raw``, or None."""
    match = _QUERY_SHAPE.match(raw)
    if match is not None:
        start = match.end()
        end = start + int(match[3])
        if len(raw) == end + 7 and raw.endswith(b"1:y1:qe"):
            return KrpcQuery(
                tid=raw[start:end],
                method="get_peers",
                args={b"id": match[1], b"info_hash": match[2]},
            )
        return None
    match = _REPLY_HEAD.match(raw)
    if match is None:
        return None
    pos = match.end() + int(match[2])
    values: Dict[bytes, object] = {b"id": match[1], b"nodes": raw[match.end() : pos]}
    scrape = _REPLY_SCRAPE.match(raw, pos)
    if scrape is not None:
        values[b"peers"] = int(scrape[1])
        values[b"seeds"] = int(scrape[2])
        pos = scrape.end()
    match = _REPLY_TOKEN.match(raw, pos)
    if match is None:
        return None
    pos = match.end() + int(match[1])
    values[b"token"] = raw[match.end() : pos]
    if scrape is not None:
        match = _REPLY_VALUES.match(raw, pos)
        if match is None:
            return None
        values[b"values"] = _VALUE_ENTRY.findall(match[1])
        pos = match.end()
    match = _REPLY_TID.match(raw, pos)
    if match is None:
        return None
    start = match.end()
    end = start + int(match[1])
    if len(raw) != end + 7 or not raw.endswith(b"1:y1:re"):
        return None
    return KrpcResponse(tid=raw[start:end], values=values)


def _decode_message_generic(raw: bytes):
    """Decode any KRPC message through :func:`bdecode`."""
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
_PEER = struct.Struct(">IH")
_NODE = struct.Struct(">20sIH")


def pack_compact_peer(ip: int, port: int) -> bytes:
    """6-byte compact peer info (BEP 5 / BEP 23)."""
    if not 0 <= ip <= 0xFFFFFFFF:
        raise KrpcError(f"ip {ip} out of IPv4 range")
    if not 0 <= port <= 0xFFFF:
        raise KrpcError(f"port {port} out of range")
    return _PEER.pack(ip, port)


def unpack_compact_peers(data: bytes) -> List[Tuple[int, int]]:
    """Decode a concatenation of 6-byte compact peer entries."""
    if len(data) % 6 != 0:
        raise KrpcError(f"compact peer blob of {len(data)} bytes (not 6*N)")
    return list(_PEER.iter_unpack(data))


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
    return list(_NODE.iter_unpack(data))

"""Tracker wire protocol: announce/scrape request & response codecs.

Responses follow the HTTP tracker convention (BEP 3 + BEP 23 compact peers):

- success: ``{"interval": seconds, "complete": seeders,
  "incomplete": leechers, "peers": <6*N bytes>}``
- failure: ``{"failure reason": <bytes>}``

Peers are packed 6 bytes each: 4-byte big-endian IPv4 + 2-byte big-endian
port.  The simulator derives a stable per-IP port so repeated observations of
the same peer look consistent.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.bencode import bdecode, bencode


class TrackerError(RuntimeError):
    """A failure response from the tracker (or malformed tracker bytes)."""


@dataclass(frozen=True)
class AnnounceRequest:
    """One announce as the tracker receives it."""

    infohash: bytes
    client_ip: int
    numwant: int = 200

    def __post_init__(self) -> None:
        if len(self.infohash) != 20:
            raise ValueError("infohash must be 20 bytes")
        if self.numwant < 0:
            raise ValueError("numwant must be >= 0")


@dataclass(frozen=True)
class AnnounceResponse:
    """Decoded success response."""

    interval_seconds: int
    seeders: int
    leechers: int
    peers: List[Tuple[int, int]] = field(default_factory=list)  # (ip, port)

    @property
    def peer_ips(self) -> List[int]:
        return [ip for ip, _port in self.peers]

    @property
    def total_peers(self) -> int:
        return self.seeders + self.leechers


@dataclass(frozen=True)
class ScrapeResponse:
    """Decoded scrape response for one infohash."""

    seeders: int
    completed: int
    leechers: int


def peer_port_for_ip(ip: int) -> int:
    """Stable synthetic listening port for a peer (range 10000..59999)."""
    return 10000 + (ip % 50000)


# One compact-peers entry: 4-byte big-endian IPv4 + 2-byte big-endian port.
_PEER_STRUCT = struct.Struct(">IH")

# ``bencode`` of the success and failure dicts, keys in canonical order.  The
# templates are byte-identical to the codec's output for int counts and
# bytes payloads; tests pin that.
_SUCCESS_TEMPLATE = b"d8:completei%de10:incompletei%de8:intervali%de5:peers%d:%be"
_FAILURE_TEMPLATE = b"d14:failure reason%d:%be"

# The exact byte prefix of a canonical success response, up to the peers
# blob.  Integers follow bencode's canonical form (no sign, no leading
# zeros); digit runs are bounded so anything larger takes the generic path.
_SUCCESS_PREFIX = re.compile(
    rb"d8:completei(0|[1-9][0-9]{0,17})e"
    rb"10:incompletei(0|[1-9][0-9]{0,17})e"
    rb"8:intervali(0|[1-9][0-9]{0,17})e"
    rb"5:peers(0|[1-9][0-9]{0,8}):"
)


def encode_peers_compact(ips: Iterable[int]) -> bytes:
    pack = _PEER_STRUCT.pack
    return b"".join([pack(ip & 0xFFFFFFFF, 10000 + (ip % 50000)) for ip in ips])


def encode_announce_success(
    interval_seconds: int, seeders: int, leechers: int, ips: Iterable[int]
) -> bytes:
    peers = encode_peers_compact(ips)
    return _SUCCESS_TEMPLATE % (
        seeders, leechers, interval_seconds, len(peers), peers
    )


def encode_failure(reason: str) -> bytes:
    encoded = reason.encode("utf-8")
    return _FAILURE_TEMPLATE % (len(encoded), encoded)


def decode_announce_response(data: bytes) -> AnnounceResponse:
    """Parse tracker bytes; raises :class:`TrackerError` on failure responses.

    A canonical success response (the four keys, sorted, canonical integers,
    a peers blob of whole 6-byte entries) is matched byte for byte and
    unpacked directly.  Everything else -- failures, extra keys, other types,
    malformed bytes -- goes through :func:`bdecode`, which decides the value
    or the error.  Both paths return equal results for every input.
    """
    if data.__class__ is bytes:
        match = _SUCCESS_PREFIX.match(data)
        if match is not None:
            start = match.end()
            end = start + int(match[4])
            if end + 1 == len(data) and data[end] == 0x65 and not (end - start) % 6:
                return AnnounceResponse(
                    interval_seconds=int(match[3]),
                    seeders=int(match[1]),
                    leechers=int(match[2]),
                    peers=list(_PEER_STRUCT.iter_unpack(data[start:end])),
                )
    return _decode_announce_generic(data)


def _raise_if_failure(decoded: Dict[bytes, Any]) -> None:
    if b"failure reason" in decoded:
        reason = decoded[b"failure reason"]
        if reason.__class__ is not bytes:
            raise TrackerError("tracker failure reason is not a byte string")
        raise TrackerError(reason.decode("utf-8", "replace"))


def _decode_announce_generic(data: bytes) -> AnnounceResponse:
    decoded = bdecode(data)
    if not isinstance(decoded, dict):
        raise TrackerError("tracker response is not a dictionary")
    _raise_if_failure(decoded)
    for key in (b"interval", b"complete", b"incomplete", b"peers"):
        if key not in decoded:
            raise TrackerError(f"tracker response missing {key.decode()!r}")
    for key in (b"interval", b"complete", b"incomplete"):
        if decoded[key].__class__ is not int:
            raise TrackerError(f"tracker response {key.decode()!r} is not an integer")
    raw_peers = decoded[b"peers"]
    if not isinstance(raw_peers, bytes) or len(raw_peers) % 6 != 0:
        raise TrackerError("compact peers blob must be a multiple of 6 bytes")
    peers: List[Tuple[int, int]] = list(_PEER_STRUCT.iter_unpack(raw_peers))
    return AnnounceResponse(
        interval_seconds=decoded[b"interval"],
        seeders=decoded[b"complete"],
        leechers=decoded[b"incomplete"],
        peers=peers,
    )


def encode_scrape_response(files: Dict[bytes, Tuple[int, int, int]]) -> bytes:
    """``files`` maps infohash -> (seeders, completed, leechers)."""
    return bencode(
        {
            "files": {
                infohash: {
                    "complete": seeders,
                    "downloaded": completed,
                    "incomplete": leechers,
                }
                for infohash, (seeders, completed, leechers) in files.items()
            }
        }
    )


def decode_scrape_response(data: bytes) -> Dict[bytes, ScrapeResponse]:
    decoded = bdecode(data)
    if not isinstance(decoded, dict):
        raise TrackerError("scrape response is not a dictionary")
    _raise_if_failure(decoded)
    files = decoded.get(b"files")
    if not isinstance(files, dict):
        raise TrackerError("scrape response missing 'files'")
    out: Dict[bytes, ScrapeResponse] = {}
    for infohash, stats in files.items():
        if len(infohash) != 20:
            raise TrackerError(f"scrape infohash must be 20 bytes, got {len(infohash)}")
        if not isinstance(stats, dict):
            raise TrackerError("scrape file entry is not a dictionary")
        counts = []
        for key in (b"complete", b"downloaded", b"incomplete"):
            count = stats.get(key, 0)
            if count.__class__ is not int:
                raise TrackerError(f"scrape {key.decode()!r} is not an integer")
            counts.append(count)
        seeders, completed, leechers = counts
        out[infohash] = ScrapeResponse(
            seeders=seeders, completed=completed, leechers=leechers
        )
    return out
